"""Certificates for intersection emptiness and their verifiers.

Non-emptiness is certified by a *short pathset*: one accepting run per
component automaton, all spelling the same word, with the word no longer
than n^k.  Each run is checked by ``automata.validate_run``, which also
gives the word it spells.  Emptiness is certified by a *staggered cut*: per
(component, letter) subsets of the state-tuple space that contain the
initial tuple, avoid all final tuples, and are closed under
single-component moves.

A cut is read off the closure of the nodding table
(``PreparedBundle.closure``) that decided the instance: its seen set of the
base copy is every index-0 subset, and its seen set of petal copy (a, i),
found by ``products.nodding_copy``, is subset (i, a), each as a bitmask.
The closure is kept on the prepared bundle with the state budget it ran
under, so certifying after deciding costs no further moves.

The cut verifier never walks the product's transition relation.  Closure is
the boolean matrix-product inequality ``Out . Δ <= In``, where Out and In
expose one tuple component of a subset as columns and Δ is that component's
adjacency matrix.  The verifier computes the product column by column on the
packed subset itself, one masked shift per state that has a move, reading
the tuple space, final mask and letter adjacency from ``bundle.prepared``:
a check costs O(k.(l+m)) big-int operations, not one Python step per member.
Extraction, verification and serialisation check a cut's tuple space
against the state budget first.  ``build_in_out`` materializes the matrices
for tests; a naive verifier that scans product transitions is a test oracle.

Verdicts are structured (condition id plus coordinates), never bare
booleans, so tests can assert exactly which condition a mutation violates.
"""

from __future__ import annotations

import binascii
import re
from dataclasses import dataclass
from typing import List, Optional, Union

from .automata import EPSILON, InstanceBundle, RunViolation, run_is_accepting, validate_run
from .boolmatrix import BoolMatrix, set_bits
from .decision import Decision
from .products import ProductSpace, nodding_copy, nodding_tag

CERT_MAGIC = "nfa-cert v1"


@dataclass(frozen=True)
class Verdict:
    ok: bool
    condition: Optional[str] = None
    where: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def _reject(condition: str, *where) -> Verdict:
    return Verdict(False, condition, tuple(where))


ACCEPT = Verdict(True)


@dataclass(frozen=True)
class ShortPathset:
    """k accepting runs, one per component, all labelled by ``word``."""

    word: tuple
    runs: tuple

    @property
    def k(self) -> int:
        return len(self.runs)


@dataclass(frozen=True)
class StaggeredCut:
    """Per (component index, letter) subsets of the state-tuple space.

    ``sets[i * n_letters + letter]`` is a bitmask over mixed-radix encoded
    tuples (component 0 least significant).  Index 0 subsets, one per letter,
    must all coincide; they play the role of the base copy.
    """

    n_letters: int
    sizes: tuple
    sets: tuple

    @property
    def k(self) -> int:
        return len(self.sizes)

    def set_for(self, i: int, letter: int) -> int:
        return self.sets[i * self.n_letters + letter]


@dataclass(frozen=True)
class InOutMatrices:
    """Reshapings of a cut: for each (component p, letter), the In matrix
    exposes tuple component p-1 (mod k) and the Out matrix component p, each
    as columns against the remaining components as rows."""

    in_mats: tuple
    out_mats: tuple
    n_letters: int

    def in_mat(self, p: int, letter: int) -> BoolMatrix:
        return self.in_mats[p * self.n_letters + letter]

    def out_mat(self, p: int, letter: int) -> BoolMatrix:
        return self.out_mats[p * self.n_letters + letter]


def extract_short_pathset(bundle: InstanceBundle, decision: Decision) -> ShortPathset:
    """Split a nodding-product witness run into one run per component.

    Each petal of the witness contributes exactly one move per component, all
    on the petal's letter, so regrouping the moves by component yields k runs
    on the common witness word.  Breadth-first search keeps the word shortest
    possible, hence within the n^k pathset bound.
    """
    if decision.witness_run is None:
        raise ValueError("cannot extract a pathset from an empty instance")
    space = bundle.prepared.space
    k = bundle.k
    word: List[int] = []
    runs: List[List[tuple]] = [[] for _ in range(k)]
    for (src, label, dst) in decision.witness_run:
        src_comps, src_tag = space.decode(src)
        dst_comps, dst_tag = space.decode(dst)
        if label != EPSILON:
            if src_tag != 0 or dst_tag == 0:
                raise ValueError("witness run is not a nodding-product run")
            letter, volley = nodding_tag(dst_tag, k)
            if volley != 1 or letter != label:
                raise ValueError("witness run is not a nodding-product run")
            word.append(letter)
            comp = 0
        else:
            if src_tag == 0:
                raise ValueError("witness run is not a nodding-product run")
            letter, comp = nodding_tag(src_tag, k)
        runs[comp].append((src_comps[comp], letter, dst_comps[comp]))
    return ShortPathset(tuple(word), tuple(tuple(r) for r in runs))


def verify_short_pathset(bundle: InstanceBundle, ps: ShortPathset) -> Verdict:
    """Check every pathset condition, each run through ``validate_run``.

    Checked in order: run count, word-length bound, per-run structure
    (wrong-start / discontinuity / not-a-transition at (run, step)), label
    agreement with the common word, acceptance of every run.
    """
    k = bundle.k
    if len(ps.runs) != k:
        return _reject("shape", len(ps.runs))
    n = bundle.max_states
    if len(ps.word) > n ** k:
        return _reject("length-bound", len(ps.word))
    for i, (a, run) in enumerate(zip(bundle.automata, ps.runs)):
        spelled = validate_run(a, run)
        if isinstance(spelled, RunViolation):
            return _reject(spelled.kind, i, spelled.step)
        if spelled != ps.word:
            length = min(len(spelled), len(ps.word))
            position = next(
                (j for j in range(length) if spelled[j] != ps.word[j]), length
            )
            return _reject("label-mismatch", i, position)
        if not run_is_accepting(a, run):
            return _reject("not-accepting", i)
    return ACCEPT


def extract_staggered_cut(bundle: InstanceBundle) -> StaggeredCut:
    """Collect the accessible part of the nodding product into a cut.

    The base-copy tuples become every index-0 subset and the tuples of the
    (letter, volley i) copy become subset (i, letter).  The closure of the
    nodding table (``PreparedBundle.closure``) gives them as the seen sets of
    those copies, run once per bundle and state budget, so a cut extracted
    after ``decide_empty`` reuses the decision's closure; a closure held as
    sets of tuple ids is read into masks here.  Raises ValueError if the
    instance turns out to be non-empty (no cut exists then), and
    BudgetExceeded when the tuple space or the accessible part exceeds the
    state budget.
    """
    prepared = bundle.prepared
    prepared.space.check_tuple_budget()
    closure = prepared.closure()
    if closure.met:
        raise ValueError("intersection is non-empty; no staggered cut exists")
    k, l, seen, mask_of = bundle.k, bundle.n_letters, closure.seen, prepared.space.mask_of
    volleys = [mask_of(seen.get(nodding_copy(letter, i, k), 0)) for i in range(1, k) for letter in range(l)]
    return StaggeredCut(l, prepared.space.sizes, tuple([mask_of(seen[0])] * l + volleys))


def _cut_shape_ok(bundle: InstanceBundle, cut: StaggeredCut) -> bool:
    space = bundle.prepared.space
    if cut.sizes != space.sizes or cut.n_letters != bundle.n_letters:
        return False
    if len(cut.sets) != cut.k * cut.n_letters:
        return False
    return all(mask >= 0 and mask.bit_length() <= space.base_size for mask in cut.sets)


def _check_cut_basics(bundle: InstanceBundle, cut: StaggeredCut) -> Optional[Verdict]:
    """Conditions shared by both verifiers: shape, base-copy agreement,
    initial membership, final exclusion.  None means all hold.

    With no letters the only word is the empty one, and a cut (which then
    has no subsets) stands for the initial tuple alone.

    Raises BudgetExceeded before allocating any mask over a tuple space
    larger than the state budget."""
    if not _cut_shape_ok(bundle, cut):
        return _reject("shape")
    prepared = bundle.prepared
    prepared.space.check_tuple_budget()
    initial = prepared.initial
    base = cut.set_for(0, 0) if cut.n_letters else 1 << initial
    for letter in range(1, cut.n_letters):
        if cut.set_for(0, letter) != base:
            return _reject("base-copy-mismatch", letter)
    if not (base >> initial) & 1:
        return _reject("initial-missing", initial)
    offending = base & prepared.final_mask
    if offending:
        return _reject("final-present", (offending & -offending).bit_length() - 1)
    return None


def build_in_out(bundle: InstanceBundle, cut: StaggeredCut) -> InOutMatrices:
    """Reshape each cut subset into its In and Out matrices.

    Row indices enumerate the k-1 unexposed components (ascending component
    order, lowest index least significant); columns enumerate the exposed
    component.  Each set bit of the cut is touched twice.
    """
    if not _cut_shape_ok(bundle, cut):
        raise ValueError("cut shape does not match the bundle")
    space = bundle.prepared.space
    k, l = cut.k, cut.n_letters

    def reshape(mask: int, exposed: int) -> BoolMatrix:
        # the ProductSpace.first_entry layout: the components below the
        # exposed one keep their strides, those above it shrink by n
        stride, n = space.strides[exposed], space.sizes[exposed]
        rows = [0] * (space.base_size // n)
        for tid in set_bits(mask):
            high, rest = divmod(tid, stride * n)
            rows[high * stride + rest % stride] |= 1 << (rest // stride)
        return BoolMatrix(len(rows), n, tuple(rows))

    in_mats = []
    out_mats = []
    for p in range(k):
        for letter in range(l):
            subset = cut.set_for(p, letter)
            in_mats.append(reshape(subset, (p - 1) % k))
            out_mats.append(reshape(subset, p))
    return InOutMatrices(tuple(in_mats), tuple(out_mats), l)


def verify_staggered_cut(bundle: InstanceBundle, cut: StaggeredCut) -> Verdict:
    """Verify a cut using boolean matrix products on the packed subsets.

    Closure is checked per (component p, letter) as
    ``Out[p, letter] . adjacency_p(letter) <= In[p+1 mod k, letter]``: moving
    the exposed component of every cut tuple through the component automaton
    must stay inside the next subset.  The product is computed column by
    column on the subset's bitmask (``ProductSpace.move``), every row of Out
    held at once in one int, so no matrix is materialized.  A violation is
    reported as ``(p, letter, row, col)``, the first violating entry of
    ``In[p+1 mod k, letter]`` in row-major order: col is component p, row
    the other components in mixed radix.
    """
    basic = _check_cut_basics(bundle, cut)
    if basic is not None:
        return basic
    space = bundle.prepared.space
    for p, letters in enumerate(bundle.prepared.letters):
        for letter, targets in enumerate(letters):
            moved = space.move(cut.set_for(p, letter), p, targets)
            violation = moved & ~cut.set_for((p + 1) % cut.k, letter)
            if violation:
                return _reject("closure", p, letter, *space.first_entry(violation, p))
    return ACCEPT


def verify_staggered_cut_naive(bundle: InstanceBundle, cut: StaggeredCut) -> Verdict:
    """Reference verifier: checks closure by enumerating, for every cut
    tuple, every move of the active component.  Slow but independent of the
    packed product; kept as the oracle the fast verifier is tested against.
    """
    basic = _check_cut_basics(bundle, cut)
    if basic is not None:
        return basic
    space = bundle.prepared.space
    k, l = cut.k, cut.n_letters
    for p in range(k):
        automaton = bundle.automata[p]
        stride = space.strides[p]
        for letter in range(l):
            subset = cut.set_for(p, letter)
            target = cut.set_for((p + 1) % k, letter)
            for tid in set_bits(subset):
                q = space.component(tid, p)
                for dst in automaton.successors(q, letter):
                    moved = tid + (dst - q) * stride
                    if not (target >> moved) & 1:
                        return _reject("closure", p, letter, tid, dst)
    return ACCEPT


# --- certificate files ------------------------------------------------------

#: The head of a ``set`` line in the form ``serialize_certificate`` writes,
#: up to its hex field.  A line that does not match, or whose field does not
#: decode, is read field by field like every other line.
_SET_HEAD = re.compile(r"set ([0-9]+) ([0-9]+) ")


def _hex_mask(text: str) -> int:
    return int.from_bytes(bytes.fromhex(text), "little")


def _mask_hex(mask: int, n_bits: int) -> str:
    n_bytes = (n_bits + 7) // 8
    return mask.to_bytes(n_bytes, "little").hex()


def serialize_certificate(cert: Union[ShortPathset, StaggeredCut]) -> str:
    lines = [CERT_MAGIC]
    if isinstance(cert, ShortPathset):
        lines.append("pathset")
        lines.append(f"k {cert.k}")
        lines.append(("word " + " ".join(map(str, cert.word))).rstrip())
        for i, run in enumerate(cert.runs):
            lines.append(f"run {i}")
            for (src, label, dst) in run:
                lines.append(f"step {src} {label} {dst}")
    elif isinstance(cert, StaggeredCut):
        space = ProductSpace(cert.sizes, 1)
        space.check_tuple_budget()
        n_bits = space.base_size
        lines.append("cut")
        lines.append(f"k {cert.k}")
        lines.append(f"alphabet {cert.n_letters}")
        lines.append("states " + " ".join(map(str, cert.sizes)))
        for i in range(cert.k):
            for letter in range(cert.n_letters):
                lines.append(f"set {i} {letter} {_mask_hex(cert.set_for(i, letter), n_bits)}")
    else:
        raise TypeError(f"not a certificate: {type(cert).__name__}")
    lines.append("")  # the final newline, without a third copy of the text
    return "\n".join(lines)


def _certificate_lines(text: str):
    """The non-empty lines of a certificate file, comments and surrounding
    whitespace stripped, as ``(line number, line, mask)``; lines are
    numbered as ``str.splitlines`` numbers them.

    The text is walked once, newline by newline.  A ``set`` line that
    matches ``_SET_HEAD`` and whose field is all hex digits comes as its
    head ``set i letter``, with the field decoded by ``binascii.a2b_hex``
    from one slice of the text as ``mask``: such a line holds no comment,
    no other line break and no whitespace after the head.  Every other
    piece is split by ``str.splitlines`` with its newline, which numbers
    its lines as a split of the whole text would, and comes line by line
    with mask None.
    """
    no, start, n = 0, 0, len(text)
    while start < n:
        end = text.find("\n", start)
        if end < 0:
            end = n
        head = _SET_HEAD.match(text, start, end)
        if head and head.end() < end:
            try:
                field = binascii.a2b_hex(text[head.end():end])
            except ValueError:  # not all hex digits: read field by field below
                pass
            else:
                no += 1
                yield no, head[0].rstrip(), int.from_bytes(field, "little")
                start = end + 1
                continue
        for raw in text[start:end + 1].splitlines():
            no += 1
            line = raw.split("#", 1)[0].strip()
            if line:
                yield no, line, None
        start = end + 1


def parse_certificate(text: str) -> Union[ShortPathset, StaggeredCut]:
    """Read a certificate file in one pass.  Malformed, repeated or
    out-of-range lines raise ``FormatError`` with their line number; the
    checks that need the whole file report its last non-empty line."""
    from .fileformat import FormatError

    def fields(no: int, parts: List[str], usage: str, count: Optional[int] = None, last=int) -> list:
        """The fields after a directive, ``count`` of them unless None;
        ``last`` converts the final one, ``int`` the others."""
        args = parts[1:]
        if count is None or len(args) == count:
            try:
                return [int(x) for x in args[:-1]] + [last(x) for x in args[-1:]]
            except ValueError:
                pass
        raise FormatError(f"{parts[0]!r} takes {usage}", no)

    def once(old, no: int, parts: List[str], new):
        """``new``, unless an earlier ``parts[0]`` line already gave ``old``."""
        if old is not None:
            raise FormatError(f"duplicate {parts[0]!r} line", no)
        return new

    lines = _certificate_lines(text)
    if next(lines, (1, None, None))[1] != CERT_MAGIC:
        raise FormatError(f"expected magic line {CERT_MAGIC!r}", 1)
    no, kind, _ = next(lines, (1, None, None))
    if kind not in ("pathset", "cut"):
        raise FormatError("expected certificate kind 'pathset' or 'cut'", no)
    no = 1  # after the loop, the last body line, where whole-file checks report
    if kind == "pathset":
        k = None
        word = None
        runs: List[List[tuple]] = []
        for no, line, _ in lines:
            parts = line.split()
            if parts[0] == "k":
                k = once(k, no, parts, fields(no, parts, "one count", 1)[0])
            elif parts[0] == "word":
                word = once(word, no, parts, tuple(fields(no, parts, "letters")))
            elif parts[0] == "run":
                if fields(no, parts, "one run index", 1)[0] != len(runs):
                    raise FormatError("runs must appear in order", no)
                runs.append([])
            elif parts[0] == "step":
                if not runs:
                    raise FormatError("'step' before any 'run'", no)
                runs[-1].append(tuple(fields(no, parts, "src letter dst", 3)))
            else:
                raise FormatError(f"unknown directive {parts[0]!r}", no)
        if k is None or word is None:
            raise FormatError("pathset needs 'k' and 'word' lines", no)
        if len(runs) != k:
            raise FormatError(f"declared k={k} but found {len(runs)} runs", no)
        return ShortPathset(word, tuple(tuple(r) for r in runs))
    k = None
    alphabet = None
    sizes = None
    sets = {}  # (i, letter) -> (line number, mask)
    for no, line, mask in lines:
        parts = line.split()
        if parts[0] == "k":
            k = once(k, no, parts, fields(no, parts, "one count", 1)[0])
        elif parts[0] == "alphabet":
            alphabet = once(alphabet, no, parts, fields(no, parts, "one count", 1)[0])
        elif parts[0] == "states":
            sizes = once(sizes, no, parts, tuple(fields(no, parts, "component sizes")))
        elif parts[0] == "set":
            if mask is None:
                i, letter, mask = fields(no, parts, "component letter hex", 3, _hex_mask)
            else:
                i, letter = int(parts[1]), int(parts[2])
            if (i, letter) in sets:
                raise FormatError(f"duplicate 'set {i} {letter}' line", no)
            sets[(i, letter)] = (no, mask)
        else:
            raise FormatError(f"unknown directive {parts[0]!r}", no)
    if k is None or alphabet is None or sizes is None:
        raise FormatError("cut needs 'k', 'alphabet' and 'states' lines", no)
    if len(sizes) != k:
        raise FormatError(f"declared k={k} but 'states' lists {len(sizes)} sizes", no)
    for (i, letter), (at, _) in sets.items():
        if not (0 <= i < k and 0 <= letter < alphabet):
            raise FormatError(f"'set {i} {letter}' is outside k={k} and alphabet={alphabet}", at)
    ordered = []
    for i in range(k):
        for letter in range(alphabet):
            if (i, letter) not in sets:
                raise FormatError(f"missing 'set {i} {letter}' line", no)
            ordered.append(sets[(i, letter)][1])
    return StaggeredCut(alphabet, sizes, tuple(ordered))
