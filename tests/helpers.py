"""Shared fixtures and brute-force helpers for the test suite."""

from __future__ import annotations

import itertools
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict

from hypothesis import strategies as st

import nfai
from nfai.automata import EPSILON, InstanceBundle, Nfa, RunViolation, accepts
from nfai.boolmatrix import set_bits
from nfai.certificates import CERT_MAGIC, ShortPathset, StaggeredCut
from nfai.decision import Decision
from nfai.fileformat import FormatError
from nfai.hardness import UndirectedGraph, _seed_key, random_bundle
from nfai.products import (
    BudgetExceeded,
    ProductBuilder,
    WordRelations,
    _Table,
    builder_for,
    nodding_copy,
    reachable,
    state_budget,
)
from nfai.relations import MultiTapeAutomaton, multitape_accepts


def all_words(n_letters: int, max_len: int):
    """Every word over the alphabet with length <= max_len, shortest first."""
    for length in range(max_len + 1):
        yield from itertools.product(range(n_letters), repeat=length)


def aa_bb_cc_star() -> Nfa:
    """Four-state NFA for (aa + bb + cc)* over letters a=0, b=1, c=2."""
    return Nfa(
        n_states=4,
        n_letters=3,
        transitions=(
            (0, 0, 1), (1, 0, 0),
            (0, 1, 2), (2, 1, 0),
            (0, 2, 3), (3, 2, 0),
        ),
        initial=0,
        finals=frozenset({0}),
    )


def example_clique_graph() -> UndirectedGraph:
    """Five-vertex graph whose unique 4-clique is {0, 1, 3, 4} (vertex 2
    hangs off the clique by two edges)."""
    return UndirectedGraph(
        5,
        frozenset({(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (3, 4), (1, 2), (2, 3)}),
    )


def complete_empty_bundle() -> InstanceBundle:
    """Two complete 3-state NFA over two letters, the first with no final
    state: empty, yet the nodding search explores every tuple of each copy."""
    n, l = 3, 2
    complete = tuple((p, s, q) for p in range(n) for s in range(l) for q in range(n))
    return InstanceBundle((Nfa(n, l, complete, 0, frozenset()), Nfa(n, l, complete, 0, frozenset({0}))))


def moves_reference(a) -> dict:
    """``{label: {state: successor tuple}}`` grouped here from the
    transitions, each level sorted on its own: the reference an automaton's
    ``letters`` table is checked against, and the only grouping the other
    references read."""
    grouped: dict = {}
    for (q, s, d) in a.transitions:
        grouped.setdefault(s, {}).setdefault(q, set()).add(d)
    return {s: {q: tuple(sorted(grouped[s][q])) for q in sorted(grouped[s])} for s in sorted(grouped)}


def is_deterministic_reference(a) -> bool:
    """``automata.is_deterministic`` as it was before it read the move
    table: one set of (state, letter) pairs built from the transitions."""
    seen = set()
    for (src, label, dst) in a.transitions:
        if label == EPSILON:
            return False
        if (src, label) in seen:
            return False
        seen.add((src, label))
    return True


def validate_run_reference(a, run):
    """``automata.validate_run`` as it was before it read the move table:
    each step looked up in a set of all the transitions."""
    steps = tuple(tuple(step) for step in run)
    transitions = set(a.transitions)
    word = []
    for i, step in enumerate(steps):
        src, label, dst = step
        if i == 0:
            if src != a.initial:
                return RunViolation("wrong-start", 0)
        elif steps[i - 1][2] != src:
            return RunViolation("discontinuity", i)
        if step not in transitions:
            return RunViolation("not-a-transition", i)
        if label != EPSILON:
            word.append(label)
    return tuple(word)


def reach_map(a: Nfa, max_len: int) -> dict:
    """Word reachability as sparse rows of bitmasks, one table per word u
    with 1 <= |u| <= max_len: ``table[u]`` maps each state q that u leads
    somewhere from to the mask with bit d set iff u leads from q to d; row q
    of ``(s,) + u`` ORs u's rows at the successors of q on s.  No identity
    rows for the empty word.  The reference the library's distinct word
    relations are checked against."""
    grouped = moves_reference(a)
    letters = [grouped.get(s, {}) for s in range(a.n_letters)]
    table = {(s,): {q: sum(1 << d for d in dsts) for q, dsts in moves.items()}
             for s, moves in enumerate(letters)} if max_len else {}
    layer = list(table)
    for _ in range(max_len - 1):
        longer = []
        for s, moves in enumerate(letters):
            for u in layer:
                rows = table[u]
                out = {}
                for q, dsts in moves.items():
                    row = 0
                    for d in dsts:
                        row |= rows.get(d, 0)
                    if row:
                        out[q] = row
                table[(s,) + u] = out
                longer.append((s,) + u)
        layer = longer
    return table


def _words(n_letters: int, length: int):
    return itertools.product(range(n_letters), repeat=length)


def catchup_tags(k: int, l: int) -> list:
    """Every catch-up copy tag in copy order: the base, the petal copies
    ``("petal", u, j)`` by word u of length k, then the tail copies
    ``("tail", v, j)`` by length of v, then word.  The reference for the
    catch-up builder's numbering by ``products.word_copy``."""
    tags = [("base",)]
    tags += [("petal", u, j) for u in _words(l, k) for j in range(1, k)]
    tags += [("tail", v, j) for t in range(1, k) for v in _words(l, t) for j in range(1, t + 1)]
    return tags


def leapfrog_tags(k: int, l: int) -> list:
    """Every leapfrog copy tag in copy order: the tree copies ``("tree",
    u)`` by length of u, then word, then the main copies ``("main", i,
    u)``.  The reference for the leapfrog builder's numbering by
    ``products.word_copy``."""
    tags = [("tree", u) for t in range(k - 1) for u in _words(l, t)]
    return tags + [("main", i, u) for i in range(k) for u in _words(l, k - 1)]


def catchup_block(tag, k: int) -> tuple:
    """The catch-up copy ``tag`` as ``(block, word, j)`` of the builder's
    copy layout: the base, the petals, then the tails by length."""
    if tag[0] == "base":
        return 0, (), 0
    kind, u, j = tag
    return (1 if kind == "petal" else 1 + len(u)), u, j - 1


def leapfrog_block(tag, k: int) -> tuple:
    """The leapfrog copy ``tag`` as ``(block, word, j)`` of the builder's
    copy layout: the tree by length, then the main copies by component."""
    return (len(tag[1]) if tag[0] == "tree" else k - 1 + tag[1]), tag[-1], 0


def catchup_reference(tag, k: int, l: int):
    """The catch-up copy ``tag`` by tags and words: its volleys as
    ``(component, word, label, next tag)``, every word's included, and per
    component the word a final tuple still owes (the empty word: be final),
    or None when the copy never accepts."""
    if tag[0] == "base":
        firsts = [("petal", u, 1) for u in _words(l, k)]
        firsts += [("tail", v, 1) for t in range(1, k) for v in _words(l, t)]
        volleys = sorted(((0, nxt[1], nxt[1][0], nxt) for nxt in firsts), key=lambda volley: volley[2])
        return volleys, ((),) * k
    kind, u, j = tag
    if j == len(u):  # the last tail copy
        return [], tuple(() if i < j else u for i in range(k))
    nxt = ("base",) if kind == "petal" and j == k - 1 else (kind, u, j + 1)
    return [(j, u, u[j], nxt)], None


def leapfrog_reference(tag, k: int, l: int):
    """The leapfrog copy ``tag`` as :func:`catchup_reference` gives a
    catch-up copy."""
    volleys = []
    for letter in range(l):
        if tag[0] == "tree":
            u = tag[1]
            comp, word = len(u), u + (letter,)
            nxt = ("tree", word) if comp < k - 2 else ("main", k - 1, word)
        else:
            _, comp, u = tag
            word = u + (letter,)
            nxt = ("main", (comp + 1) % k, word[1:])
        volleys.append((comp, word, letter, nxt))
    if tag[0] == "tree":
        u = tag[1]
        return volleys, tuple(u[j + 1:] if j < len(u) else u for j in range(k))
    _, i, u = tag
    return volleys, tuple(u[len(u) - (i - 1 - j) % k:] for j in range(k))


def parse_certificate_reference(text: str):
    """The certificate parser before the one-pass reader: every line split
    with ``str.splitlines`` and ``str.split``, each hex field copied and
    read with ``bytes.fromhex``, and a repeated or out-of-range line
    silently kept or dropped.  The reference ``parse_certificate`` is
    checked against."""

    def fields(no, parts, usage, count=None, last=int):
        args = parts[1:]
        if count is None or len(args) == count:
            try:
                return [int(x) for x in args[:-1]] + [last(x) for x in args[-1:]]
            except ValueError:
                pass
        raise FormatError(f"{parts[0]!r} takes {usage}", no)

    def hex_mask(field):
        return int.from_bytes(bytes.fromhex(field), "little")

    lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((no, stripped))
    if not lines or lines[0][1] != CERT_MAGIC:
        raise FormatError(f"expected magic line {CERT_MAGIC!r}", 1)
    if len(lines) < 2 or lines[1][1] not in ("pathset", "cut"):
        raise FormatError("expected certificate kind 'pathset' or 'cut'", lines[1][0] if len(lines) > 1 else 1)
    kind = lines[1][1]
    body = lines[2:]
    if kind == "pathset":
        k = None
        word = None
        runs = []
        for no, line in body:
            parts = line.split()
            if parts[0] == "k":
                (k,) = fields(no, parts, "one count", 1)
            elif parts[0] == "word":
                word = tuple(fields(no, parts, "letters"))
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
            raise FormatError("pathset needs 'k' and 'word' lines", body[-1][0] if body else 1)
        if len(runs) != k:
            raise FormatError(f"declared k={k} but found {len(runs)} runs", body[-1][0])
        return ShortPathset(word, tuple(tuple(r) for r in runs))
    k = None
    alphabet = None
    sizes = None
    sets = {}
    for no, line in body:
        parts = line.split()
        if parts[0] == "k":
            (k,) = fields(no, parts, "one count", 1)
        elif parts[0] == "alphabet":
            (alphabet,) = fields(no, parts, "one count", 1)
        elif parts[0] == "states":
            sizes = tuple(fields(no, parts, "component sizes"))
        elif parts[0] == "set":
            i, letter, mask = fields(no, parts, "component letter hex", 3, hex_mask)
            sets[(i, letter)] = mask
        else:
            raise FormatError(f"unknown directive {parts[0]!r}", no)
    if k is None or alphabet is None or sizes is None:
        raise FormatError("cut needs 'k', 'alphabet' and 'states' lines", body[-1][0] if body else 1)
    if len(sizes) != k:
        raise FormatError(f"declared k={k} but 'states' lists {len(sizes)} sizes", body[-1][0])
    ordered = []
    for i in range(k):
        for letter in range(alphabet):
            if (i, letter) not in sets:
                raise FormatError(f"missing 'set {i} {letter}' line", body[-1][0])
            ordered.append(sets[(i, letter)])
    return StaggeredCut(alphabet, sizes, tuple(ordered))


@st.composite
def bundles(draw, max_k: int = 4):
    """Hypothesis bundles: k from 2 to ``max_k`` components of 1-5 states
    over 1-3 letters, with random moves, initial states and finals."""
    k, letters = draw(st.integers(2, max_k)), draw(st.integers(1, 3))
    automata = []
    for _ in range(k):
        n = draw(st.integers(1, 5))
        states = st.integers(0, n - 1)
        moves = draw(st.lists(st.tuples(states, st.integers(0, letters - 1), states), max_size=3 * n * letters))
        # a varying lower bound makes about a third of the bundles non-empty
        finals = draw(st.sets(states, min_size=draw(st.integers(0, n)), max_size=n))
        automata.append(Nfa(n, letters, tuple(moves), draw(states), frozenset(finals)))
    return InstanceBundle(tuple(automata))


def chains(n: int) -> InstanceBundle:
    """Two n-state one-letter chains, final at their ends one apart: empty,
    with about 2n accessible nodding states in an n * n tuple space."""
    def chain(final):
        return Nfa(n, 1, tuple((q, 0, q + 1) for q in range(n - 1)), 0, frozenset({final}))
    return InstanceBundle((chain(n - 1), chain(n - 2)))


def cut_by_walk(bundle: InstanceBundle) -> StaggeredCut:
    """``extract_staggered_cut`` one nodding product state at a time, through
    the ``products.reachable`` walk: the reference the closure's cuts are
    checked against.  Raises ValueError on a non-empty bundle."""
    builder = builder_for("nodding", bundle)
    space = bundle.prepared.space
    k, l = bundle.k, bundle.n_letters
    members = {}  # per copy reached, its tuples
    for sid, _ in reachable(builder):
        if builder.is_final(sid):
            raise ValueError("intersection is non-empty; no staggered cut exists")
        tag, rest = divmod(sid, space.base_size)
        members.setdefault(tag, []).append(rest)
    masks = {tag: space.mask_of(tids) for tag, tids in members.items()}
    volleys = [masks.get(nodding_copy(letter, i, k), 0) for i in range(1, k) for letter in range(l)]
    return StaggeredCut(l, space.sizes, tuple([masks[0]] * l + volleys))


def _witness(parents, final_sid) -> tuple:
    steps = []
    node = final_sid
    while parents[node] is not None:
        prev, lab = parents[node]
        steps.append((prev, lab, node))
        node = prev
    steps.reverse()
    return tuple(steps)


def _search(builder: ProductBuilder) -> Decision:
    """Layered BFS keeping each layer sorted by the word spelled so far.

    Several product states can spell the same prefix; expanding them in plain
    queue order would interleave their next letters and lose the
    lexicographic tie-break.  Instead, every layer is processed as buckets
    keyed by (prefix group, consumed label): discovering states bucket by
    bucket keeps the next layer word-sorted, so the first final state found
    is reached by the lexicographically least among the shortest witnesses,
    matching the brute-force oracle's tie-break exactly.

    Raises BudgetExceeded when more states than ``state_budget()`` would
    be discovered.
    """
    is_final = builder.is_final
    limit = state_budget()
    initial = builder.initial
    if is_final(initial):
        return Decision(False, (), 1, 0)
    parents = {initial: None}
    explored_transitions = 0
    layer = [(0, initial)]
    while layer:
        buckets = {}
        for (group, sid) in layer:
            for (label, dst) in builder.successors(sid):
                explored_transitions += 1
                if dst in parents:
                    continue
                buckets.setdefault((group, label), []).append((sid, label, dst))
        layer = []
        groups = {}
        for key in sorted(buckets):
            for (src, label, dst) in buckets[key]:
                if dst in parents:
                    continue
                if len(parents) >= limit:
                    raise BudgetExceeded.exploring(builder.construction, limit)
                parents[dst] = (src, label)
                if is_final(dst):
                    return Decision(
                        False, _witness(parents, dst), len(parents), explored_transitions
                    )
                layer.append((groups.setdefault(key, len(groups)), dst))
    return Decision(True, None, len(parents), explored_transitions)


def direct_successors_reference(builder, sid: int) -> list:
    """``_DirectBuilder.successors`` as it was before it summed stride-scaled
    target lists: every choice of one target per component through
    ``itertools.product``, each packed by ``ProductSpace.encode``, the list
    sorted.  The reference the direct successors are checked against; it
    takes the builder first, so it also stands in for the method."""
    space = builder.space
    comps = [space.component(sid, i) for i in range(builder.k)]
    letters = [moves_reference(a) for a in builder.prepared.automata]
    out = []
    for letter, moves in letters[0].items():
        if comps[0] in moves:
            lists = [letters[i].get(letter, {}).get(comps[i], ()) for i in range(builder.k)]
            for targets in itertools.product(*lists):
                out.append((letter, space.encode(targets)))
    out.sort()
    return out


def word_relations_reference(letters: dict, max_len: int) -> WordRelations:
    """``products._word_relations`` as it was before it composed relations
    through the moves that enter their rows: every fresh relation, the
    empty one included, pulled through every letter that moves, each
    composition kept in ``step`` even when it is empty.  The reference the
    closure's relation ids, rows, letters and non-zero steps are checked
    against."""
    rows_of: list = []
    ids: Dict[tuple, int] = {}
    fresh: list = []

    def intern(rows: dict) -> int:
        key = (tuple(rows), tuple(rows.values()))
        r = ids.get(key)
        if r is None:
            r = ids[key] = len(rows_of)
            rows_of.append(rows)
            fresh.append(r)
        return r

    bit = (1).__lshift__  # bit(d) == 1 << d; distinct bits sum to their OR
    intern({})  # the empty relation is 0
    first = {}
    lists = _Table(lambda r: {q: set_bits(row) for q, row in rows_of[r].items()})
    for s, moves in letters.items():
        first[s] = intern({q: sum(map(bit, dsts)) for q, dsts in moves.items()})
        lists[first[s]] = moves
    step = {}
    for _ in range(max_len - 1):
        layer, fresh = fresh, []
        for r in layer:
            rows = rows_of[r]
            for s, moves in letters.items():
                out = {}
                for q, dsts in moves.items():
                    row = 0
                    for d in dsts:
                        row |= rows.get(d, 0)
                    if row:
                        out[q] = row
                step[s, r] = intern(out)
    return WordRelations(tuple(rows_of), first, step, lists)


def random_nfa_reference(n_states: int, n_letters: int, density: float, seed) -> Nfa:
    """``hardness.random_nfa`` as it drew before it sampled indices: by
    sampling the listed l * n^2 (src, letter, dst) triples themselves.  The
    reference the index draw is checked against."""
    rng = random.Random(_seed_key(seed))
    universe = [
        (src, letter, dst)
        for src in range(n_states)
        for letter in range(n_letters)
        for dst in range(n_states)
    ]
    transitions = rng.sample(universe, round(density * len(universe)))
    finals = {q for q in range(n_states) if rng.random() < 0.5}
    if not finals:
        finals = {rng.randrange(n_states)}
    return Nfa(n_states, n_letters, tuple(transitions), 0, frozenset(finals))


#: Word encoding the unique 4-clique of :func:`example_clique_graph`,
#: lexicographically least among its encodings.
EXAMPLE_CLIQUE_WORD = (0, 1, 3, 4)


def acceptance_corpus():
    """The seeded random-bundle corpus shared by the acceptance criteria:
    300 bundles over k in {2,3}, n <= 4, l <= 3, density in {.2, .5, 1}."""
    combos = [
        (k, n, l, d)
        for k in (2, 3)
        for n in (2, 3, 4)
        for l in (1, 2, 3)
        for d in (0.2, 0.5, 1.0)
    ]
    corpus = []
    for seed in range(6):
        for ci, (k, n, l, d) in enumerate(combos):
            if len(corpus) == 300:
                return corpus
            name = f"k{k}-n{n}-l{l}-d{d}-s{seed}"
            corpus.append((name, random_bundle(k, n, l, d, (ci, seed))))
    return corpus


def rs_satisfiable_brute_force(
    bundle: InstanceBundle, c: MultiTapeAutomaton, total_len: int
) -> bool:
    """Enumerate all word tuples with summed length <= total_len and test
    them directly against the components and the relation automaton."""
    k = bundle.k
    letters = range(bundle.n_letters)
    for total in range(total_len + 1):
        for split in itertools.product(range(total + 1), repeat=k - 1):
            lengths = list(split)
            used = sum(lengths)
            if used > total:
                continue
            lengths.append(total - used)
            word_choices = [
                list(itertools.product(letters, repeat=length)) for length in lengths
            ]
            for words in itertools.product(*word_choices):
                if not all(accepts(a, w) for a, w in zip(bundle.automata, words)):
                    continue
                if multitape_accepts(c, list(words)):
                    return True
    return False


def capped_cli(cwd, *args, budget=1000):
    """``nfai *args`` in a child process with NFAI_STATE_BUDGET=``budget``,
    a 10 s timeout and about 1 GB of address space, so a run that allocates
    per declared state or letter fails there, not in the test process; the
    run must not end in a traceback."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(nfai.__file__).resolve().parents[1])
    env = dict(os.environ, NFAI_STATE_BUDGET=str(budget),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from nfai.cli import main; sys.exit(main())", *args],
        cwd=cwd, env=env, preexec_fn=cap, capture_output=True, text=True, timeout=10,
    )
    assert "Traceback" not in done.stderr, done.stderr
    return done
