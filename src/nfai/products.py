"""Product constructions for NFA intersection.

Five constructions, each available fully materialized or as an on-the-fly
accessible part:

* ``direct``   - classical Cartesian product; all components fire at once.
* ``nodding``  - epsilon-NFA; component 0 reads the letter, the others catch
  up one at a time via epsilon moves.  A flower of one petal per letter glued
  at a base copy of the state-tuple space; a petal traversal reads one letter.
* ``echoing``  - the nodding skeleton with every epsilon move relabelled with
  the petal letter; accepts exactly the k-stutterings of the intersection.
* ``catchup``  - epsilon-free; one petal per k-letter word, each volley
  advancing one component by the whole word, plus tails for remainders.
* ``leapfrog`` - epsilon-free; components take turns jumping a whole k-letter
  window ahead, so copies are tagged by the last k-1 letters only.

All constructions share a mixed-radix state encoding with the copy tag most
significant and component 0 least significant, so tuples of the tag-0 copy
occupy a contiguous prefix of the id space.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .automata import EPSILON, EpsilonNfa, InstanceBundle, Nfa, adjacency_matrix
from .boolmatrix import BoolMatrix

CONSTRUCTIONS = ("direct", "nodding", "echoing", "catchup", "leapfrog")

DEFAULT_STATE_BUDGET = 10_000_000
STATE_BUDGET_ENV = "NFAI_STATE_BUDGET"


class BudgetExceeded(RuntimeError):
    """Raised when a construction would materialize more states than allowed."""

    @classmethod
    def exploring(cls, construction: str, limit: int) -> "BudgetExceeded":
        return cls(f"accessible part of {construction} exceeds the state budget of {limit}")


def state_budget(explicit: Optional[int] = None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(STATE_BUDGET_ENV)
    return int(env) if env else DEFAULT_STATE_BUDGET


@dataclass(frozen=True)
class ProductStateId:
    """Decoded product state: one state per component plus a copy tag."""

    components: tuple
    copy_tag: object
    encoded: int


class ProductSpace:
    """Mixed-radix packing of (component states, copy tag) into one integer.

    Component 0 is least significant, the tag most significant; decode is the
    exact inverse of encode on every in-range tuple.
    """

    def __init__(self, sizes: Sequence[int], n_tags: int):
        self.sizes = tuple(sizes)
        self.n_tags = n_tags
        strides = []
        acc = 1
        for n in self.sizes:
            strides.append(acc)
            acc *= n
        self.strides = tuple(strides)
        self.base_size = acc  # number of component tuples per copy
        self.total = acc * n_tags

    def encode(self, components: Sequence[int], tag: int = 0) -> int:
        sid = tag * self.base_size
        for q, stride in zip(components, self.strides):
            sid += q * stride
        return sid

    def decode(self, sid: int) -> Tuple[tuple, int]:
        tag, rest = divmod(sid, self.base_size)
        components = []
        for n in self.sizes:
            rest, q = divmod(rest, n)
            components.append(q)
        return tuple(components), tag

    def component(self, sid: int, i: int) -> int:
        return (sid // self.strides[i]) % self.sizes[i]

    # --- tuple sets as bitmasks ------------------------------------------------
    # A set of tuples of one copy is a Python int whose bit ``encode(t)`` is
    # set for each member t.  Component i's value q selects the bits at
    # ``q * strides[i]`` within each period of ``strides[i] * sizes[i]`` bits.

    @cached_property
    def zero_masks(self) -> tuple:
        """Per component i, the mask of the tuples whose component i is 0: a
        run of ``strides[i]`` ones repeated every ``strides[i] * sizes[i]``
        bits.  Shifted left by ``q * strides[i]`` it selects component i = q."""
        return tuple(
            _repeat((1 << stride) - 1, stride * n, self.base_size // (stride * n))
            for stride, n in zip(self.strides, self.sizes)
        )

    def product_mask(self, choices: Sequence[Iterable[int]]) -> int:
        """Mask of the tuples whose component i lies in ``choices[i]`` for
        every i."""
        mask = (1 << self.base_size) - 1
        for zero, stride, allowed in zip(self.zero_masks, self.strides, choices):
            column = 0
            for q in allowed:
                column |= zero << (q * stride)
            mask &= column
        return mask

    def move(self, mask: int, i: int, targets: Sequence[Sequence[int]]) -> int:
        """Tuples reached from the set ``mask`` by moving component i from
        each state q to every state of ``targets[q]``, the other components
        fixed.

        This is the boolean product Out . Δ of the matrix exposing component
        i with the move relation Δ, computed one column at a time: column q
        (the members with component i = q, shifted down to q = 0) is a single
        masked shift, and each move q -> d shifts it back up to d.
        """
        stride = self.strides[i]
        zero = self.zero_masks[i]
        moved = 0
        for q, dsts in enumerate(targets):
            if dsts:
                column = (mask >> (q * stride)) & zero
                if column:
                    for d in dsts:
                        moved |= column << (d * stride)
        return moved

    def first_entry(self, mask: int, i: int) -> Tuple[int, int]:
        """The first member of the non-empty set ``mask`` in row-major order
        of the matrix exposing component i, as ``(row, col)``: the column is
        component i, the row the other components in mixed radix, lowest
        component least significant."""
        stride, n = self.strides[i], self.sizes[i]
        zero = self.zero_masks[i]
        rows = 0
        for q in range(n):
            rows |= (mask >> (q * stride)) & zero
        tid = (rows & -rows).bit_length() - 1
        high, low = divmod(tid, stride * n)
        col = next(q for q in range(n) if (mask >> (tid + q * stride)) & 1)
        return high * stride + low, col


def _repeat(block: int, period: int, count: int) -> int:
    """``count`` copies of ``block`` at ``period``-bit intervals, built by
    doubling: O(log count) big-int operations."""
    out = 0
    while True:
        if count & 1:
            out = (out << period) | block
        count >>= 1
        if not count:
            return out
        block |= block << period
        period *= 2


@dataclass(frozen=True)
class ReachRelation:
    """Pairs of states joined by a path labelled by a fixed word."""

    word: tuple
    matrix: BoolMatrix


def reach_relation(a: Nfa, word: Sequence) -> ReachRelation:
    """Boolean product of the per-letter adjacency matrices of ``word``, in
    order; the identity for the empty word."""
    w = tuple(word)
    matrix = BoolMatrix.identity(a.n_states)
    for letter in w:
        matrix = matrix.mul(adjacency_matrix(a, letter))
    return ReachRelation(w, matrix)


def reach_map(a: Nfa, max_len: int) -> Dict[tuple, BoolMatrix]:
    """Reachability matrices for every word of length <= max_len, computed by
    extending shorter words one letter at a time."""
    letters = [adjacency_matrix(a, s) for s in range(a.n_letters)]
    table: Dict[tuple, BoolMatrix] = {(): BoolMatrix.identity(a.n_states)}
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for u in frontier:
            base = table[u]
            for s in range(a.n_letters):
                table[u + (s,)] = base.mul(letters[s])
                nxt.append(u + (s,))
        frontier = nxt
    return table


def m_leq_k(bundle: InstanceBundle, depth: Optional[int] = None) -> int:
    """Largest word-reachability relation over all components and words of
    length <= depth (default: the bundle's k).  Never exceeds n^2."""
    depth = bundle.k if depth is None else depth
    best = 0
    for a in bundle.automata:
        for matrix in reach_map(a, depth).values():
            best = max(best, matrix.count_ones())
    return best


def _words(n_letters: int, length: int):
    return itertools.product(range(n_letters), repeat=length)


def _adjacency_lists(matrix: BoolMatrix) -> tuple:
    """Per-source sorted successor tuples of a reachability matrix."""
    out = []
    for r in matrix.row_bits:
        dsts = []
        while r:
            low = r & -r
            dsts.append(low.bit_length() - 1)
            r ^= low
        out.append(tuple(dsts))
    return tuple(out)


class ProductBuilder:
    """Lazy view of one product construction over one bundle.

    Exposes the encoded initial state, per-state successor generation (in a
    deterministic order: label ascending, then target id), finality, and
    analytic size totals, so that search, materialization, and statistics all
    share one definition of the automaton.
    """

    construction: str = ""
    epsilon = False

    def __init__(self, bundle: InstanceBundle):
        self.bundle = bundle
        self.k = bundle.k
        self.n_letters = bundle.n_letters
        self.sizes = tuple(a.n_states for a in bundle.automata)
        self._final_sets = [a.finals for a in bundle.automata]
        # adj[i][letter][q]: successors of state q of component i
        self.adj = [
            [[a.successors(q, s) for q in range(a.n_states)] for s in range(self.n_letters)]
            for a in bundle.automata
        ]

    # subclasses set self.space and self.initial and implement these:
    def successors(self, sid: int) -> list:
        raise NotImplementedError

    def is_final(self, sid: int) -> bool:
        raise NotImplementedError

    def total_states(self) -> int:
        return self.space.total

    def total_transitions(self) -> int:
        raise NotImplementedError

    def describe(self, sid: int) -> ProductStateId:
        components, tag = self.space.decode(sid)
        return ProductStateId(components, self.tag_value(tag), sid)

    def tag_value(self, tag_index: int):
        raise NotImplementedError

    def _tuple_final(self, sid: int) -> bool:
        space = self.space
        for i, finals in enumerate(self._final_sets):
            if space.component(sid, i) not in finals:
                return False
        return True


class _DirectBuilder(ProductBuilder):
    construction = "direct"

    def __init__(self, bundle: InstanceBundle):
        super().__init__(bundle)
        self.space = ProductSpace(self.sizes, 1)
        self.initial = self.space.encode([a.initial for a in bundle.automata])

    def successors(self, sid: int) -> list:
        space = self.space
        comps = [space.component(sid, i) for i in range(self.k)]
        out = []
        for letter in range(self.n_letters):
            lists = [self.adj[i][letter][comps[i]] for i in range(self.k)]
            if any(not lst for lst in lists):
                continue
            for targets in itertools.product(*lists):
                out.append((letter, space.encode(targets)))
        out.sort()
        return out

    def is_final(self, sid: int) -> bool:
        return self._tuple_final(sid)

    def tag_value(self, tag_index: int):
        return "base"

    def total_transitions(self) -> int:
        total = 0
        for letter in range(self.n_letters):
            prod = 1
            for a in self.bundle.automata:
                prod *= sum(1 for (_, lab, _) in a.transitions if lab == letter)
            total += prod
        return total


class _PetalBuilder(ProductBuilder):
    """Shared skeleton of the nodding and echoing products: one petal of k
    volleys per letter, glued at a base copy.  Volley 0 reads the letter and
    advances component 0; volley i advances component i.  The two builders
    differ only in the label carried by volleys 1..k-1."""

    def __init__(self, bundle: InstanceBundle):
        super().__init__(bundle)
        # tag 0 = base copy; tag for (letter, volley j in [1, k-1]) follows
        self.space = ProductSpace(self.sizes, 1 + self.n_letters * (self.k - 1))
        self.initial = self.space.encode([a.initial for a in bundle.automata])

    def _tag(self, letter: int, j: int) -> int:
        return 1 + letter * (self.k - 1) + (j - 1)

    def tag_value(self, tag_index: int):
        if tag_index == 0:
            return "base"
        letter, j = divmod(tag_index - 1, self.k - 1)
        return (letter, j + 1)

    def _volley_label(self, letter: int) -> int:
        raise NotImplementedError

    def successors(self, sid: int) -> list:
        space = self.space
        base = space.base_size
        tag, rest = divmod(sid, base)
        out = []
        if tag == 0:
            q0 = rest % self.sizes[0]
            stride = space.strides[0]
            for letter in range(self.n_letters):
                offset = self._tag(letter, 1) * base + rest - q0 * stride
                for dst in self.adj[0][letter][q0]:
                    out.append((letter, offset + dst * stride))
        else:
            letter, j = divmod(tag - 1, self.k - 1)
            j += 1
            qj = (rest // space.strides[j]) % self.sizes[j]
            stride = space.strides[j]
            next_tag = 0 if j == self.k - 1 else tag + 1
            label = self._volley_label(letter)
            offset = next_tag * base + rest - qj * stride
            for dst in self.adj[j][letter][qj]:
                out.append((label, offset + dst * stride))
        return out

    def is_final(self, sid: int) -> bool:
        return sid < self.space.base_size and self._tuple_final(sid)

    def total_transitions(self) -> int:
        base = self.space.base_size
        return sum(a.m * (base // self.sizes[i]) for i, a in enumerate(self.bundle.automata))


class _NoddingBuilder(_PetalBuilder):
    construction = "nodding"
    epsilon = True

    def _volley_label(self, letter: int) -> int:
        return EPSILON


class _EchoingBuilder(_PetalBuilder):
    construction = "echoing"

    def _volley_label(self, letter: int) -> int:
        return letter


class _WordVolleyBuilder(ProductBuilder):
    """Shared machinery for the catch-up and leapfrog products: volleys that
    advance one component by a whole word via precomputed reachability
    relations.  Subclasses lay out the copy tags and wiring."""

    def __init__(self, bundle: InstanceBundle):
        super().__init__(bundle)
        self.rel = [reach_map(a, self.k) for a in bundle.automata]
        self.rel_adj = [
            {u: _adjacency_lists(matrix) for u, matrix in table.items()}
            for table in self.rel
        ]
        # can_finish[i][u]: states of component i that reach a final reading u
        self.can_finish = []
        for i, a in enumerate(bundle.automata):
            fmask = 0
            for q in a.finals:
                fmask |= 1 << q
            table = {}
            for u, matrix in self.rel[i].items():
                table[u] = frozenset(
                    q for q in range(a.n_states) if matrix.row_bits[q] & fmask
                )
            self.can_finish.append(table)

    def _advance(self, sid_rest, comp, word, label, next_tag, out):
        space = self.space
        stride = space.strides[comp]
        q = (sid_rest // stride) % self.sizes[comp]
        offset = next_tag * space.base_size + sid_rest - q * stride
        for dst in self.rel_adj[comp][word][q]:
            out.append((label, offset + dst * stride))


class _CatchupBuilder(_WordVolleyBuilder):
    construction = "catchup"

    def __init__(self, bundle: InstanceBundle):
        super().__init__(bundle)
        k, l = self.k, self.n_letters
        # tags: base, petal copies (u in Sigma^k, volley position 1..k-1),
        # tail copies (v in Sigma^(1..k-1), position 1..|v|)
        self.tags: List[tuple] = [("base",)]
        for u in _words(l, k):
            for j in range(1, k):
                self.tags.append(("petal", u, j))
        for t in range(1, k):
            for v in _words(l, t):
                for j in range(1, t + 1):
                    self.tags.append(("tail", v, j))
        self.tag_index = {tag: i for i, tag in enumerate(self.tags)}
        self.space = ProductSpace(self.sizes, len(self.tags))
        self.initial = self.space.encode([a.initial for a in bundle.automata])

    def tag_value(self, tag_index: int):
        return self.tags[tag_index]

    def successors(self, sid: int) -> list:
        space = self.space
        tag_i, rest = divmod(sid, space.base_size)
        tag = self.tags[tag_i]
        out: list = []
        if tag[0] == "base":
            k, l = self.k, self.n_letters
            for u in _words(l, k):
                self._advance(rest, 0, u, u[0], self.tag_index[("petal", u, 1)], out)
            for t in range(1, k):
                for v in _words(l, t):
                    self._advance(rest, 0, v, v[0], self.tag_index[("tail", v, 1)], out)
        elif tag[0] == "petal":
            _, u, j = tag
            next_tag = 0 if j == self.k - 1 else self.tag_index[("petal", u, j + 1)]
            self._advance(rest, j, u, u[j], next_tag, out)
        else:  # tail
            _, v, j = tag
            if j < len(v):
                self._advance(rest, j, v, v[j], self.tag_index[("tail", v, j + 1)], out)
        out.sort()
        return out

    def is_final(self, sid: int) -> bool:
        space = self.space
        tag_i = sid // space.base_size
        tag = self.tags[tag_i]
        if tag[0] == "base":
            return self._tuple_final(sid)
        if tag[0] == "tail":
            _, v, j = tag
            if j != len(v):
                return False
            for i in range(self.k):
                q = space.component(sid, i)
                if i < j:
                    if q not in self._final_sets[i]:
                        return False
                elif q not in self.can_finish[i][v]:
                    return False
            return True
        return False

    def total_transitions(self) -> int:
        base = self.space.base_size
        total = 0
        for u in _words(self.n_letters, self.k):
            for i in range(self.k):
                total += self.rel[i][u].count_ones() * (base // self.sizes[i])
        for t in range(1, self.k):
            for v in _words(self.n_letters, t):
                for j in range(t):
                    total += self.rel[j][v].count_ones() * (base // self.sizes[j])
        return total


class _LeapfrogBuilder(_WordVolleyBuilder):
    construction = "leapfrog"

    def __init__(self, bundle: InstanceBundle):
        super().__init__(bundle)
        k, l = self.k, self.n_letters
        # tags: an initialization tree over words of length <= k-2 (component
        # |u| is updated next), then main copies (behind component i, last
        # k-1 letters u)
        self.tags: List[tuple] = []
        for t in range(k - 1):
            for u in _words(l, t):
                self.tags.append(("tree", u))
        for i in range(k):
            for u in _words(l, k - 1):
                self.tags.append(("main", i, u))
        self.tag_index = {tag: i for i, tag in enumerate(self.tags)}
        self.space = ProductSpace(self.sizes, len(self.tags))
        self.initial = self.space.encode(
            [a.initial for a in bundle.automata], self.tag_index[("tree", ())]
        )

    def tag_value(self, tag_index: int):
        return self.tags[tag_index]

    def successors(self, sid: int) -> list:
        space = self.space
        tag_i, rest = divmod(sid, space.base_size)
        tag = self.tags[tag_i]
        out: list = []
        k = self.k
        if tag[0] == "tree":
            u = tag[1]
            t = len(u)
            for letter in range(self.n_letters):
                word = u + (letter,)
                if t < k - 2:
                    nxt = self.tag_index[("tree", word)]
                else:
                    nxt = self.tag_index[("main", k - 1, word)]
                self._advance(rest, t, word, letter, nxt, out)
        else:
            _, i, u = tag
            for letter in range(self.n_letters):
                word = u + (letter,)
                nxt = self.tag_index[("main", (i + 1) % k, u[1:] + (letter,))]
                self._advance(rest, i, word, letter, nxt, out)
        out.sort()
        return out

    def is_final(self, sid: int) -> bool:
        space = self.space
        tag_i = sid // space.base_size
        tag = self.tags[tag_i]
        if tag[0] == "tree":
            u = tag[1]
            t = len(u)
            for j in range(self.k):
                q = space.component(sid, j)
                owed = u[j + 1:] if j < t else u
                if q not in self.can_finish[j][owed]:
                    return False
            return True
        _, i, u = tag
        k = self.k
        for j in range(k):
            q = space.component(sid, j)
            owed_len = (i - 1 - j) % k
            owed = u[len(u) - owed_len:] if owed_len else ()
            if q not in self.can_finish[j][owed]:
                return False
        return True

    def total_transitions(self) -> int:
        base = self.space.base_size
        total = 0
        k, l = self.k, self.n_letters
        for t in range(k - 1):
            for u in _words(l, t):
                for letter in range(l):
                    total += self.rel[t][u + (letter,)].count_ones() * (base // self.sizes[t])
        for i in range(k):
            for u in _words(l, k - 1):
                for letter in range(l):
                    total += self.rel[i][u + (letter,)].count_ones() * (base // self.sizes[i])
        return total


_BUILDERS = {
    "direct": _DirectBuilder,
    "nodding": _NoddingBuilder,
    "echoing": _EchoingBuilder,
    "catchup": _CatchupBuilder,
    "leapfrog": _LeapfrogBuilder,
}


def builder_for(construction: str, bundle: InstanceBundle) -> ProductBuilder:
    try:
        cls = _BUILDERS[construction]
    except KeyError:
        raise ValueError(f"unknown construction {construction!r}; choose from {CONSTRUCTIONS}") from None
    return cls(bundle)


#: Per construction, its (states, transitions) size bound as a function of
#: the bundle's k, alphabet size l, largest component n (states) and m
#: (transitions), and m_leq_k.  Accessible parts obey the same bounds.
SIZE_BOUNDS = {
    "direct": lambda k, l, n, m, mk: (n ** k, m ** k),
    "nodding": lambda k, l, n, m, mk: ((k * l - l + 1) * n ** k, k * m * n ** (k - 1)),
    "echoing": lambda k, l, n, m, mk: ((k * l - l + 1) * n ** k, k * m * n ** (k - 1)),
    "catchup": lambda k, l, n, m, mk: (2 * k * l ** k * n ** k, 2 * k * l ** k * mk * n ** (k - 1)),
    "leapfrog": lambda k, l, n, m, mk: (2 * k * l ** (k - 1) * n ** k, 2 * k * l ** k * mk * n ** (k - 1)),
}


@dataclass(frozen=True)
class SparsityStats:
    """Size accounting for one construction on one bundle."""

    construction: str
    k: int
    n_letters: int
    n_states_max: int
    n_transitions_max: int
    states_total: int
    states_accessible: int
    transitions_total: int
    transitions_accessible: int
    m_leq_k: int


STATS_CSV_HEADER = "construction,k,l,n,m,states_acc,trans_acc,m_leq_k"


def stats_csv_row(stats: SparsityStats) -> str:
    return (
        f"{stats.construction},{stats.k},{stats.n_letters},{stats.n_states_max},"
        f"{stats.n_transitions_max},{stats.states_accessible},"
        f"{stats.transitions_accessible},{stats.m_leq_k}"
    )


def _materialize(builder: ProductBuilder, budget: Optional[int]) -> Union[Nfa, EpsilonNfa]:
    total = builder.total_states()
    limit = state_budget(budget)
    if total > limit:
        raise BudgetExceeded(
            f"{builder.construction} product has {total} states, over the budget of {limit}"
        )
    transitions = []
    for sid in range(total):
        for (label, dst) in builder.successors(sid):
            transitions.append((sid, label, dst))
    finals = frozenset(sid for sid in range(total) if builder.is_final(sid))
    cls = EpsilonNfa if builder.epsilon else Nfa
    return cls(total, builder.n_letters, tuple(transitions), builder.initial, finals)


def materialize(construction: str, bundle: InstanceBundle, budget: Optional[int] = None):
    return _materialize(builder_for(construction, bundle), budget)


def direct_product(bundle: InstanceBundle, budget: Optional[int] = None) -> Nfa:
    return materialize("direct", bundle, budget)


def nodding_product(bundle: InstanceBundle, budget: Optional[int] = None) -> EpsilonNfa:
    return materialize("nodding", bundle, budget)


def echoing_product(bundle: InstanceBundle, budget: Optional[int] = None) -> Nfa:
    return materialize("echoing", bundle, budget)


def catchup_product(bundle: InstanceBundle, budget: Optional[int] = None) -> Nfa:
    return materialize("catchup", bundle, budget)


def leapfrog_product(bundle: InstanceBundle, budget: Optional[int] = None) -> Nfa:
    return materialize("leapfrog", bundle, budget)


def reachable(builder: ProductBuilder, budget: Optional[int] = None):
    """Breadth-first walk of the accessible part: yields ``(sid,
    builder.successors(sid))`` for every accessible state in discovery order,
    each before its successors are discovered.  Raises BudgetExceeded on the
    first new state beyond ``state_budget(budget)``."""
    limit = state_budget(budget)
    seen = {builder.initial}
    order = [builder.initial]  # the discovery list doubles as the queue
    for sid in order:
        successors = builder.successors(sid)
        yield sid, successors
        for (_, dst) in successors:
            if dst not in seen:
                if len(seen) >= limit:
                    raise BudgetExceeded.exploring(builder.construction, limit)
                seen.add(dst)
                order.append(dst)


def _stats(builder: ProductBuilder, bundle: InstanceBundle, states_acc: int, trans_acc: int) -> SparsityStats:
    return SparsityStats(
        construction=builder.construction,
        k=bundle.k,
        n_letters=bundle.n_letters,
        n_states_max=bundle.max_states,
        n_transitions_max=bundle.max_transitions,
        states_total=builder.total_states(),
        states_accessible=states_acc,
        transitions_total=builder.total_transitions(),
        transitions_accessible=trans_acc,
        m_leq_k=m_leq_k(bundle),
    )


def accessible_part(
    construction: str, bundle: InstanceBundle, budget: Optional[int] = None
) -> Tuple[Union[Nfa, EpsilonNfa], SparsityStats]:
    """Breadth-first search from the initial state, generating successors
    lazily; unreachable states are never touched.  Returns the reachable
    sub-automaton (states renumbered in discovery order, initial = 0) and
    size statistics."""
    builder = builder_for(construction, bundle)
    # the core discovers states in the order their successor lists are
    # yielded, so numbering each target on first sight reproduces its order
    index = {builder.initial: 0}
    transitions = []
    for src, (_, successors) in enumerate(reachable(builder, budget)):
        for (label, dst) in successors:
            target = index.get(dst)
            if target is None:
                target = index[dst] = len(index)
            transitions.append((src, label, target))
    finals = frozenset(i for sid, i in index.items() if builder.is_final(sid))
    cls = EpsilonNfa if builder.epsilon else Nfa
    automaton = cls(len(index), builder.n_letters, tuple(transitions), 0, finals)
    return automaton, _stats(builder, bundle, len(index), len(transitions))


def accessible_stats(
    construction: str, bundle: InstanceBundle, budget: Optional[int] = None
) -> Tuple[SparsityStats, bool]:
    """Counting-only exploration: statistics plus whether any final state is
    reachable, without storing the sub-automaton."""
    builder = builder_for(construction, bundle)
    visits = [(sid, len(successors)) for sid, successors in reachable(builder, budget)]
    nonempty = any(builder.is_final(sid) for sid, _ in visits)
    return _stats(builder, bundle, len(visits), sum(n for _, n in visits)), nonempty
