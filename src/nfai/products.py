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
  window ahead, so copies are set apart by the last k-1 letters only.

The four sparse constructions are one idea wired four ways: numbered
copies of the state-tuple space, set apart by the letters still owed,
joined by volleys that each advance one component through one word
relation into the next copy.  Each is described as data - the volleys
leaving each copy and the states a final tuple of each accepting copy
needs - and ``ProductBuilder`` reads successors, finality and size totals
off that table.  Copies are numbered arithmetically and filled on first
lookup, so a walk builds only the copies it reaches, a witness run's included.

Every sparse construction is also explored a level at a time by one loop,
``close_table``, with one seen set per copy.  While the levels are thin it
holds each set of reached tuples as a Python set of tuple ids, moved member
by member; once they are dense, as one bitmask over the tuple space, moved
through a volley in one masked-shift pass, until the masks have cost more
than sets would have.  On a builder's table it gives
the accessible sizes and finality behind ``accessible_stats``.  On the
nodding table of the prepared bundle, stopped at the first base layer that
meets a final tuple, a single forward pass decides both outcomes: it counts
what the list search would explore, and copy 0's layers hold what the
decision needs to rebuild the witness run.

All constructions share a mixed-radix state encoding with the copy number
most significant and component 0 least significant, so tuples of copy 0
occupy a contiguous prefix of the id space.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from .automata import EPSILON, EpsilonNfa, InstanceBundle, Nfa
from .boolmatrix import set_bits

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

    def check_tuple_budget(self) -> None:
        """Raise BudgetExceeded before any mask over more tuples than the budget."""
        if self.base_size > (limit := state_budget()):
            raise BudgetExceeded(
                f"cut tuple space has {self.base_size} tuples, over the state budget of {limit}")

    def move(self, tuples, i: int, targets: Dict[int, Sequence[int]]):
        """Tuples reached from the set ``tuples`` by moving component i from
        each state q to every state of ``targets[q]``, the other components
        fixed; only the states keyed in ``targets`` are visited.

        On a mask this is the boolean product Out . Δ of the matrix exposing
        component i with the move relation Δ, computed one column at a time:
        column q (the members with component i = q, shifted down to q = 0) is
        a single masked shift, and each move q -> d shifts it back up to d.
        """
        if isinstance(tuples, set):
            return self.move_counting(tuples, i, targets)[0]
        stride = self.strides[i]
        zero = self.zero_masks[i]
        moved = 0
        for q, dsts in targets.items():
            column = (tuples >> (q * stride)) & zero
            if column:
                for d in dsts:
                    moved |= column << (d * stride)
        return moved

    def move_counting(self, tuples, i: int, targets: Dict[int, Sequence[int]]) -> tuple:
        """:meth:`move` plus the number of single moves it stands for (the
        members of each column times the column state's successor count)
        and, on a mask, its passes over the tuple space: one per column taken
        and one per successor of each column that has members."""
        stride = self.strides[i]
        moved = count = 0
        if isinstance(tuples, set):  # member by member
            n = self.sizes[i]
            moves = [tid + (d - q) * stride for tid in tuples if (q := tid // stride % n) in targets for d in targets[q]]
            return set(moves), len(moves), 0
        zero, passes = self.zero_masks[i], len(targets)
        for q, dsts in targets.items():
            column = (tuples >> (q * stride)) & zero
            if column:
                count += column.bit_count() * len(dsts)
                passes += len(dsts)
                for d in dsts:
                    moved |= column << (d * stride)
        return moved, count, passes

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

    # --- thin tuple sets as Python sets of tuple ids -----------------------------
    # Both forms share ``&``, ``|`` and ``^`` (``x ^ (x & y)`` is x without y).

    @staticmethod
    def count(tuples) -> int:
        return len(tuples) if isinstance(tuples, set) else tuples.bit_count()

    @staticmethod
    def single(tid: int, like):
        """The set of the tuple ``tid`` alone, in the form of ``like``."""
        return {tid} if isinstance(like, set) else 1 << tid

    def select(self, tuples, choices: Sequence[Iterable[int]]):
        """The members of ``tuples`` with each component i in ``choices[i]``."""
        if not isinstance(tuples, set):
            return tuples & self.product_mask(choices)
        for stride, n, allowed in zip(self.strides, self.sizes, choices):
            tuples = {tid for tid in tuples if tid // stride % n in allowed}
        return tuples

    def mask_of(self, tuples) -> int:
        """The mask of ``tuples``, a mask or a set of tuple ids.  Fewer than 16
        ids are ORed in ascending order, each OR passing over the bits below
        its id; more are set in one bytearray read as an int once."""
        if isinstance(tuples, int):
            return tuples
        if len(tuples) < 16:
            mask = 0
            for tid in sorted(tuples):
                mask |= 1 << tid
            return mask
        data = bytearray((self.base_size + 7) // 8)
        for tid in tuples:
            data[tid >> 3] |= 1 << (tid & 7)
        return int.from_bytes(data, "little")

    @staticmethod
    def ids_of(tuples) -> set:
        """The set of tuple ids of ``tuples``, a set or a mask."""
        return tuples if isinstance(tuples, set) else set(set_bits(tuples))


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


def _by_letter(a: Nfa) -> tuple:
    """Per letter s, ``{q: successors of q on s}`` for the states q that move.
    The letters with no move share one empty dict, never to be mutated."""
    lists: Dict[int, dict] = {}
    for (q, s), dsts in a.adjacency.items():
        lists.setdefault(s, {})[q] = dsts
    none: dict = {}
    return tuple(lists.get(s, none) for s in range(a.n_letters))


@dataclass(frozen=True)
class WordRelations:
    """One component's relations of the words u with 1 <= |u| <= k, each
    distinct relation once: its transition monoid truncated at length k.

    ``rows[r]`` is relation r as sparse rows of bitmasks: it maps each state
    q that reaches some state to the mask with bit d set iff the relation
    leads from q to d.  ``letters[s]`` is the id of letter s's relation, and
    ``step[s, r]`` the id of the relation of s.u for the words u of relation
    r; it is kept for the letters that move and every relation first reached
    by a word shorter than k, the only ones a word of length <= k extends,
    and a missing entry stands for relation 0, the empty relation.
    ``moving`` lists the letters that move, ascending, and ``lists[r]`` is
    relation r as ``{q: successor tuple}``, built on first use, one dict per
    relation; a letter's dict stands for its relation.
    """

    rows: tuple
    letters: tuple
    step: Dict[Tuple[int, int], int]
    moving: tuple
    lists: dict

    def of(self, word: tuple) -> int:
        """The id of the non-empty ``word``'s relation, through ``step``."""
        r = self.letters[word[-1]]
        for s in reversed(word[:-1]):
            r = self.step.get((s, r), 0)
        return r

    def can_finish(self, finals: frozenset, word: tuple) -> frozenset:
        """The states that reach ``finals`` reading ``word``: the rows of its
        relation that meet the final mask."""
        mask = sum(map((1).__lshift__, finals))
        return frozenset(q for q, row in self.rows[self.of(word)].items() if row & mask) if word else finals


def _word_relations(letters: tuple, max_len: int) -> WordRelations:
    """Close one component's per-letter successor dicts under "prepend a
    letter", breadth first from the letter relations up to length
    ``max_len``: row q of s.u ORs u's rows at the successors of q on s, with
    rows as bitmasks.  A relation is keyed by its rows in ascending state
    order (every dict here inherits the sorted transitions' order), so it is
    composed only at the shortest length where it first appears: the work
    follows the distinct relations, never the l^k words, and only the
    letters that move are composed.  No identity rows for the empty word:
    the cost follows the transitions, not n."""
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
    first = [intern({})] * len(letters)  # the empty relation is 0
    moving = [(s, moves) for s, moves in enumerate(letters) if moves]
    lists = _Table(lambda r: {q: set_bits(row) for q, row in rows_of[r].items()})
    for s, moves in moving:
        first[s] = intern({q: sum(map(bit, dsts)) for q, dsts in moves.items()})
        lists[first[s]] = moves
    step = {}
    for _ in range(max_len - 1):
        layer, fresh = fresh, []
        for r in layer:
            rows = rows_of[r]
            for s, moves in moving:
                out = {}
                for q, dsts in moves.items():
                    row = 0
                    for d in dsts:
                        row |= rows.get(d, 0)
                    if row:
                        out[q] = row
                step[s, r] = intern(out)
    return WordRelations(tuple(rows_of), tuple(first), step, tuple(s for s, _ in moving), lists)


def _fired(prepared: "PreparedBundle") -> list:
    """``fired[i][t]``: the transitions of the volleys moving component i by
    each word of length t, 1 <= t <= k, one per pair of the word's relation
    and setting of the other components.  The words are counted per
    relation over the step table, not listed."""
    space, fired = prepared.space, []
    for relations, n in zip(prepared.relations, space.sizes):
        layers = [Counter(relations.letters[s] for s in relations.moving)]  # words per relation, by length
        for _ in range(len(space.sizes) - 1):
            longer = Counter()
            for r, c in layers[-1].items():
                for s in relations.moving:
                    longer[relations.step.get((s, r), 0)] += c
            layers.append(longer)
        pairs = [sum(map(int.bit_count, rows.values())) for rows in relations.rows]
        fired.append([0] + [space.base_size // n * sum(c * pairs[r] for r, c in words.items()) for words in layers])
    return fired


def m_leq_k(bundle: InstanceBundle) -> int:
    """m_<=k: the largest word-reachability relation over all components and
    words of length <= k, as a count of (source, target) pairs; never
    exceeds n^2.  The maximum is taken over each component's distinct
    relations, its transition monoid truncated at length k
    (``PreparedBundle.relations``), so no table per word is built.  The
    empty word's n pairs are counted, not built."""
    pairs = (sum(map(int.bit_count, rows.values()))
             for relations in bundle.prepared.relations for rows in relations.rows)
    return max(bundle.max_states, max(pairs, default=0))


class _Table(dict):
    """A table filled on first lookup, ``table[key] = fill(key)``; ``fill``
    reads only plain data, so it forms no cycle with its owner."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key: int):
        entry = self[key] = self.fill(key)
        return entry


class PreparedBundle:
    """Per-bundle tables for the builders, the decision, the cut extraction
    and both cut verifiers, kept as ``InstanceBundle.prepared``, each built on
    first use and keyed only by states that move, so they cost what the
    transitions cost, not what n does.  The state budget is never cached:
    the nodding table's closure is kept with the budget it ran under."""

    def __init__(self, bundle: InstanceBundle):
        self.automata = bundle.automata  # not the bundle: no cycle through its cache
        self.space = ProductSpace([a.n_states for a in bundle.automata], 1)  # one copy
        self.initial = self.space.encode([a.initial for a in bundle.automata])
        self._closure = (None, None)  # (state budget, the nodding table's closure)

    def closure(self) -> Closure:
        """:func:`close_table` of the nodding table, stopped at the first
        base layer that meets a final tuple: run once per state budget in
        force; a call that raises BudgetExceeded keeps nothing, so the next
        call under that budget raises again."""
        limit = state_budget()
        if self._closure[0] != limit:
            self._closure = (limit, close_table(self.nodding, self, limit, "nodding", stop=True))
        return self._closure[1]

    @cached_property
    def nodding(self) -> Dict[int, list]:
        """The nodding product's copy table, ``{copy: nodding_volleys(letters,
        copy)}``, numbered by :func:`nodding_copy` and filled on first lookup:
        the closure, the list search and the walk build only the copies they
        reach, so a bundle declaring many letters costs only its moving ones."""
        return _Table(partial(nodding_volleys, self.letters))

    @cached_property
    def final_mask(self) -> int:
        """The final tuples; check the tuple budget before first use."""
        return self.space.product_mask([a.finals for a in self.automata])

    @cached_property
    def letters(self) -> tuple:
        """letters[i][s]: ``{q: successors of q on s}`` in component i."""
        return tuple(_by_letter(a) for a in self.automata)

    @cached_property
    def relations(self) -> tuple:
        """relations[i]: component i's :class:`WordRelations` up to length k."""
        return tuple(_word_relations(letters, len(self.automata)) for letters in self.letters)


#: The closure's switch from sets of tuple ids to bitmasks: a level switches
#: when its members times one plus the last level's moves per member, times
#: this many 64-bit words, exceed the columns it moves times the tuple space's
#: words.  On the seed-7 benchmark instances (2-vCPU VM, Python 3.11), 96 to
#: 192 give the same levels and times but for two parity-split instances; at
#: 64 the sparse k=4 clique switches too late to pay for the conversion (5.2
#: against 3.9 ms), at 32 the dense k=4 clique (18 against 12 ms).
#:
#: The way back prices a set step at four times this many words: a step per
#: move and eight per member.  A closure held as masks adds up each level's
#: passes over the tuple space, in words, less that price of its set steps,
#: never going below 0, and returns to sets for good once the sum exceeds
#: that price per state counted.  No benchmark instance of seeds 7, 8601 and
#: 8602 returns; at half the price the sparse k=4 clique would, and at twice
#: it a complete 200-state block leading into a 60-state chain would keep
#: masks to the end (34 against 6.3 s to decide).
SET_STEP_WORDS = 128


@dataclass(frozen=True)
class Closure:
    """A copy table's accessible part as tuple sets of one form, from :func:`close_table`.

    ``seen[t]`` holds the tuples reached in copy t, for each copy reached.
    ``layers`` holds copy 0's fronts in the order reached, the initial tuple
    first; on the nodding table ``layers[d]`` holds the base tuples first
    reached by a word of length d, at distance ``d * k``.  ``met`` is the
    last layer's meet with the stop mask, empty when the loop never stopped.
    ``states`` counts the states at the levels before the stop level and
    ``transitions`` their moves, as the list walks count them: without a
    stop, the whole accessible part.
    """

    layers: tuple
    seen: dict
    met: Union[set, int]
    states: int
    transitions: int


def close_table(table, prepared: "PreparedBundle", limit: int, name: str,
                stop: bool = False) -> Closure:
    """Close a copy table from the initial tuple in copy 0, one level at a
    time.  ``table[t]`` lists the volleys leaving copy t as ``(component,
    lists, label, next copy)``, as ``ProductBuilder.moves`` does.  In each
    level every copy's front moves through each volley leaving it by
    :meth:`ProductSpace.move_counting`; the landings in a copy are ORed
    together and what that copy has already seen is removed, once per copy.
    With ``stop``, the loop stops at the first level where copy 0's new front
    meets a final tuple.

    Fronts, seen sets and layers start as sets of tuple ids.  At the start
    of a level they all become bitmasks once sets would cost more, and back
    to sets for good once masks have cost too much (``SET_STEP_WORDS``); the
    layers end in the closure's last form.  A tuple space over ``limit``
    stays on sets, so no mask over it is built.  Raises BudgetExceeded for
    the construction ``name`` at the end of a level, the stop level
    excepted, once the counted states exceed ``limit``, the initial state
    alone excepted.
    """
    space = prepared.space
    words = (space.base_size + 63) // 64
    finals = [a.finals for a in prepared.automata]
    seen, fronts, met = {0: {prepared.initial}}, {0: {prepared.initial}}, set()
    layers = [fronts[0]]
    dense, states, transitions, excess, passes = False, 0, 0, 0, 0
    switchable = space.base_size <= limit
    last = (1, 0)  # the last level's members, and the moves counted before it
    while fronts:
        if stop and 0 in fronts:
            met = fronts[0] & prepared.final_mask if dense else space.select(fronts[0], finals)
            if met:
                break
        members = sum(map(space.count, fronts.values()))
        states += members
        if states > max(limit, 1):  # the initial state alone is never refused
            raise BudgetExceeded.exploring(name, limit)
        if switchable:
            if dense:  # the last level's passes, less the price of its set steps
                step = 4 * SET_STEP_WORDS
                excess = max(0, excess + passes * words - step * (8 * last[0] + transitions - last[1]))
                switch = excess > step * states
            else:
                price = members * (last[0] + transitions - last[1]) * SET_STEP_WORDS  # of sets, times last[0]
                switch = words * last[0] < price and 0 < sum(
                    len(lists) for t in fronts for _, lists, _, _ in table[t]) * words * last[0] < price
            if switch:
                dense = switchable = not dense  # back on sets, for good
                form = space.mask_of if dense else space.ids_of
                fronts = {t: form(tuples) for t, tuples in fronts.items()}
                seen = {t: form(tuples) for t, tuples in seen.items()}
        last = (members, transitions)
        landed: dict = {}
        passes = 0
        for t, front in fronts.items():
            for component, lists, _, nxt in table[t]:
                if lists:
                    moved, moves, cost = space.move_counting(front, component, lists)
                    transitions += moves
                    passes += cost
                    if nxt in landed:
                        landed[nxt] |= moved
                    elif moved:
                        landed[nxt] = moved
        fronts = {}
        for t, reached in landed.items():
            old = seen.setdefault(t, type(reached)())
            fresh = reached ^ (reached & old)
            if fresh:
                old |= fresh  # in place for a set
                seen[t], fronts[t] = old, fresh
        if 0 in fronts:
            layers.append(fronts[0])
    form = space.mask_of if dense else space.ids_of
    return Closure(tuple(map(form, layers)), seen, form(met), states, transitions)


class ProductBuilder:
    """Lazy view of one product construction over one bundle, as a table of
    copies and volleys.

    A sparse product is made of copies of the state-tuple space, numbered
    from 0, the copy of the initial tuple; the copy number is the most
    significant digit of a state id.  ``moves[t]`` lists the volleys that
    leave copy t, each as ``(component, lists, label, next copy)``: reading
    ``label``, the component moves from state q to every state of
    ``lists[q]`` (a dict from the prepared bundle, holding only the states
    that move), the other components stay, and the tuple lands in the next
    copy.  ``accept[t]`` gives the states, per component, that a final tuple
    of copy t needs, or None when it never accepts.  Both are filled on
    first lookup.  A copy's volleys come in label order, ties by next copy,
    so successors come out by label, then target id, unsorted.  Search,
    materialization and statistics all read this one table.
    """

    construction: str = ""
    epsilon = False

    def __init__(self, bundle: InstanceBundle, n_copies: int = 1):
        self.prepared = bundle.prepared
        self.k = bundle.k
        self.n_letters = bundle.n_letters
        self.sizes = self.prepared.space.sizes
        self.finals = tuple(a.finals for a in bundle.automata)
        self.space = ProductSpace(self.sizes, n_copies)
        self.initial = self.prepared.initial  # copy 0 starts the id space
        self.accept = _Table({0: self.finals}.get)

    def successors(self, sid: int) -> list:
        space = self.space
        base = space.base_size
        tag, rest = divmod(sid, base)
        out = []
        for comp, lists, label, nxt in self.moves[tag]:
            stride = space.strides[comp]
            q = rest // stride % self.sizes[comp]
            if q in lists:
                offset = nxt * base + rest - q * stride
                for dst in lists[q]:
                    out.append((label, offset + dst * stride))
        return out

    def is_final(self, sid: int) -> bool:
        space = self.space
        tag, rest = divmod(sid, space.base_size)
        accept = self.accept[tag]
        if accept is None:
            return False
        for allowed, stride, n in zip(accept, space.strides, self.sizes):
            if rest // stride % n not in allowed:
                return False
        return True

    def total_states(self) -> int:
        return self.space.total


class _DirectBuilder(ProductBuilder):
    """One copy and no volleys: all components move at once, so the
    successors and the transition count are its own, over the letters that
    component 0 (its state, for the successors) moves on."""

    construction = "direct"

    def __init__(self, bundle: InstanceBundle):
        super().__init__(bundle)
        self.firsts: Dict[int, list] = {}  # per state of component 0, the letters it moves on
        for q, s in bundle.automata[0].adjacency:
            self.firsts.setdefault(q, []).append(s)

    def successors(self, sid: int) -> list:
        space = self.space
        comps = [space.component(sid, i) for i in range(self.k)]
        letters = self.prepared.letters
        out = []
        for letter in self.firsts.get(comps[0], ()):
            lists = [letters[i][letter].get(comps[i], ()) for i in range(self.k)]
            for targets in itertools.product(*lists):
                out.append((letter, space.encode(targets)))
        out.sort()
        return out

    def total_transitions(self) -> int:
        return sum(
            math.prod(sum(map(len, lists[letter].values())) for lists in self.prepared.letters)
            for letter in self.prepared.relations[0].moving
        )


def nodding_volleys(letters: tuple, copy: int, echo: bool = False) -> list:
    """The volleys leaving the nodding product's copy ``copy``, as
    ``(component, lists, label, next copy)`` over the per-component letter
    lists ``letters``.  From the base, component 0 reads each letter it
    moves on into copy (letter, 1); from copy (letter, j), component j moves
    on it by epsilon (by the letter if ``echo``) into (letter, j + 1), the
    last volley back into the base."""
    k = len(letters)
    if copy == 0:
        return [(0, lists, a, nodding_copy(a, 1, k)) for a, lists in enumerate(letters[0]) if lists]
    a, j = nodding_tag(copy, k)
    return [(j, letters[j][a], a if echo else EPSILON, nodding_copy(a, j + 1, k) if j < k - 1 else 0)]


def nodding_copy(letter: int, j: int, k: int) -> int:
    """Position of the nodding product's copy ``(letter, j)``, 1 <= j < k:
    the base copy first, then each letter's petal copies in volley order.
    Computed, not looked up, so the decision and the certificates number
    the copies of a witness run without building a table per letter."""
    return 1 + letter * (k - 1) + j - 1


def nodding_tag(copy: int, k: int) -> tuple:
    """The ``(letter, j)`` tag of the petal copy at position ``copy`` >= 1;
    the inverse of :func:`nodding_copy`."""
    letter, j = divmod(copy - 1, k - 1)
    return letter, j + 1


class _NoddingBuilder(ProductBuilder):
    """A flower of one petal per letter, glued at the base copy, as
    :func:`nodding_volleys` describes it over 1 + l(k-1) copies, sharing the
    prepared bundle's table; the moves after the first of a petal are epsilon."""

    construction = "nodding"
    epsilon = True

    def __init__(self, bundle: InstanceBundle):
        super().__init__(bundle, 1 + bundle.n_letters * (bundle.k - 1))
        letters = self.prepared.letters
        self.moves = self.prepared.nodding if self.epsilon else _Table(partial(nodding_volleys, letters, echo=True))

    def total_transitions(self) -> int:
        # each transition of component i fires once per setting of the others
        base = self.space.base_size
        return sum(a.m * (base // n) for a, n in zip(self.prepared.automata, self.sizes))


class _EchoingBuilder(_NoddingBuilder):
    """The nodding flower with every epsilon move labelled by its petal's
    letter."""

    construction = "echoing"
    epsilon = False


def word_copy(blocks: list, l: int, block: int, word: tuple, j: int = 0) -> int:
    """Position of copy j of ``word`` in ``block`` of a copy layout: each of
    the ``blocks`` (t, c) holds c copies per word of length t, by word in
    lexicographic order, then j.  Computed, so no copy is listed."""
    index = sum(s * l ** p for p, s in enumerate(reversed(word)))
    return sum(c * l ** t for t, c in blocks[:block]) + index * blocks[block][1] + j


def word_tag(blocks: list, l: int, copy: int) -> tuple:
    """``(block, word, j)`` of copy ``copy``; the inverse of :func:`word_copy`."""
    for block, (t, c) in enumerate(blocks):
        if copy < c * l ** t:
            index, j = divmod(copy, c)
            return block, tuple(index // l ** p % l for p in reversed(range(t))), j
        copy -= c * l ** t


def catchup_volleys(blocks: list, relations: tuple, l: int, copy: int) -> list:
    """The volleys leaving catch-up copy ``copy`` whose word relation is not
    empty; from the base by label, then next copy."""
    k = len(relations)
    block, u, j = word_tag(blocks, l, copy)
    if block:
        c = j + 1  # the component that moves next
        r = relations[c].of(u) if c < len(u) else 0
        return [(c, relations[c].lists[r], u[c], 0 if block == 1 and c == k - 1 else copy + 1)] if r else []
    first, volleys = relations[0], []
    words = [((s,), first.letters[s]) for s in first.moving]  # (w, w's relation)
    for t in range(1, k + 1):
        volleys += [(0, first.lists[r], w[0], word_copy(blocks, l, 1 if t == k else 1 + t, w)) for w, r in words]
        words = [((s,) + w, nxt) for s in first.moving for w, r in words if (nxt := first.step[s, r])] if t < k else []
    return sorted(volleys, key=lambda volley: volley[2:])


def catchup_accept(blocks: list, relations: tuple, finals: tuple, l: int, copy: int) -> Optional[tuple]:
    """What a final tuple of catch-up copy ``copy`` needs per component, or
    None: the base's and the last tail copy's accept."""
    block, v, j = word_tag(blocks, l, copy)
    if block == 1 or j + 1 < len(v):  # a petal, or a tail before its last copy
        return None
    return tuple(relations[i].can_finish(finals[i], v if i > j else ()) for i in range(len(finals)))


class _CatchupBuilder(ProductBuilder):
    """From the base copy, one petal per k-letter word u: its copy j moves
    component j by the whole word u, reading ``u[j]``, and the last volley
    returns to the base.  Per shorter word v a tail does the same without
    returning; its last copy j = |v| accepts when the components moved are
    final and the others can finish reading v."""

    construction = "catchup"

    def __init__(self, bundle: InstanceBundle):
        k, l = bundle.k, bundle.n_letters
        self.blocks = [(0, 1), (k, k - 1)] + [(t, t) for t in range(1, k)]  # base, petals, tails by length
        super().__init__(bundle, sum(c * l ** t for t, c in self.blocks))
        self.moves = _Table(partial(catchup_volleys, self.blocks, self.prepared.relations, l))
        self.accept = _Table(partial(catchup_accept, self.blocks, self.prepared.relations, self.finals, l))

    def total_transitions(self) -> int:
        # the base moves component 0 by the words of length <= k, petal copy
        # j component j by those of length k, tail copy j < t by those of t
        k, fired = self.k, _fired(self.prepared)
        return sum(fired[0]) + sum(fired[j][t] for t in range(2, k + 1) for j in range(1, t))


def leapfrog_volleys(blocks: list, relations: tuple, l: int, copy: int) -> list:
    """The volleys leaving leapfrog copy ``copy``, one per letter a whose
    word u.a has a relation that is not empty."""
    k = len(relations)
    block, u, _ = word_tag(blocks, l, copy)
    comp = block if block < k - 1 else block - k + 1
    nxt = len(u) + 1 if len(u) + 1 < k - 1 else k - 1 + (comp + 1) % k
    start = word_copy(blocks, l, nxt, (u + (0,))[1 - k:])  # the next copy after letter 0; after a, a later
    relation = relations[comp]
    return [(comp, relation.lists[r], a, start + a) for a in relation.moving if (r := relation.of(u + (a,)))]


def leapfrog_accept(blocks: list, relations: tuple, finals: tuple, l: int, copy: int) -> tuple:
    """Per component j, the states of leapfrog copy ``copy`` that can finish
    reading the letters j still owes."""
    k = len(relations)
    block, u, _ = word_tag(blocks, l, copy)
    owed = ([u[j + 1:] if j < len(u) else u for j in range(k)] if block < k - 1
            else [u[len(u) - (block - k - j) % k:] for j in range(k)])
    return tuple(relations[j].can_finish(finals[j], owed[j]) for j in range(k))


class _LeapfrogBuilder(ProductBuilder):
    """Components take turns jumping a whole k-letter window ahead.  An
    initialization tree over words u of length <= k-2, in which component
    |u| moves next, leads to the main copies of (i, u): component i moves
    next, and u holds the last k-1 letters read.  A copy accepts when every
    component can finish reading the letters it still owes."""

    construction = "leapfrog"

    def __init__(self, bundle: InstanceBundle):
        k, l = bundle.k, bundle.n_letters
        self.blocks = [(t, 1) for t in range(k - 1)] + [(k - 1, 1)] * k  # tree by |u|, main by i
        super().__init__(bundle, sum(c * l ** t for t, c in self.blocks))
        self.moves = _Table(partial(leapfrog_volleys, self.blocks, self.prepared.relations, l))
        self.accept = _Table(partial(leapfrog_accept, self.blocks, self.prepared.relations, self.finals, l))

    def total_transitions(self) -> int:
        # tree copy u moves component |u| by the words of length |u| + 1,
        # main copy (i, u) component i by those of length k
        k, fired = self.k, _fired(self.prepared)
        return sum(fired[t][t + 1] for t in range(k - 1)) + sum(fired[i][k] for i in range(k))


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
#: (transitions), and m_leq_k: the largest pair count over the distinct
#: relations of each component's transition monoid truncated at length k,
#: and n for the empty word.  Accessible parts obey the same bounds.
SIZE_BOUNDS = {
    "direct": lambda k, l, n, m, mk: (n ** k, m ** k),
    "nodding": lambda k, l, n, m, mk: ((k * l - l + 1) * n ** k, k * m * n ** (k - 1)),
    "echoing": lambda k, l, n, m, mk: ((k * l - l + 1) * n ** k, k * m * n ** (k - 1)),
    # catch-up has 1 + (k-1) l^k + S copies and k l^k + S volleys of at most
    # mk n^(k-1) transitions each, where S = sum over t < k of t l^t.  S is at
    # most (k-1) l^k only for l >= 2; both counts grow with l, so at l = 1
    # they stay below their values at l = 2, where the bound is evaluated.
    "catchup": lambda k, l, n, m, mk: (
        2 * k * max(l, 2) ** k * n ** k,
        2 * k * max(l, 2) ** k * mk * n ** (k - 1),
    ),
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


def materialize(construction: str, bundle: InstanceBundle, budget: Optional[int] = None):
    builder = builder_for(construction, bundle)
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
    reachable, without storing the sub-automaton.

    The four sparse constructions are counted by :func:`close_table` on
    their builders' copy tables: each state is in one front, and each move
    count is the sum of its members' successor lists, so the counts are the
    walk's.  ``direct``, the baseline the sparse sizes are compared with, is
    counted by the ``reachable`` walk, one successor list at a time.  Both
    raise BudgetExceeded in the same cases."""
    builder = builder_for(construction, bundle)
    if construction == "direct":
        visits = [(sid, len(successors)) for sid, successors in reachable(builder, budget)]
        states, transitions = len(visits), sum(n for _, n in visits)
        nonempty = any(builder.is_final(sid) for sid, _ in visits)
    else:
        closure = close_table(builder.moves, builder.prepared, state_budget(budget), construction)
        states, transitions = closure.states, closure.transitions
        nonempty = any(builder.prepared.space.select(tuples, accept)
                       for t, tuples in closure.seen.items() if (accept := builder.accept[t]) is not None)
    return _stats(builder, bundle, states, transitions), nonempty
