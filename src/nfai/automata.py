"""Core automaton types: NFA, epsilon-NFA, words, runs, and acceptance.

States and letters are dense 0-based indices. Human-readable letter names
exist only in the text file format (see :mod:`nfai.fileformat`); the in-memory
representation is purely numeric so that product-state arithmetic stays cheap.

:class:`Nfa` and :class:`EpsilonNfa` are one record that differs only in
whether epsilon may label a transition.  Each automaton groups its moves
once, on first use, into the by-letter table ``letters``; the product
constructions, the decision and the certificate verifiers all read that
table, not a regrouping of their own.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

from .boolmatrix import BoolMatrix

#: Reserved sentinel label for epsilon transitions. Distinct from every
#: letter index (letters are always >= 0).
EPSILON = -1

Word = tuple[int, ...]
Transition = tuple[int, int, int]  # (src, label, dst)
Run = tuple[Transition, ...]


#: The moves on a label that moves no state, shared; never to be mutated.
_NO_MOVES: dict = {}


@dataclass(frozen=True)
class _Automaton:
    """The record both automaton classes share: the five fields, their
    checks and the by-letter move table.

    ``transitions`` is kept as a sorted, duplicate-free tuple of
    ``(src, label, dst)`` triples, so structural equality of two automata of
    one class is plain dataclass equality; automata of different classes
    never compare equal.
    """

    n_states: int
    n_letters: int
    transitions: tuple
    initial: int
    finals: frozenset

    #: Whether :data:`EPSILON` may label a transition; a class constant.
    epsilon = False

    def __post_init__(self):
        transitions = tuple(sorted({(int(s), int(a), int(t)) for (s, a, t) in self.transitions}))
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "finals", frozenset(int(q) for q in self.finals))
        n, l = self.n_states, self.n_letters
        if n <= 0:
            raise ValueError("automaton needs at least one state")
        if l < 0:
            raise ValueError("alphabet size must be non-negative")
        if not (0 <= self.initial < n):
            raise ValueError(f"initial state {self.initial} out of range [0, {n})")
        for q in self.finals:
            if not (0 <= q < n):
                raise ValueError(f"final state {q} out of range [0, {n})")
        for (src, label, dst) in transitions:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"transition ({src}, {label}, {dst}) has a state out of range")
            if label == EPSILON:
                if not self.epsilon:
                    raise ValueError("epsilon label is not allowed in a plain NFA")
            elif not (0 <= label < l):
                raise ValueError(f"transition ({src}, {label}, {dst}) has a letter out of range")

    @cached_property
    def letters(self) -> dict:
        """The move table ``{label: {state: successor tuple}}``, built in one
        pass over the canonical transitions: labels ascending, so
        :data:`EPSILON` first, and states and successors ascending within
        each label.  A label with no move has no key.  Shared by every
        reader of the automaton; never to be mutated."""
        table: dict = {}
        for (q, s, d) in self.transitions:
            table.setdefault(s, {}).setdefault(q, []).append(d)
        return {s: {q: tuple(dsts) for q, dsts in moves.items()} for s, moves in sorted(table.items())}

    @property
    def m(self) -> int:
        """Number of transitions."""
        return len(self.transitions)

    def successors(self, state: int, label: int) -> tuple:
        return self.letters.get(label, _NO_MOVES).get(state, ())


class Nfa(_Automaton):
    """Nondeterministic finite automaton; no transition is labelled
    :data:`EPSILON`."""


class EpsilonNfa(_Automaton):
    """NFA extended with epsilon transitions (label :data:`EPSILON`)."""

    epsilon = True

    @cached_property
    def epsilon_closures(self):
        """Per-state epsilon closure, as a tuple of frozensets."""
        closures = []
        for start in range(self.n_states):
            seen = {start}
            queue = deque([start])
            while queue:
                q = queue.popleft()
                for nxt in self.successors(q, EPSILON):
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            closures.append(frozenset(seen))
        return tuple(closures)


Automaton = Union[Nfa, EpsilonNfa]


def is_deterministic(a: Automaton) -> bool:
    """True iff ``a`` has no epsilon transitions and at most one outgoing
    transition per (state, letter)."""
    return EPSILON not in a.letters and all(
        len(dsts) == 1 for moves in a.letters.values() for dsts in moves.values())


def _check_word(a: Automaton, word: Sequence) -> Word:
    w = tuple(int(x) for x in word)
    for x in w:
        if not (0 <= x < a.n_letters):
            raise ValueError(f"letter {x} out of range [0, {a.n_letters})")
    return w


def accepts(a: Nfa, word: Sequence) -> bool:
    """Forward subset simulation: does some run of ``a`` on ``word`` end in a
    final state?  The empty word is accepted iff the initial state is final."""
    w = _check_word(a, word)
    current = {a.initial}
    for letter in w:
        current = {dst for q in current for dst in a.successors(q, letter)}
        if not current:
            return False
    return any(q in a.finals for q in current)


def epsilon_accepts(a: Automaton, word: Sequence) -> bool:
    """Subset simulation with epsilon closure applied after the initial state
    and after every consumed letter.  Also works on a plain :class:`Nfa`."""
    w = _check_word(a, word)
    if isinstance(a, EpsilonNfa):
        closures = a.epsilon_closures
        def close(states):
            out = set()
            for q in states:
                out |= closures[q]
            return out
    else:
        def close(states):
            return states
    current = close({a.initial})
    for letter in w:
        current = close({dst for q in current for dst in a.successors(q, letter)})
        if not current:
            return False
    return any(q in a.finals for q in current)


@dataclass(frozen=True)
class RunViolation:
    """First reason a purported run fails to be a run of an automaton.

    ``kind`` is one of ``wrong-start``, ``discontinuity``,
    ``not-a-transition``; ``step`` is the 0-based index of the failing step.
    """

    kind: str
    step: int


def validate_run(a: Automaton, run: Iterable) -> Union[Word, RunViolation]:
    """Check that ``run`` is a run of ``a`` and return the word it spells.

    The word consists of the non-epsilon labels, in order.  An empty run is
    valid and spells the empty word.  On failure a :class:`RunViolation`
    naming the first failing step is returned instead of raising.
    """
    steps = tuple(tuple(step) for step in run)
    word = []
    for i, (src, label, dst) in enumerate(steps):
        if i == 0:
            if src != a.initial:
                return RunViolation("wrong-start", 0)
        elif steps[i - 1][2] != src:
            return RunViolation("discontinuity", i)
        if dst not in a.successors(src, label):
            return RunViolation("not-a-transition", i)
        if label != EPSILON:
            word.append(label)
    return tuple(word)


def adjacency_matrix(a: Automaton, letter: int) -> BoolMatrix:
    """n x n matrix with entry (i, j) = 1 iff (i, letter, j) is a transition."""
    if not (0 <= letter < a.n_letters):
        raise ValueError(f"letter {letter} out of range [0, {a.n_letters})")
    moves = a.letters.get(letter, _NO_MOVES)
    return BoolMatrix.from_pairs(a.n_states, a.n_states, ((q, d) for q, dsts in moves.items() for d in dsts))


def run_is_accepting(a: Automaton, run: Sequence) -> bool:
    """True iff the (assumed valid) run ends in a final state."""
    if not run:
        return a.initial in a.finals
    return run[-1][2] in a.finals


@dataclass(frozen=True)
class InstanceBundle:
    """An intersection-emptiness instance: k >= 2 NFA over a common alphabet."""

    automata: tuple

    def __post_init__(self):
        object.__setattr__(self, "automata", tuple(self.automata))
        if len(self.automata) < 2:
            raise ValueError("a bundle needs at least two automata")
        sizes = {a.n_letters for a in self.automata}
        if len(sizes) != 1:
            raise ValueError(f"bundle automata use different alphabets: {sorted(sizes)}")
        for a in self.automata:
            if not isinstance(a, Nfa):
                raise ValueError("bundle components must be plain NFA (no epsilon transitions)")

    @property
    def k(self) -> int:
        return len(self.automata)

    @property
    def n_letters(self) -> int:
        return self.automata[0].n_letters

    @property
    def max_states(self) -> int:
        return max(a.n_states for a in self.automata)

    @property
    def max_transitions(self) -> int:
        return max(a.m for a in self.automata)

    @cached_property
    def prepared(self):
        """The bundle's tables, built once each: see ``products.PreparedBundle``."""
        from .products import PreparedBundle
        return PreparedBundle(self)
