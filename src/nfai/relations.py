"""Multi-tape automata, rational-relation satisfaction, and the reductions
between (k+1)-way intersection emptiness and k-way relation satisfaction.

A k-tape automaton reads one letter from one chosen tape per transition and
accepts a word tuple when a run consumes every tape completely and ends in a
final state.  The relation-satisfaction problem (k-RS) asks whether words
``w_i`` from the languages of k given NFA form a tuple the k-tape automaton
accepts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .automata import InstanceBundle, Nfa
from .products import check_budget


@dataclass(frozen=True)
class MultiTapeAutomaton:
    """One-way k-tape acceptor: transitions are (src, letter, tape, dst)."""

    n_states: int
    n_letters: int
    n_tapes: int
    transitions: tuple
    initial: int
    finals: frozenset

    def __post_init__(self):
        object.__setattr__(
            self,
            "transitions",
            tuple(sorted({(int(s), int(a), int(t), int(d)) for (s, a, t, d) in self.transitions})),
        )
        object.__setattr__(self, "finals", frozenset(int(q) for q in self.finals))
        if self.n_states <= 0:
            raise ValueError("automaton needs at least one state")
        if self.n_tapes < 1:
            raise ValueError("need at least one tape")
        if not (0 <= self.initial < self.n_states):
            raise ValueError("initial state out of range")
        for q in self.finals:
            if not (0 <= q < self.n_states):
                raise ValueError("final state out of range")
        for (src, letter, tape, dst) in self.transitions:
            if not (0 <= src < self.n_states and 0 <= dst < self.n_states):
                raise ValueError("transition state out of range")
            if not (0 <= letter < self.n_letters):
                raise ValueError("transition letter out of range")
            if not (0 <= tape < self.n_tapes):
                raise ValueError("transition tape out of range")

    @property
    def m(self) -> int:
        return len(self.transitions)


def multitape_accepts(c: MultiTapeAutomaton, words: Sequence[Sequence]) -> bool:
    """Bounded brute force: BFS over (state, per-tape head positions).

    Accepts iff some run consumes exactly every word and ends final.  Meant
    as a test oracle for small inputs; the production path for relation
    satisfaction is :func:`rs_to_ie` plus the intersection decider.
    """
    if len(words) != c.n_tapes:
        raise ValueError(f"expected {c.n_tapes} words, got {len(words)}")
    words = [tuple(w) for w in words]
    adjacency = {}
    for (src, letter, tape, dst) in c.transitions:
        adjacency.setdefault(src, []).append((letter, tape, dst))
    lengths = tuple(len(w) for w in words)
    start = (c.initial, (0,) * c.n_tapes)
    seen = {start}
    queue = deque([start])
    while queue:
        state, pos = queue.popleft()
        if state in c.finals and pos == lengths:
            return True
        for (letter, tape, dst) in adjacency.get(state, ()):
            at = pos[tape]
            if at < lengths[tape] and words[tape][at] == letter:
                nxt = (dst, pos[:tape] + (at + 1,) + pos[tape + 1:])
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return False


def equality_relation(k: int, n_letters: int) -> MultiTapeAutomaton:
    """k-tape automaton accepting exactly the tuples (w, w, ..., w).

    One cycle per letter: read the letter on tapes 0..k-1 in order, then
    return to the hub.  1 + (k-1)*n_letters states; its k*n_letters
    transitions are checked against the state budget before any is built.
    """
    if k < 2:
        raise ValueError("equality relation needs at least two tapes")
    check_budget(k * n_letters, f"equality relation has {k * n_letters} transitions")
    # state 0 = hub; state for (letter, j) = 1 + letter*(k-1) + (j-1), j in [1, k-1]
    def mid(letter, j):
        return 1 + letter * (k - 1) + (j - 1)

    transitions = []
    for letter in range(n_letters):
        transitions.append((0, letter, 0, mid(letter, 1)))
        for j in range(1, k - 1):
            transitions.append((mid(letter, j), letter, j, mid(letter, j + 1)))
        transitions.append((mid(letter, k - 1), letter, k - 1, 0))
    return MultiTapeAutomaton(
        n_states=1 + (k - 1) * n_letters,
        n_letters=n_letters,
        n_tapes=k,
        transitions=tuple(transitions),
        initial=0,
        finals=frozenset({0}),
    )


def ie_to_rs(bundle: InstanceBundle) -> Tuple[InstanceBundle, MultiTapeAutomaton]:
    """Turn a (k+1)-automaton intersection instance into a k-tape relation
    instance over the first k automata.

    The k-tape automaton simulates the last NFA while forcing all tapes to
    carry the same word: each original transition becomes a cycle that reads
    the letter on every tape in order, advancing the simulated state only on
    the last tape's read.  The relation is satisfied iff the original
    intersection is non-empty.
    """
    if bundle.k < 3:
        raise ValueError("need at least three automata (the relation instance keeps k >= 2)")
    k = bundle.k - 1
    last = bundle.automata[-1]
    n, l = last.n_states, last.n_letters
    copies = (k - 1) * l * n
    check_budget(copies, f"relation needs {copies} tagged states")
    # base copy: state q -> q; tagged copy (q, letter, i) for i in [1, k-1]
    def tagged(q, letter, i):
        return n + (((i - 1) * l) + letter) * n + q

    transitions = []
    for q in range(n):
        for letter in range(l):
            transitions.append((q, letter, 0, tagged(q, letter, 1)))
    for q in range(n):
        for letter in range(l):
            for i in range(1, k - 1):
                transitions.append((tagged(q, letter, i), letter, i, tagged(q, letter, i + 1)))
    for (src, letter, dst) in last.transitions:
        transitions.append((tagged(src, letter, k - 1), letter, k - 1, dst))
    relation = MultiTapeAutomaton(
        n_states=n + (k - 1) * l * n,
        n_letters=l,
        n_tapes=k,
        transitions=tuple(transitions),
        initial=last.initial,
        finals=last.finals,
    )
    return InstanceBundle(bundle.automata[:-1]), relation


def tagged_letter(letter: int, tape: int, k: int) -> int:
    """Encoding of the pair (letter, tape) in the flattened alphabet."""
    return letter * k + tape


def rs_to_ie(bundle: InstanceBundle, c: MultiTapeAutomaton) -> InstanceBundle:
    """Turn a k-tape relation instance into a (k+1)-automaton intersection
    instance over the tagged alphabet of (letter, tape) pairs.

    Component i keeps its own transitions on letters tagged i and ignores all
    other tags via self-loops; the extra automaton is the k-tape automaton
    with each tape read flattened to the tagged letter.  The intersection is
    non-empty iff the relation instance is satisfiable.
    """
    k = bundle.k
    if c.n_tapes != k:
        raise ValueError(f"relation has {c.n_tapes} tapes but bundle has {k} automata")
    if c.n_letters != bundle.n_letters:
        raise ValueError("relation and bundle use different alphabets")
    l = bundle.n_letters
    loops = sum(a.n_states for a in bundle.automata) * l * (k - 1)
    check_budget(loops, f"components need {loops} tagged self-loops")
    tagged_size = l * k
    components: List[Nfa] = []
    for i, a in enumerate(bundle.automata):
        transitions = [(src, tagged_letter(letter, i, k), dst) for (src, letter, dst) in a.transitions]
        for q in range(a.n_states):
            for letter in range(l):
                for j in range(k):
                    if j != i:
                        transitions.append((q, tagged_letter(letter, j, k), q))
        components.append(Nfa(a.n_states, tagged_size, tuple(transitions), a.initial, a.finals))
    flat = [(src, tagged_letter(letter, tape, k), dst) for (src, letter, tape, dst) in c.transitions]
    components.append(Nfa(c.n_states, tagged_size, tuple(flat), c.initial, c.finals))
    return InstanceBundle(tuple(components))


def decide_rs(bundle: InstanceBundle, c: MultiTapeAutomaton) -> bool:
    """True iff some tuple of component-language words satisfies the relation."""
    from .decision import decide_empty

    return not decide_empty(rs_to_ie(bundle, c)).empty
