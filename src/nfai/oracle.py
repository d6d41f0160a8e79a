"""Independent brute-force references used to validate every construction.

Nothing in this module touches the product builders: the intersection search
walks a tuple of per-automaton reachable state sets, and the bounded language
comparisons determinize automata on the fly.  That structural independence is
the point; these are the oracles the rest of the package is tested against.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import List, Optional, Sequence, Set, Tuple

from .automata import EPSILON, Automaton, EpsilonNfa, InstanceBundle, Word, accepts


def restriction(word: Sequence, i: int, k: int) -> Word:
    """Positions of ``word`` congruent to i modulo k, in order."""
    if not (0 <= i < k):
        raise ValueError(f"need 0 <= i < k, got i={i}, k={k}")
    return tuple(word[i::k])


def interleave(words: Sequence[Sequence]) -> Optional[Word]:
    """Letter-by-letter merge of equally long words (perfect shuffle).

    Position j*k + i of the result is letter j of word i.  Returns None when
    the words do not all have the same length (the merge is undefined then).
    """
    words = [tuple(w) for w in words]
    if len({len(w) for w in words}) > 1:
        return None
    out = []
    for j in range(len(words[0]) if words else 0):
        for w in words:
            out.append(w[j])
    return tuple(out)


def k_stuttering(word: Sequence, k: int) -> Word:
    """Repeat each letter k times, preserving order."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return tuple(x for letter in word for x in (letter,) * k)


def _final_mask(a: Automaton) -> int:
    mask = 0
    for q in a.finals:
        mask |= 1 << q
    return mask


def _letter_masks(a: Automaton) -> List[List[int]]:
    """table[letter][state] = bitmask of successor states."""
    table = [[0] * a.n_states for _ in range(a.n_letters)]
    for (src, label, dst) in a.transitions:
        if label != EPSILON:
            table[label][src] |= 1 << dst
    return table


def _closure_masks(a: Automaton) -> List[int]:
    masks = [1 << q for q in range(a.n_states)]
    if isinstance(a, EpsilonNfa):
        eps = [0] * a.n_states
        for (src, label, dst) in a.transitions:
            if label == EPSILON:
                eps[src] |= 1 << dst
        changed = True
        while changed:
            changed = False
            for q in range(a.n_states):
                acc = masks[q]
                rest = eps[q]
                while rest:
                    low = rest & -rest
                    acc |= masks[low.bit_length() - 1]
                    rest ^= low
                if acc != masks[q]:
                    masks[q] = acc
                    changed = True
    return masks


class DetAcceptor:
    """Deterministic on-the-fly view of an automaton (bitmask state sets).

    ``step`` applies one input letter to a subset state; epsilon closure is
    folded in for epsilon-NFAs.  Used for bounded language comparisons.
    """

    def __init__(self, a: Automaton):
        self.n_letters = a.n_letters
        self._table = _letter_masks(a)
        self._closures = _closure_masks(a)
        self._finals = _final_mask(a)
        self.initial = self._close(1 << a.initial)

    def _close(self, mask: int) -> int:
        acc = 0
        closures = self._closures
        while mask:
            low = mask & -mask
            acc |= closures[low.bit_length() - 1]
            mask ^= low
        return acc

    def step(self, state: int, letter: int) -> int:
        row = self._table[letter]
        moved = 0
        while state:
            low = state & -state
            moved |= row[low.bit_length() - 1]
            state ^= low
        return self._close(moved)

    def accepting(self, state: int) -> bool:
        return bool(state & self._finals)


class BundleAcceptor:
    """Deterministic view of an intersection instance: the state is the tuple
    of per-automaton reachable sets, accepting when every set hits a final."""

    def __init__(self, bundle: InstanceBundle):
        self.n_letters = bundle.n_letters
        self._parts = [DetAcceptor(a) for a in bundle.automata]
        self.initial = tuple(p.initial for p in self._parts)

    def step(self, state, letter: int):
        return tuple(p.step(s, letter) for p, s in zip(self._parts, state))

    def accepting(self, state) -> bool:
        return all(p.accepting(s) for p, s in zip(self._parts, state))


class StutterAcceptor:
    """Accepts exactly the k-stutterings of the words an inner acceptor
    accepts: each length-k block must repeat one letter, and the inner
    acceptor advances once per completed block."""

    def __init__(self, bundle: InstanceBundle, k: Optional[int] = None):
        self._inner = BundleAcceptor(bundle)
        self.k = bundle.k if k is None else k
        self.n_letters = bundle.n_letters
        self.initial = (0, -1, self._inner.initial)
        self._dead = "dead"

    def step(self, state, letter: int):
        if state == self._dead:
            return state
        phase, block_letter, inner = state
        if phase == 0:
            block_letter = letter
        elif letter != block_letter:
            return self._dead
        if phase == self.k - 1:
            return (0, -1, self._inner.step(inner, block_letter))
        return (phase + 1, block_letter, inner)

    def accepting(self, state) -> bool:
        if state == self._dead:
            return False
        phase, _, inner = state
        return phase == 0 and self._inner.accepting(inner)


def _check_horizon(max_len: int) -> None:
    if max_len < 0:
        raise ValueError("max_len must be non-negative")


def difference_witness(acc_a, acc_b, n_letters: int, max_len: int) -> Optional[Word]:
    """Shortest word of length <= max_len accepted by exactly one of two
    deterministic acceptors, or None if they agree on the whole horizon.

    Every word maps to exactly one pair of acceptor states, so a breadth
    first search over reachable state pairs checks all words up to the
    horizon while visiting each pair once (the first visit has the most
    residual depth, which subsumes later visits).
    """
    _check_horizon(max_len)
    start = (acc_a.initial, acc_b.initial)
    if acc_a.accepting(start[0]) != acc_b.accepting(start[1]):
        return ()
    parents = {start: None}
    queue = deque([(start, 0)])
    while queue:
        pair, depth = queue.popleft()
        if depth == max_len:
            continue
        for letter in range(n_letters):
            nxt = (acc_a.step(pair[0], letter), acc_b.step(pair[1], letter))
            if nxt in parents:
                continue
            parents[nxt] = (pair, letter)
            if acc_a.accepting(nxt[0]) != acc_b.accepting(nxt[1]):
                word = []
                node = nxt
                while parents[node] is not None:
                    node, letter = parents[node]
                    word.append(letter)
                return tuple(reversed(word))
            queue.append((nxt, depth + 1))
    return None


def bounded_language(a: Automaton, max_len: int) -> Set[Word]:
    """All words of length <= max_len the automaton accepts (enumeration)."""
    _check_horizon(max_len)
    det = DetAcceptor(a)
    out: Set[Word] = set()

    def walk(prefix: Tuple, state: int, remaining: int):
        if det.accepting(state):
            out.add(prefix)
        if remaining == 0:
            return
        for letter in range(a.n_letters):
            walk(prefix + (letter,), det.step(state, letter), remaining - 1)

    walk((), det.initial, max_len)
    return out


def intersection_search(bundle: InstanceBundle, max_len: int) -> Tuple[Optional[Word], bool]:
    """Core of the intersection oracle.

    Returns ``(witness, closed)``: the shortest word of length <= max_len
    accepted by every automaton (ties broken lexicographically), or None.
    ``closed`` is True when the search exhausted every reachable state tuple
    without hitting the depth cap, i.e. a None answer is definitive for all
    word lengths.
    """
    _check_horizon(max_len)
    acceptor = BundleAcceptor(bundle)
    start = acceptor.initial
    if acceptor.accepting(start):
        return (), True
    parents = {start: None}
    queue = deque([(start, 0)])
    truncated = False
    while queue:
        state, depth = queue.popleft()
        if depth == max_len:
            truncated = True
            continue
        for letter in range(bundle.n_letters):
            nxt = acceptor.step(state, letter)
            if any(mask == 0 for mask in nxt) or nxt in parents:
                continue
            parents[nxt] = (state, letter)
            if acceptor.accepting(nxt):
                word = []
                node = nxt
                while parents[node] is not None:
                    node, letter = parents[node]
                    word.append(letter)
                return tuple(reversed(word)), True
            queue.append((nxt, depth + 1))
    return None, not truncated


def bounded_intersection_witness(bundle: InstanceBundle, max_len: int) -> Optional[Word]:
    """Shortest word of length <= max_len accepted by every automaton in the
    bundle, ties broken by lexicographic letter order; None if there is none.

    Deliberately independent of the product constructions: the search state
    is the tuple of per-automaton reachable state sets.
    """
    return intersection_search(bundle, max_len)[0]


def words_up_to(n_letters: int, max_len: int):
    """All words over the alphabet with length <= max_len, shortest first."""
    for length in range(max_len + 1):
        for word in itertools.product(range(n_letters), repeat=length):
            yield word


def check_interleaving_identity(bundle: InstanceBundle, max_len: int) -> bool:
    """Extensional check, on every word up to the horizon, that membership in
    the intersection matches the self-interleaving route: interleave k copies
    of the word, confirm the blocks are constant (the word lies in the
    stutter language), take the 0-mod-k restriction, and evaluate membership
    component-wise on the restrictions."""
    k = bundle.k
    for word in words_up_to(bundle.n_letters, max_len):
        lhs = all(accepts(a, word) for a in bundle.automata)
        merged = interleave([word] * k)
        assert merged is not None  # equal lengths by construction
        if merged != k_stuttering(word, k):
            return False
        if restriction(merged, 0, k) != word:
            return False
        rhs = all(accepts(a, restriction(merged, i, k)) for i, a in enumerate(bundle.automata))
        if lhs != rhs:
            return False
    return True
