"""Intersection-emptiness decision over the accessible part of a product
construction.

The default decider works on the nodding product, whose accessible part is
the sparsest of the constructions; the direct-product baseline walks the
direct product's accessible part with ``products.reachable``.

One closure decides both outcomes.  The closure of the nodding table
(``PreparedBundle.closure``, on ``products.close_table``) holds each set of
reached tuples as a set of tuple ids while the levels are thin and as one
bitmask once they are dense, and grows the base copy a letter layer at a
time, each tuple kept in the first layer that reaches it, until a layer
meets a final tuple.  On an empty instance it alone gives the answer and
both counters.  On a non-empty one, ``_from_layers`` reads the witness run
and the counters off copy 0's layers, in either form.  The run is as short
as possible, which the certificate layer relies on, and the
lexicographically least among the shortest, matching the oracle, with ties
between runs on one word broken by state ids; the counters are those a
breadth-first search with word-sorted layers reports.  ``tests/helpers.py``
keeps that search, one state at a time, as the reference the Decisions are
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata import EPSILON, InstanceBundle, Word
from .products import (
    BudgetExceeded, Closure, builder_for, nodding_copy, reachable, state_budget,
)


@dataclass(frozen=True)
class Decision:
    """Outcome of an emptiness check.

    ``witness_run`` is a run over the product the decision was computed on
    (encoded state ids), present exactly when the intersection is non-empty.
    """

    empty: bool
    witness_run: Optional[tuple]
    explored_states: int
    explored_transitions: int


def witness_word(decision: Decision) -> Word:
    """The word spelled by the witness run (non-epsilon labels)."""
    if decision.witness_run is None:
        raise ValueError("decision has no witness run")
    return tuple(label for (_, label, _) in decision.witness_run if label != EPSILON)


def _inverted(lists: dict) -> dict:
    """``{d: states moving to d}`` from ``{q: states q moves to}``."""
    out: dict = {}
    for q, dsts in lists.items():
        for d in dsts:
            out.setdefault(d, []).append(q)
    return out


def _from_layers(bundle: InstanceBundle, closure: Closure) -> Decision:
    """The Decision on a non-empty instance, read off the nodding closure's
    base layers, one per letter layer.

    Its run is the least shortest accepting run, ordered first by the word
    it spells and then by its state ids from the start.  Its counts are
    those a breadth-first search with word-sorted layers reports on meeting
    that run's final state (the reference in ``tests/helpers.py``): every
    state nearer than the last layer, then the last layer's base tuples
    met up to that run's final one: those whose least word is below the
    witness word W, then those that W reaches through a run below the
    witness run.  Sets co-reachable from the final tuples, computed
    backwards, let W be taken greedily forwards; the same forward pass
    collects the tuples of least word below W, and a walk along W alone
    fixes the run and the tuples below it.  A shortest run passes through
    each layer in turn, so every base set is cut to its layer.  Raises
    BudgetExceeded when that search would.
    """
    prepared = bundle.prepared
    space, letters, layers = prepared.space, prepared.letters, closure.layers
    empty = type(closure.met)  # empty() is a new empty set in the closure's form
    k, last = len(letters), len(layers) - 1
    moving = list(letters[0])  # the letters component 0 moves on, ascending
    inverse = {a: [_inverted(component.get(a, {})) for component in letters] for a in moving}

    def petal(tuples, a: int):
        for i, component in enumerate(letters):
            if not tuples:
                break
            tuples = space.move(tuples, i, component.get(a, {}))
        return tuples

    def back(tuples, a: int):
        for i in range(k - 1, -1, -1):
            if not tuples:
                break
            tuples = space.move(tuples, i, inverse[a][i])
        return tuples

    # coreach[d]: the tuples of layer d that some word of length last - d
    # leads to a final tuple of the last layer
    coreach = [None] * last + [closure.met]
    for d in range(last - 1, 0, -1):
        coreach[d] = empty()
        for a in moving:
            coreach[d] |= back(coreach[d + 1], a)
        coreach[d] &= layers[d]
    # reach: the tuples of layer d that the least word's prefix reaches;
    # below: those whose least word is below that prefix
    word, reach, below = [], layers[0], empty()
    for d in range(last):
        nxt, lower = None, empty()
        for a in moving:
            if nxt is None:
                moved = petal(reach, a) & layers[d + 1]
                if moved & coreach[d + 1]:
                    word.append(a)
                    nxt = moved
                else:
                    lower |= moved
            lower |= petal(below, a)
        reach, below = nxt, lower & layers[d + 1]
    # live[t]: the tuples from which the word's steps from the t-th on, each
    # moving one component, lead to a final tuple of the last layer
    steps = [(i, a) for a in word for i in range(k)]
    live = [closure.met] * (len(steps) + 1)
    for t in range(len(steps) - 1, -1, -1):
        i, a = steps[t]
        live[t] = space.move(live[t + 1], i, inverse[a][i])
        if i == 0:
            live[t] &= layers[t // k]
    base_size = space.base_size

    def sid(t: int, tid: int) -> int:
        return tid if t % k == 0 else nodding_copy(word[t // k], t % k, k) * base_size + tid

    # the run takes the least successor that stays live at each step;
    # earlier: the tuples the word reaches through a run below it so far
    run, earlier, tid = [], empty(), prepared.initial
    for t, (i, a) in enumerate(steps):
        targets = letters[i].get(a, {})
        earlier = space.move(earlier, i, targets) if earlier else earlier
        stride = space.strides[i]
        q = tid // stride % space.sizes[i]
        for state in targets[q]:  # ascending, so their tuples ascend too
            dst = tid + (state - q) * stride
            if live[t + 1] & space.single(dst, earlier):
                break
            earlier |= space.single(dst, earlier)
        if i == k - 1:
            earlier &= layers[(t + 1) // k]
        run.append((sid(t, tid), EPSILON if i else a, sid(t + 1, dst)))
        tid = dst
    explored = closure.states + space.count(below | earlier & layers[last]) + 1
    if explored > max(limit := state_budget(), 1):
        raise BudgetExceeded.exploring("nodding", limit)
    return Decision(False, tuple(run), explored, closure.transitions)


def decide_empty(bundle: InstanceBundle) -> Decision:
    """Decide whether the intersection of the bundle's languages is empty.

    The closure of the nodding table decides.  If it closes the accessible
    part without meeting a final tuple, the instance is empty and the
    closure's counts are the Decision's; otherwise the witness run and the
    counts come from its letter layers.  The run is the least shortest
    accepting run and the counts are those a breadth-first search with
    word-sorted layers reports; BudgetExceeded is raised exactly when that
    search would raise it.  ``tests/helpers.py`` keeps the search as the
    reference.
    """
    closure = bundle.prepared.closure()
    if not closure.met:
        return Decision(True, None, closure.states, closure.transitions)
    return _from_layers(bundle, closure)


def decide_direct_baseline(bundle: InstanceBundle) -> Decision:
    """Same answer by the ``products.reachable`` walk of the direct product.

    The run leads to the first final state the walk visits: shortest, but
    among the shortest not always the least.  The counts are the states
    discovered and the transitions of the states visited before it; on an
    empty instance, the whole accessible part.  Raises BudgetExceeded when
    the walk would discover more than ``state_budget()`` states."""
    builder = builder_for("direct", bundle)
    parents = {builder.initial: None}  # first-seen (parent, label) per state
    transitions = 0
    for sid, groups in reachable(builder):
        if builder.is_final(sid):
            run = []
            while parents[sid] is not None:
                prev, label = parents[sid]
                run.append((prev, label, sid))
                sid = prev
            return Decision(False, tuple(reversed(run)), len(parents), transitions)
        for label, ids in groups:
            transitions += len(ids)
            for dst in ids:
                parents.setdefault(dst, (sid, label))
    return Decision(True, None, len(parents), transitions)
