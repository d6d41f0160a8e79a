"""Intersection-emptiness decision by breadth-first search over the
accessible part of a product construction.

The default decider walks the nodding product, whose accessible part is the
sparsest of the constructions; the direct-product decider exists as the
baseline the benchmarks compare against.  Search is breadth-first so that a
returned witness run is as short as possible, which the certificate layer
relies on, and layers are kept word-sorted so the witness is also the
lexicographically least among the shortest, matching the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata import EPSILON, InstanceBundle, Word
from .products import BudgetExceeded, ProductBuilder, builder_for, state_budget


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
    limit = state_budget()
    initial = builder.initial
    if builder.is_final(initial):
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
                if builder.is_final(dst):
                    return Decision(
                        False, _witness(parents, dst), len(parents), explored_transitions
                    )
                layer.append((groups.setdefault(key, len(groups)), dst))
    return Decision(True, None, len(parents), explored_transitions)


def decide_empty(bundle: InstanceBundle) -> Decision:
    """Decide whether the intersection of the bundle's languages is empty.

    Lazy BFS over the nodding product: stops at the first reachable final
    state (non-empty) or after closing the whole accessible part (empty).
    """
    return _search(builder_for("nodding", bundle))


def decide_direct_baseline(bundle: InstanceBundle) -> Decision:
    """Same answer via the direct product's accessible part; kept as the
    baseline for benchmark comparisons."""
    return _search(builder_for("direct", bundle))
