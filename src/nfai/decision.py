"""Intersection-emptiness decision over the accessible part of a product
construction.

The default decider works on the nodding product, whose accessible part is
the sparsest of the constructions; the direct-product decider exists as the
baseline the benchmarks compare against.

Two engines explore the nodding product.  The word-parallel closure
(``products.nodding_closure``) holds each set of reached tuples as one
bitmask and grows the base copy a letter layer at a time; on an empty
instance it alone gives the answer and both counters.  The list engine,
``_search``, walks the product one state at a time, breadth-first so that
a returned witness run is as short as possible, which the certificate layer
relies on, and with layers kept word-sorted so the witness is also the
lexicographically least among the shortest, matching the oracle.  It finds
the witness of every non-empty instance, told by the closure which tuples
can be final, and it takes the whole decision when the closure's work
guard hands the bundle back: when the tuple space exceeds the state budget,
or the closure's big-int work outgrows the product states it has reached.
The rule is fixed in code; both engines give the same Decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .automata import EPSILON, InstanceBundle, Word
from .products import BudgetExceeded, ProductBuilder, builder_for, nodding_closure, state_budget


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


#: Most final tuples that decide_empty hands the search as a set; more are
#: tested by ``builder.is_final``, which costs no memory per tuple.
_FINAL_SET_LIMIT = 1 << 16


def _members(mask: int) -> frozenset:
    """The positions of the set bits of ``mask``, in time linear in its
    length plus its members."""
    digits = bin(mask)[:1:-1]  # least significant bit first
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return frozenset(out)


def _search(builder: ProductBuilder, is_final: Optional[Callable[[int], bool]] = None) -> Decision:
    """Layered BFS keeping each layer sorted by the word spelled so far.

    Several product states can spell the same prefix; expanding them in plain
    queue order would interleave their next letters and lose the
    lexicographic tie-break.  Instead, every layer is processed as buckets
    keyed by (prefix group, consumed label): discovering states bucket by
    bucket keeps the next layer word-sorted, so the first final state found
    is reached by the lexicographically least among the shortest witnesses,
    matching the brute-force oracle's tie-break exactly.

    ``is_final`` replaces ``builder.is_final`` when the caller already
    knows which states the search can meet as final ones.  Raises
    BudgetExceeded when more states than ``state_budget()`` would be
    discovered.
    """
    is_final = is_final or builder.is_final
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


def decide_empty(bundle: InstanceBundle) -> Decision:
    """Decide whether the intersection of the bundle's languages is empty.

    The word-parallel closure decides first.  If it closes the accessible
    part without meeting a final tuple, the instance is empty and the
    closure's counts are the Decision's.  If it meets final tuples, the
    breadth-first search runs for the witness, testing finality against the
    tuples the closure's last layer met.  If its guard hands the bundle
    back, the search decides alone, as it did before the closure existed.
    Raises BudgetExceeded exactly when the search alone would.
    """
    closure = nodding_closure(bundle.prepared)
    if closure is not None and not closure.finals:
        return Decision(True, None, closure.states, closure.transitions)
    builder = builder_for("nodding", bundle)
    # the search stops at the first final state it meets, one of the base
    # tuples the closure's last layer met: a set lookup beats is_final
    if closure is None or closure.finals.bit_count() > _FINAL_SET_LIMIT:
        return _search(builder)
    return _search(builder, _members(closure.finals).__contains__)


def decide_direct_baseline(bundle: InstanceBundle) -> Decision:
    """Same answer via the direct product's accessible part; kept as the
    baseline for benchmark comparisons."""
    return _search(builder_for("direct", bundle))
