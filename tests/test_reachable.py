"""The reachability core, ``products.reachable``, against the exploration
loop it replaced: a deque-driven BFS numbering states in an index dict.

Every consumer of the core is compared with that reference on the whole
acceptance corpus: ``accessible_part`` and ``accessible_stats`` for all five
constructions, and ``extract_staggered_cut`` on the nodding product.
"""

from collections import deque

import pytest

from nfai.automata import EpsilonNfa, InstanceBundle, Nfa
from nfai.certificates import StaggeredCut, extract_staggered_cut
from nfai.products import (
    CONSTRUCTIONS,
    BudgetExceeded,
    _stats,
    accessible_part,
    accessible_stats,
    builder_for,
    reachable,
    state_budget,
)

from helpers import acceptance_corpus, complete_empty_bundle


def _explore_reference(builder, budget=None):
    """Returns (order, index, transitions): discovery order, the state
    numbering, and every accessible transition renumbered."""
    limit = state_budget(budget)
    index = {builder.initial: 0}
    order = [builder.initial]
    transitions = []
    queue = deque([builder.initial])
    while queue:
        sid = queue.popleft()
        src = index[sid]
        for (label, dst) in builder.successors(sid):
            target = index.get(dst)
            if target is None:
                if len(index) >= limit:
                    raise BudgetExceeded.exploring(builder.construction, limit)
                target = len(index)
                index[dst] = target
                order.append(dst)
                queue.append(dst)
            transitions.append((src, label, target))
    return order, index, transitions


def _cut_from_visited(bundle, order):
    builder = builder_for("nodding", bundle)
    space = builder.space
    k, l = bundle.k, bundle.n_letters
    masks = [0] * space.n_tags
    for sid in order:
        tag, rest = divmod(sid, space.base_size)
        masks[tag] |= 1 << rest
    sets = [masks[0]] * l
    for volley in range(1, k):
        for letter in range(l):
            sets.append(masks[1 + letter * (k - 1) + (volley - 1)])
    return StaggeredCut(l, builder.sizes, tuple(sets))


@pytest.fixture(scope="module")
def corpus():
    return acceptance_corpus()


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_accessible_part_and_stats_match_reference(corpus, construction):
    for name, bundle in corpus:
        builder = builder_for(construction, bundle)
        order, index, transitions = _explore_reference(builder)
        finals = frozenset(index[sid] for sid in order if builder.is_final(sid))
        cls = EpsilonNfa if builder.epsilon else Nfa
        expected = cls(len(order), bundle.n_letters, tuple(transitions), 0, finals)
        expected_stats = _stats(builder, bundle, len(order), len(transitions))

        automaton, stats = accessible_part(construction, bundle)
        assert type(automaton) is cls, name
        assert automaton == expected, name
        assert stats == expected_stats, name

        stats, nonempty = accessible_stats(construction, bundle)
        assert stats == expected_stats, name
        assert nonempty == bool(finals), name


def test_cut_extraction_matches_reference(corpus):
    empties = 0
    for name, bundle in corpus:
        builder = builder_for("nodding", bundle)
        order, _, _ = _explore_reference(builder)
        if any(builder.is_final(sid) for sid in order):
            with pytest.raises(ValueError):
                extract_staggered_cut(bundle)
        else:
            assert extract_staggered_cut(bundle) == _cut_from_visited(bundle, order), name
            empties += 1
    assert 0 < empties < len(corpus)


def test_reachable_yields_discovery_order_with_successors():
    bundle = complete_empty_bundle()
    builder = builder_for("nodding", bundle)
    order, _, _ = _explore_reference(builder)
    visits = list(reachable(builder))
    assert [sid for sid, _ in visits] == order
    assert all(successors == builder.successors(sid) for sid, successors in visits)


def test_reachable_budget_boundary():
    builder = builder_for("nodding", complete_empty_bundle())
    accessible = len(list(reachable(builder)))
    assert len(list(reachable(builder, budget=accessible))) == accessible
    with pytest.raises(BudgetExceeded):
        list(reachable(builder, budget=accessible - 1))


def test_reachable_yields_a_state_before_expanding_it():
    # the initial state alone is within a budget of 1; a consumer that stops
    # there never discovers its successors, so never hits the budget
    a = Nfa(2, 1, ((0, 0, 1),), 0, frozenset({1}))
    builder = builder_for("nodding", InstanceBundle((a, a)))
    walk = reachable(builder, budget=1)
    sid, successors = next(walk)
    assert sid == builder.initial and successors
    with pytest.raises(BudgetExceeded):
        next(walk)
