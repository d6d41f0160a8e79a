"""The reachability core, ``products.reachable``, against the exploration
loop it replaced: a deque-driven BFS numbering states in an index dict.

Every consumer of the core is compared with that reference on the whole
acceptance corpus: ``accessible_part`` and ``accessible_stats`` for all five
constructions, and ``extract_staggered_cut`` on the nodding product.  The
bitmask closure behind ``accessible_stats`` on the four sparse
constructions, ``products.close_table`` on each builder's copy table, is
also compared with the ``reachable`` walk: on Hypothesis bundles, in each
of its two forms forced, and at the state budget's boundary.  The walk
reads each builder's successor groups, whose pairs in order are its
``successors``.
"""

from collections import deque

import pytest
from hypothesis import given, settings

from nfai import products
from nfai.automata import EpsilonNfa, InstanceBundle, Nfa
from nfai.certificates import StaggeredCut, extract_staggered_cut
from nfai.products import (
    CONSTRUCTIONS,
    BudgetExceeded,
    _stats,
    accessible_part,
    accessible_stats,
    builder_for,
    close_table,
    reachable,
    state_budget,
)

from helpers import acceptance_corpus, bundles, chains, complete_empty_bundle

SPARSE = ("nodding", "echoing", "catchup", "leapfrog")


def _explore_reference(builder):
    """Returns (order, index, transitions): discovery order, the state
    numbering, and every accessible transition renumbered."""
    limit = state_budget()
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
    assert all(groups == builder.successor_groups(sid) for sid, groups in visits)


@settings(deadline=None)
@given(bundles(max_k=3))
def test_successors_expand_the_ascending_successor_groups(bundle):
    for construction in CONSTRUCTIONS:
        builder = builder_for(construction, bundle)
        for sid in range(builder.total_states()):
            groups = builder.successor_groups(sid)
            assert builder.successors(sid) == [(label, d) for label, ids in groups for d in ids], (construction, sid)
            assert all(a < b for _, ids in groups for a, b in zip(ids, ids[1:])), (construction, sid)


def test_reachable_budget_boundary(monkeypatch):
    for construction in CONSTRUCTIONS:
        builder = builder_for(construction, complete_empty_bundle())
        accessible = len(list(reachable(builder)))
        monkeypatch.setenv("NFAI_STATE_BUDGET", str(accessible))
        assert len(list(reachable(builder))) == accessible, construction
        monkeypatch.setenv("NFAI_STATE_BUDGET", str(accessible - 1))
        with pytest.raises(BudgetExceeded):
            list(reachable(builder))
        monkeypatch.delenv("NFAI_STATE_BUDGET")


def test_reachable_yields_a_state_before_expanding_it(monkeypatch):
    # the initial state alone is within a budget of 1; a consumer that stops
    # there never discovers its successors, so never hits the budget
    a = Nfa(2, 1, ((0, 0, 1),), 0, frozenset({1}))
    builder = builder_for("nodding", InstanceBundle((a, a)))
    monkeypatch.setenv("NFAI_STATE_BUDGET", "1")
    walk = reachable(builder)
    sid, successors = next(walk)
    assert sid == builder.initial and successors
    with pytest.raises(BudgetExceeded):
        next(walk)


# --- the copy closure behind accessible_stats ----------------------------------------

def _closure(construction, bundle):
    """``close_table`` on the builder's copy table, as ``accessible_stats`` runs it."""
    builder = builder_for(construction, bundle)
    return close_table(builder.moves, builder.prepared, state_budget(), construction)


def _walk_stats(construction, bundle):
    """``accessible_stats`` by the ``reachable`` walk alone."""
    builder = builder_for(construction, bundle)
    visits = [(sid, sum(len(ids) for _, ids in groups)) for sid, groups in reachable(builder)]
    nonempty = any(builder.is_final(sid) for sid, _ in visits)
    return _stats(builder, bundle, len(visits), sum(n for _, n in visits)), nonempty


def _outcome(call):
    try:
        return call()
    except BudgetExceeded as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(bundles(max_k=3))
def test_copy_closure_matches_the_walk_on_random_bundles(bundle):
    for construction in SPARSE:
        fresh = InstanceBundle(bundle.automata)
        assert accessible_stats(construction, fresh) == _walk_stats(construction, bundle), construction


def test_forced_forms_give_the_same_stats(corpus, monkeypatch):
    """``products.SET_STEP_WORDS`` forces sets of tuple ids at every level
    (0), or bitmasks from the first level that moves on (a huge value)."""
    sample = [bundle for _, bundle in corpus[::5]]
    expected = [[_walk_stats(c, b) for c in SPARSE] for b in sample]
    for words, form in ((0, set), (1 << 62, int)):
        monkeypatch.setattr(products, "SET_STEP_WORDS", words)
        assert sum(type(_closure(c, b).met) is form for b in sample for c in SPARSE) > len(sample) * len(SPARSE) * 3 // 4
        assert [[accessible_stats(c, InstanceBundle(b.automata)) for c in SPARSE] for b in sample] == expected


def test_copy_closure_budget_boundary_matches_the_walk(corpus, monkeypatch):
    """At the accessible count both engines pass; at one less both raise the
    same message."""
    closure_runs = 0
    for name, bundle in corpus[::3]:
        for construction in SPARSE:
            accessible = _walk_stats(construction, bundle)[0].states_accessible
            for limit in (accessible, accessible - 1):
                monkeypatch.setenv("NFAI_STATE_BUDGET", str(limit))
                expected = _outcome(lambda: _walk_stats(construction, bundle))
                if accessible > 1:  # the initial state alone is never refused
                    assert isinstance(expected, str) == (limit < accessible)
                got = _outcome(lambda: accessible_stats(construction, InstanceBundle(bundle.automata)))
                monkeypatch.delenv("NFAI_STATE_BUDGET")
                assert got == expected, (name, construction, limit)
                closure_runs += bundle.prepared.space.base_size <= limit  # not handed back
    assert closure_runs > 100


@pytest.mark.parametrize("n, budget", [(3000, None), (50, 2499)])
def test_thin_parts_of_large_spaces_close_by_sets(n, budget, monkeypatch):
    """Two 3000-state chains stay on sets (9,000,000 tuples, under the
    default state budget); two 50-state chains under a budget of 2499 have a
    tuple space over it, though their accessible parts fit, so even a forced
    switch builds no mask."""
    bundle = chains(n)
    if budget is not None:
        monkeypatch.setenv("NFAI_STATE_BUDGET", str(budget))
        monkeypatch.setattr(products, "SET_STEP_WORDS", 1 << 62)
    expected = {c: _walk_stats(c, bundle) for c in SPARSE}
    monkeypatch.setattr(products.ProductSpace, "mask_of", None)
    for construction in SPARSE:
        assert type(_closure(construction, bundle).met) is set
        assert accessible_stats(construction, bundle) == expected[construction]


def test_direct_never_enters_the_copy_closure(corpus, monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("direct entered the copy closure")

    monkeypatch.setattr(products, "close_table", refuse)
    for _, bundle in corpus[::10]:
        assert accessible_stats("direct", bundle) == _walk_stats("direct", bundle)
