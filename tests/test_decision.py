from itertools import groupby
from operator import itemgetter

import pytest
from hypothesis import given, settings

from nfai.automata import InstanceBundle, Nfa, accepts, run_is_accepting, validate_run
from nfai.decision import decide_direct_baseline, decide_empty, witness_word
from nfai.hardness import clique_bundle, random_bundle
from nfai.oracle import bounded_intersection_witness
from nfai import products
from nfai.products import BudgetExceeded, builder_for, materialize

from helpers import (
    EXAMPLE_CLIQUE_WORD, _search, acceptance_corpus, bundles, complete_empty_bundle,
    direct_successors_reference, example_clique_graph,
)


def test_empty_when_some_finals_missing():
    a = Nfa(3, 2, ((0, 0, 1), (1, 1, 2)), 0, frozenset())
    b = Nfa(1, 2, ((0, 0, 0), (0, 1, 0)), 0, frozenset({0}))
    result = decide_empty(InstanceBundle((a, b)))
    assert result.empty
    assert result.witness_run is None
    # exploration is confined to what component 0 can reach
    assert result.explored_states <= 3 * 2 * (2 * 2 - 2 + 1)


def test_example_clique_bundle_nonempty():
    bundle = clique_bundle(example_clique_graph(), 4)
    result = decide_empty(bundle)
    assert not result.empty
    assert witness_word(result) == EXAMPLE_CLIQUE_WORD


def test_empty_word_witness():
    full = Nfa(1, 1, ((0, 0, 0),), 0, frozenset({0}))
    result = decide_empty(InstanceBundle((full, full)))
    assert not result.empty
    assert result.witness_run == ()
    assert witness_word(result) == ()


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(10))
def test_oracle_and_baseline_agreement(k, seed):
    for density in (0.2, 0.5, 1.0):
        bundle = random_bundle(k, 3, 2, density, ("dec", k, seed, density))
        horizon = bundle.max_states ** k
        expected = bounded_intersection_witness(bundle, horizon)
        result = decide_empty(bundle)
        baseline = decide_direct_baseline(bundle)
        assert result.empty == (expected is None)
        assert baseline.empty == result.empty
        if not result.empty:
            assert witness_word(result) == expected  # shortest, lexicographic least


@pytest.mark.parametrize("seed", range(6))
def test_witness_run_validates_and_projects(seed):
    bundle = random_bundle(2, 3, 2, 0.6, ("wit", seed))
    result = decide_empty(bundle)
    if result.empty:
        return
    product = materialize("nodding", bundle)
    word = validate_run(product, result.witness_run)
    assert isinstance(word, tuple)
    assert run_is_accepting(product, result.witness_run)
    assert word == witness_word(result)
    for a in bundle.automata:
        assert accepts(a, word)


def test_explored_transitions_bound():
    for seed in range(5):
        bundle = random_bundle(2, 3, 2, 1.0, ("bound", seed))
        result = decide_empty(bundle)
        k, m, n = bundle.k, bundle.max_transitions, bundle.max_states
        assert result.explored_transitions <= k * m * n ** (k - 1)


def test_dense_exploration_counts():
    # complete transition relations with no final state in component 0, so
    # both searches must close their whole accessible part
    n, l = 4, 2
    a = Nfa(n, l, tuple((p, s, q) for p in range(n) for s in range(l) for q in range(n)), 0, frozenset())
    b = Nfa(n, l, tuple((p, s, q) for p in range(n) for s in range(l) for q in range(n)), 0, frozenset({0}))
    bundle = InstanceBundle((a, b))
    direct = decide_direct_baseline(bundle)
    nodding = decide_empty(bundle)
    m = l * n * n
    assert direct.explored_transitions == l * n ** 4  # per letter, n^2 x n^2 pairings
    assert nodding.explored_transitions == 2 * m * n
    assert direct.explored_transitions > nodding.explored_transitions


def _reference_groups(builder, sid: int) -> list:
    """``direct_successors_reference`` as successor groups: one ``(letter,
    ascending ids)`` entry per letter, in letter order."""
    pairs = direct_successors_reference(builder, sid)
    return [(letter, [dst for _, dst in group]) for letter, group in groupby(pairs, key=itemgetter(0))]


def test_direct_baseline_decides_as_on_the_reference_successors(monkeypatch):
    # the same Decision, witness run and counts included, on the acceptance
    # corpus as with the itertools.product successors it replaced
    corpus = [bundle for _, bundle in acceptance_corpus()]
    decisions = [decide_direct_baseline(bundle) for bundle in corpus]
    monkeypatch.setattr(products._DirectBuilder, "successor_groups", _reference_groups)
    assert [decide_direct_baseline(bundle) for bundle in corpus] == decisions


def _check_baseline_against_search(bundle):
    """The reachable walk against the word-sorted search it replaced, both on
    the direct product: the same answer, both counts when empty, and a valid
    accepting run as short as the search's when not; the walk passes a
    budget of its own state count and refuses one below it."""
    walked = decide_direct_baseline(bundle)
    reference = _search(builder_for("direct", bundle))
    assert walked.empty == reference.empty
    if walked.empty:
        assert walked == reference
    else:
        product = materialize("direct", bundle)
        word = validate_run(product, walked.witness_run)
        assert isinstance(word, tuple) and run_is_accepting(product, walked.witness_run)
        assert len(walked.witness_run) == len(reference.witness_run)
        assert word == witness_word(walked)
        assert all(accepts(a, word) for a in bundle.automata)
    explored = walked.explored_states
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("NFAI_STATE_BUDGET", str(explored))
        assert decide_direct_baseline(bundle) == walked
        if explored > 1:  # the initial state is let in at any budget
            patch.setenv("NFAI_STATE_BUDGET", str(explored - 1))
            with pytest.raises(BudgetExceeded):
                decide_direct_baseline(bundle)


def test_direct_baseline_walk_against_the_search_on_the_corpus():
    for _, bundle in acceptance_corpus():
        _check_baseline_against_search(bundle)


@settings(max_examples=300, deadline=None)
@given(bundles(max_k=3))
def test_direct_baseline_walk_against_the_search_on_random_bundles(bundle):
    _check_baseline_against_search(bundle)


def test_baseline_empty_when_finals_missing():
    a = Nfa(2, 1, ((0, 0, 1),), 0, frozenset())
    b = Nfa(2, 1, ((0, 0, 1),), 0, frozenset({1}))
    assert decide_direct_baseline(InstanceBundle((a, b))).empty


def test_decision_honours_state_budget(monkeypatch):
    bundle = complete_empty_bundle()
    explored = decide_empty(bundle).explored_states
    assert explored > 10
    monkeypatch.setenv("NFAI_STATE_BUDGET", str(explored))
    assert decide_empty(bundle).empty
    monkeypatch.setenv("NFAI_STATE_BUDGET", str(explored - 1))
    with pytest.raises(BudgetExceeded):
        decide_empty(bundle)
    baseline = decide_direct_baseline(bundle).explored_states
    monkeypatch.setenv("NFAI_STATE_BUDGET", str(baseline - 1))
    with pytest.raises(BudgetExceeded):
        decide_direct_baseline(bundle)
