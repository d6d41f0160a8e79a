import pytest
from hypothesis import given
from hypothesis import strategies as st

from nfai.automata import InstanceBundle, Nfa, accepts
from nfai.hardness import clique_bundle, random_bundle
from nfai.oracle import (
    BundleAcceptor,
    DetAcceptor,
    StutterAcceptor,
    bounded_intersection_witness,
    bounded_language,
    check_interleaving_identity,
    difference_witness,
    interleave,
    intersection_search,
    k_stuttering,
    restriction,
)

from helpers import EXAMPLE_CLIQUE_WORD, all_words, example_clique_graph


# --- word operations ---------------------------------------------------------

def test_restriction_examples():
    assert restriction((0, 1, 2, 3, 4, 5), 0, 2) == (0, 2, 4)
    assert restriction((0, 1, 2, 3, 4, 5), 1, 3) == (1, 4)
    assert restriction((), 0, 2) == ()
    assert restriction((0,), 3, 5) == ()
    with pytest.raises(ValueError):
        restriction((0, 1), 2, 2)


def test_interleave_examples():
    assert interleave([(0, 1), (2, 3)]) == (0, 2, 1, 3)
    assert interleave([(0,), (1, 2)]) is None
    assert interleave([(), (), ()]) == ()


def test_k_stuttering_examples():
    assert k_stuttering((0, 1), 2) == (0, 0, 1, 1)
    assert k_stuttering((), 7) == ()
    assert k_stuttering((0, 1, 2), 3) == (0, 0, 0, 1, 1, 1, 2, 2, 2)
    with pytest.raises(ValueError):
        k_stuttering((0,), 0)


words = st.lists(st.integers(0, 4), max_size=6).map(tuple)


@given(st.lists(words, min_size=2, max_size=4))
def test_restriction_inverts_interleave(ws):
    k = len(ws)
    merged = interleave(ws)
    if merged is None:
        assert len({len(w) for w in ws}) > 1
    else:
        for i in range(k):
            assert restriction(merged, i, k) == ws[i]


@given(words, st.integers(2, 4))
def test_self_interleaving_is_stuttering(w, k):
    assert interleave([w] * k) == k_stuttering(w, k)


# --- bounded intersection witness --------------------------------------------

def test_witness_none_when_some_finals_empty():
    a = Nfa(1, 1, ((0, 0, 0),), 0, frozenset({0}))
    b = Nfa(1, 1, ((0, 0, 0),), 0, frozenset())
    assert bounded_intersection_witness(InstanceBundle((a, b)), 5) is None


def test_witness_empty_word_for_trivial_acceptors():
    full = Nfa(1, 2, ((0, 0, 0), (0, 1, 0)), 0, frozenset({0}))
    assert bounded_intersection_witness(InstanceBundle((full, full)), 5) == ()


def test_witness_example_clique_bundle():
    bundle = clique_bundle(example_clique_graph(), 4)
    assert bounded_intersection_witness(bundle, 4) == EXAMPLE_CLIQUE_WORD


def test_witness_is_shortest_then_lexicographic():
    # accepts {1, 01}; partner accepts everything: witness must be (1,)
    a = Nfa(3, 2, ((0, 1, 2), (0, 0, 1), (1, 1, 2)), 0, frozenset({2}))
    full = Nfa(1, 2, ((0, 0, 0), (0, 1, 0)), 0, frozenset({0}))
    assert bounded_intersection_witness(InstanceBundle((a, full)), 4) == (1,)


@pytest.mark.parametrize("seed", range(8))
def test_witness_matches_word_enumeration(seed):
    bundle = random_bundle(2, 3, 2, 0.35, ("oracle", seed))
    expected = next(
        (w for w in all_words(2, 8) if all(accepts(a, w) for a in bundle.automata)),
        None,
    )
    assert bounded_intersection_witness(bundle, 8) == expected


def test_intersection_search_closure_flag():
    # no common word at all: search closes and says so
    a = Nfa(1, 1, ((0, 0, 0),), 0, frozenset({0}))
    b = Nfa(2, 1, ((0, 0, 1),), 0, frozenset({1}))  # accepts only "0"
    c = Nfa(2, 1, ((0, 0, 1), (1, 0, 0)), 0, frozenset({0}))  # even lengths
    witness, closed = intersection_search(InstanceBundle((b, c)), 6)
    assert witness is None and closed
    # depth cap too small to find the witness and too small to close
    long_chain = Nfa(5, 1, tuple((i, 0, i + 1) for i in range(4)), 0, frozenset({4}))
    witness, closed = intersection_search(InstanceBundle((long_chain, a)), 2)
    assert witness is None and not closed


def test_the_searches_refuse_a_negative_horizon():
    # two one-letter NFAs whose shortest common word is 0
    a = Nfa(2, 1, ((0, 0, 1),), 0, frozenset({1}))
    bundle = InstanceBundle((a, a))
    assert intersection_search(bundle, 1) == ((0,), True)
    with pytest.raises(ValueError, match="max_len must be non-negative"):
        intersection_search(bundle, -1)
    with pytest.raises(ValueError, match="max_len must be non-negative"):
        bounded_intersection_witness(bundle, -1)


def test_difference_witness_refuses_a_negative_horizon():
    a = Nfa(2, 1, ((0, 0, 1),), 0, frozenset({1}))
    empty = Nfa(1, 1, (), 0, frozenset())
    assert difference_witness(DetAcceptor(a), DetAcceptor(empty), 1, 1) == (0,)
    with pytest.raises(ValueError, match="max_len must be non-negative"):
        difference_witness(DetAcceptor(a), DetAcceptor(empty), 1, -1)


def test_bounded_language_refuses_a_negative_horizon():
    a = Nfa(2, 1, ((0, 0, 1),), 0, frozenset({1}))
    assert bounded_language(a, 0) == set() and bounded_language(a, 1) == {(0,)}
    with pytest.raises(ValueError, match="max_len must be non-negative"):
        bounded_language(a, -1)


# --- interleaving identity ----------------------------------------------------

def test_interleaving_identity_symmetric_bundle():
    a = Nfa(2, 2, ((0, 0, 1), (1, 1, 0)), 0, frozenset({0}))
    assert check_interleaving_identity(InstanceBundle((a, a, a)), 6)


@pytest.mark.parametrize("seed", range(4))
def test_interleaving_identity_random_bundles(seed):
    bundle = random_bundle(2, 3, 2, 0.5, ("ident", seed))
    assert check_interleaving_identity(bundle, 8)


def test_interleaving_identity_disjoint_languages():
    only_a = Nfa(2, 2, ((0, 0, 1),), 0, frozenset({1}))
    only_b = Nfa(2, 2, ((0, 1, 1),), 0, frozenset({1}))
    assert check_interleaving_identity(InstanceBundle((only_a, only_b)), 5)


# --- bounded equivalence machinery --------------------------------------------

def test_difference_witness_finds_shortest_difference():
    # language {0} vs {0, 00}
    a = Nfa(2, 1, ((0, 0, 1),), 0, frozenset({1}))
    b = Nfa(3, 1, ((0, 0, 1), (1, 0, 2)), 0, frozenset({1, 2}))
    assert difference_witness(DetAcceptor(a), DetAcceptor(b), 1, 5) == (0, 0)
    assert difference_witness(DetAcceptor(a), DetAcceptor(a), 1, 5) is None


def test_difference_witness_respects_horizon():
    a = Nfa(2, 1, ((0, 0, 1),), 0, frozenset({1}))
    b = Nfa(3, 1, ((0, 0, 1), (1, 0, 2)), 0, frozenset({1, 2}))
    assert difference_witness(DetAcceptor(a), DetAcceptor(b), 1, 1) is None


@pytest.mark.parametrize("seed", range(6))
def test_difference_witness_agrees_with_enumeration(seed):
    b0 = random_bundle(2, 3, 2, 0.4, ("diff", seed, 0))
    b1 = random_bundle(2, 3, 2, 0.4, ("diff", seed, 1))
    lang0 = {
        w
        for w in all_words(2, 6)
        if all(accepts(a, w) for a in b0.automata)
    }
    lang1 = {
        w
        for w in all_words(2, 6)
        if all(accepts(a, w) for a in b1.automata)
    }
    witness = difference_witness(BundleAcceptor(b0), BundleAcceptor(b1), 2, 6)
    if lang0 == lang1:
        assert witness is None
    else:
        assert witness is not None
        assert (witness in lang0) != (witness in lang1)
        assert len(witness) == min(len(w) for w in lang0 ^ lang1)


def test_bounded_language_matches_accepts():
    bundle = random_bundle(2, 3, 2, 0.5, "lang")
    a = bundle.automata[0]
    assert bounded_language(a, 5) == {w for w in all_words(2, 5) if accepts(a, w)}


def test_stutter_acceptor():
    bundle = random_bundle(2, 3, 2, 0.6, "stut")
    acc = StutterAcceptor(bundle)
    intersection = {
        w for w in all_words(2, 3) if all(accepts(a, w) for a in bundle.automata)
    }
    for w in all_words(2, 6):
        state = acc.initial
        for letter in w:
            state = acc.step(state, letter)
        expected = len(w) % 2 == 0 and all(
            w[i] == w[i + 1] for i in range(0, len(w), 2)
        ) and tuple(w[::2]) in intersection
        assert acc.accepting(state) == expected
