import dataclasses
import random

import pytest
from hypothesis import given, settings

from nfai.automata import (
    EPSILON,
    EpsilonNfa,
    InstanceBundle,
    Nfa,
    RunViolation,
    accepts,
    adjacency_matrix,
    epsilon_accepts,
    is_deterministic,
    validate_run,
)
from nfai.hardness import clique_to_dfas, random_nfa
from nfai.products import accessible_part, materialize

from helpers import (
    EXAMPLE_CLIQUE_WORD,
    aa_bb_cc_star,
    acceptance_corpus,
    all_words,
    bundles,
    example_clique_graph,
    is_deterministic_reference,
    moves_reference,
    validate_run_reference,
)


def test_accepts_aa_bb_cc_star():
    a = aa_bb_cc_star()
    assert accepts(a, (0, 0, 1, 1))  # "aabb"
    assert accepts(a, ())
    assert not accepts(a, (0, 1))
    assert not accepts(a, (0,))


def test_accepts_empty_word_iff_initial_final():
    yes = Nfa(2, 1, ((0, 0, 1),), 0, frozenset({0}))
    no = Nfa(2, 1, ((0, 0, 1),), 0, frozenset({1}))
    assert accepts(yes, ())
    assert not accepts(no, ())


def test_accepts_example_clique_dfa():
    a0 = clique_to_dfas(example_clique_graph(), 4)[0]
    assert accepts(a0, EXAMPLE_CLIQUE_WORD)


def test_accepts_letter_out_of_range():
    a = Nfa(1, 2, (), 0, frozenset({0}))
    with pytest.raises(ValueError):
        accepts(a, (2,))


def test_epsilon_accepts_trivial_cases():
    single = EpsilonNfa(1, 1, (), 0, frozenset({0}))
    assert epsilon_accepts(single, ())
    closure = EpsilonNfa(2, 1, ((0, EPSILON, 1),), 0, frozenset({1}))
    assert epsilon_accepts(closure, ())


def test_epsilon_accepts_nodding_product_cross_check():
    graph = example_clique_graph()
    dfas = clique_to_dfas(graph, 4)
    bundle = InstanceBundle((dfas[0], dfas[1]))
    product = materialize("nodding", bundle)
    word = EXAMPLE_CLIQUE_WORD
    assert epsilon_accepts(product, word) == (accepts(dfas[0], word) and accepts(dfas[1], word))
    assert epsilon_accepts(product, word)


def _runs_of_length(a, length):
    """Depth-first enumeration of all runs with exactly `length` steps."""
    def extend(state, steps):
        if len(steps) == length:
            yield tuple(steps)
            return
        for (src, label, dst) in a.transitions:
            if src == state:
                yield from extend(dst, steps + [(src, label, dst)])

    yield from extend(a.initial, [])


@pytest.mark.parametrize("seed", range(6))
def test_subset_simulation_equals_run_enumeration(seed):
    a = random_nfa(4, 2, 0.4, ("runs", seed))
    for word in all_words(2, 6):
        by_runs = any(
            tuple(label for (_, label, _) in run) == word and (run[-1][2] if run else a.initial) in a.finals
            for run in _runs_of_length(a, len(word))
        )
        assert accepts(a, word) == by_runs


def test_validate_run_empty():
    a = aa_bb_cc_star()
    assert validate_run(a, ()) == ()


def test_validate_run_spells_word():
    a0 = clique_to_dfas(example_clique_graph(), 4)[0]
    run = []
    state = a0.initial
    for letter in EXAMPLE_CLIQUE_WORD:
        (dst,) = a0.successors(state, letter)
        run.append((state, letter, dst))
        state = dst
    assert validate_run(a0, run) == EXAMPLE_CLIQUE_WORD
    assert run[-1][2] in a0.finals


def test_validate_run_violations():
    a = Nfa(3, 2, ((0, 0, 1), (1, 1, 2)), 0, frozenset({2}))
    assert validate_run(a, (((1, 1, 2)),)) == RunViolation("wrong-start", 0)
    assert validate_run(a, ((0, 0, 1), (0, 0, 1))) == RunViolation("discontinuity", 1)
    assert validate_run(a, ((0, 1, 1),)) == RunViolation("not-a-transition", 0)
    assert validate_run(a, ((0, 0, 1), (1, 0, 2))) == RunViolation("not-a-transition", 1)


def test_adjacency_matrix_zero_and_self_loop():
    a = Nfa(2, 2, ((0, 1, 0),), 0, frozenset())
    zero = adjacency_matrix(a, 0)
    assert zero.count_ones() == 0
    loop = adjacency_matrix(a, 1)
    assert loop.get(0, 0) == 1 and loop.count_ones() == 1
    with pytest.raises(ValueError):
        adjacency_matrix(a, 2)


def test_adjacency_matrix_example_clique_dfa():
    graph = example_clique_graph()
    a0 = clique_to_dfas(graph, 4)[0]
    mat = adjacency_matrix(a0, 0)
    expected = {(src, dst) for (src, label, dst) in a0.transitions if label == 0}
    assert set(mat.pairs()) == expected


def test_adjacency_matrices_biject_with_transitions():
    a = random_nfa(4, 3, 0.5, "biject")
    total = sum(adjacency_matrix(a, letter).count_ones() for letter in range(3))
    assert total == a.m


def test_transitions_are_deduplicated_and_sorted():
    a = Nfa(2, 1, ((1, 0, 0), (0, 0, 1), (1, 0, 0)), 0, frozenset({1}))
    assert a.transitions == ((0, 0, 1), (1, 0, 0))


def test_structural_equality():
    a = Nfa(2, 1, ((0, 0, 1),), 0, frozenset({1}))
    b = Nfa(2, 1, ((0, 0, 1),), 0, {1})
    assert a == b


def test_index_validation():
    with pytest.raises(ValueError):
        Nfa(2, 1, ((0, 0, 2),), 0, frozenset())
    with pytest.raises(ValueError):
        Nfa(2, 1, (), 2, frozenset())
    with pytest.raises(ValueError):
        Nfa(2, 1, ((0, EPSILON, 1),), 0, frozenset())
    # epsilon is fine in an EpsilonNfa, other bad letters are not
    EpsilonNfa(2, 1, ((0, EPSILON, 1),), 0, frozenset())
    with pytest.raises(ValueError):
        EpsilonNfa(2, 1, ((0, 5, 1),), 0, frozenset())


def test_is_deterministic():
    assert is_deterministic(Nfa(2, 1, ((0, 0, 1),), 0, frozenset()))
    assert not is_deterministic(Nfa(2, 1, ((0, 0, 1), (0, 0, 0)), 0, frozenset()))
    assert not is_deterministic(EpsilonNfa(2, 1, ((0, EPSILON, 1),), 0, frozenset()))


def test_bundle_requires_common_alphabet():
    a = Nfa(1, 1, (), 0, frozenset({0}))
    b = Nfa(1, 2, (), 0, frozenset({0}))
    with pytest.raises(ValueError):
        InstanceBundle((a, b))
    with pytest.raises(ValueError):
        InstanceBundle((a,))


# --- the move table and the shared record ----------------------------------------

def _table_cases() -> list:
    """The acceptance corpus's automata, then the nodding accessible parts
    (epsilon-NFAs) of every tenth of its bundles."""
    corpus = [bundle for _, bundle in acceptance_corpus()]
    automata = [a for bundle in corpus for a in bundle.automata]
    return automata + [accessible_part("nodding", bundle)[0] for bundle in corpus[::10]]


def _check_table(a) -> None:
    """``a.letters`` and ``a.successors`` against a grouping of the
    transitions done here, key order included, for every state and every
    label: EPSILON and the labels without moves too."""
    want = moves_reference(a)
    assert a.letters == want
    assert list(a.letters) == list(want)
    assert all(list(a.letters[s]) == list(moves) for s, moves in want.items())
    for q in range(a.n_states):
        for s in range(EPSILON, a.n_letters):
            assert a.successors(q, s) == want.get(s, {}).get(q, ())


def _mutated_runs(a, rng: random.Random) -> list:
    """A random run of ``a`` of up to four steps, its prefixes, and every
    run that changes one field of one of its steps to another state or
    label: each RunViolation kind among them wherever ``a`` allows it."""
    run, q = [], a.initial
    for _ in range(4):
        moves = [t for t in a.transitions if t[0] == q]
        if not moves:
            break
        run.append(rng.choice(moves))
        q = run[-1][2]
    runs = [run[:i] for i in range(len(run) + 1)]
    for i, step in enumerate(run):
        for field, values in ((0, range(a.n_states)), (1, range(EPSILON, a.n_letters)), (2, range(a.n_states))):
            for value in values:
                if value != step[field]:
                    runs.append(run[:i] + [step[:field] + (value,) + step[field + 1:]] + run[i + 1:])
    return runs


def test_move_table_groups_the_transitions():
    for a in _table_cases():
        _check_table(a)


def test_is_deterministic_and_validate_run_match_their_references():
    rng = random.Random(7)
    outcomes = set()
    for a in _table_cases():
        assert is_deterministic(a) == is_deterministic_reference(a)
        for run in _mutated_runs(a, rng):
            got = validate_run(a, run)
            assert got == validate_run_reference(a, run), (a, run)
            outcomes.add(got.kind if isinstance(got, RunViolation) else "word")
    assert outcomes == {"word", "wrong-start", "discontinuity", "not-a-transition"}


@settings(max_examples=200, deadline=None)
@given(bundles())
def test_move_tables_on_random_bundles(bundle):
    for i, a in enumerate(bundle.automata):
        _check_table(a)
        assert is_deterministic(a) == is_deterministic_reference(a)
        for run in _mutated_runs(a, random.Random(i)):
            assert validate_run(a, run) == validate_run_reference(a, run)
        assert bundle.prepared.letters[i] is a.letters


def test_the_two_automaton_classes_share_one_record_and_stay_apart():
    fields = (2, 1, ((0, 0, 1),), 0, frozenset({1}))
    plain, epsilon = Nfa(*fields), EpsilonNfa(*fields)
    assert not isinstance(epsilon, Nfa) and not isinstance(plain, EpsilonNfa)
    assert plain != epsilon and epsilon != plain
    assert plain == Nfa(*fields) and epsilon == EpsilonNfa(*fields)
    assert dataclasses.fields(plain) == dataclasses.fields(epsilon)
    assert [f.name for f in dataclasses.fields(plain)] == ["n_states", "n_letters", "transitions", "initial", "finals"]
    assert repr(epsilon).startswith("EpsilonNfa(") and repr(plain).startswith("Nfa(")
    with pytest.raises(ValueError, match="epsilon label is not allowed in a plain NFA"):
        Nfa(2, 1, ((0, EPSILON, 1),), 0, frozenset())
    with pytest.raises(ValueError, match="plain NFA"):
        InstanceBundle((epsilon, plain))
