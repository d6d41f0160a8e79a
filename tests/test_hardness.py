import itertools
import time

import pytest

from nfai.automata import accepts, is_deterministic
from nfai.decision import decide_empty, witness_word
from nfai.products import BudgetExceeded
from nfai.hardness import (
    UndirectedGraph,
    brute_force_has_clique,
    clique_bundle,
    clique_to_dfas,
    parse_graph,
    random_graph,
    random_nfa,
    serialize_graph,
)

from helpers import EXAMPLE_CLIQUE_WORD, example_clique_graph, random_nfa_reference


def complete_graph(n):
    return UndirectedGraph(n, frozenset(itertools.combinations(range(n), 2)))


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield UndirectedGraph(n, frozenset(p for i, p in enumerate(pairs) if (bits >> i) & 1))


# --- graph type and brute force -------------------------------------------------

def test_graph_rejects_self_loops_and_range():
    with pytest.raises(ValueError):
        UndirectedGraph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        UndirectedGraph(2, frozenset({(0, 2)}))


def test_graph_rejects_a_negative_vertex_count():
    assert UndirectedGraph(0, frozenset()).n_vertices == 0
    with pytest.raises(ValueError, match="^negative vertex count -5$"):
        UndirectedGraph(-5, frozenset())
    with pytest.raises(ValueError, match="^negative vertex count -5$"):
        random_graph(-5, 0.5, 1)


def test_brute_force_clique_basics():
    assert brute_force_has_clique(complete_graph(5), 5)
    assert not brute_force_has_clique(UndirectedGraph(4, frozenset()), 2)
    assert brute_force_has_clique(example_clique_graph(), 4)
    assert not brute_force_has_clique(example_clique_graph(), 5)


# --- the clique reduction --------------------------------------------------------

def test_example_reduction_structure_and_acceptance():
    g = example_clique_graph()
    dfas = clique_to_dfas(g, 4)
    assert len(dfas) == 3
    n, k = g.n_vertices, 4
    for i, a in enumerate(dfas[:-1]):
        assert is_deterministic(a)
        assert a.n_states == n + i + 1 <= n + k
        assert accepts(a, EXAMPLE_CLIQUE_WORD)
    last = dfas[-1]
    assert is_deterministic(last)
    assert last.n_states == n + k <= k - 2 + 2 * n
    assert accepts(last, EXAMPLE_CLIQUE_WORD)


def test_example_reduction_witness_decodes_the_clique():
    bundle = clique_bundle(example_clique_graph(), 4)
    result = decide_empty(bundle)
    assert not result.empty
    word = witness_word(result)
    assert len(word) == 4
    assert set(word) == {0, 1, 3, 4}
    assert word == EXAMPLE_CLIQUE_WORD  # lexicographically least encoding


def test_reduction_rejects_small_k():
    with pytest.raises(ValueError):
        clique_to_dfas(complete_graph(3), 2)


def test_triangle_free_graph_gives_empty_intersection():
    square = UndirectedGraph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
    assert not brute_force_has_clique(square, 3)
    assert decide_empty(clique_bundle(square, 3)).empty


@pytest.mark.parametrize("k", [3, 4])
def test_reduction_exhaustive_on_four_vertices(k):
    for g in all_graphs(4):
        assert decide_empty(clique_bundle(g, k)).empty == (not brute_force_has_clique(g, k))


@pytest.mark.parametrize("k", [3, 4, 5])
def test_reduction_on_random_graphs(k):
    for seed in range(10):
        g = random_graph(7, 0.55, ("graph", k, seed))
        bundle = clique_bundle(g, k)
        result = decide_empty(bundle)
        assert result.empty == (not brute_force_has_clique(g, k))
        if not result.empty:
            word = witness_word(result)
            assert len(word) == k
            assert all(g.adjacent(u, v) for u, v in itertools.combinations(word, 2))


def test_reduction_of_a_large_sparse_graph_is_linear():
    """A 20,000-vertex star: a reduction that scans every edge once per
    vertex would take minutes."""
    n = 20_000
    star = UndirectedGraph(n, frozenset((0, v) for v in range(1, n)))
    started = time.perf_counter()
    dfas = clique_to_dfas(star, 4)
    assert time.perf_counter() - started < 10
    # the fan state of vertex v loops on v's neighbours: n - 1 loops at the centre, one elsewhere
    assert [a.m for a in dfas] == [n + 2 * (n - 1), 2 * n + 2 * (n - 1), 3 * n + 2 * (n - 1)]
    assert dfas[0].successors(1, 5) == (1,) and dfas[0].successors(1 + 5, 0) == (1 + 5,)


@pytest.mark.parametrize("k", [3, 4, 6])
def test_reduction_is_refused_over_the_state_budget_before_it_is_built(k, monkeypatch):
    """The budget check counts the reduction's transitions exactly:
    n·k(k-1)/2 + 2|E|(k-1)."""
    g = example_clique_graph()
    count = sum(a.m for a in clique_to_dfas(g, k))
    assert count == g.n_vertices * k * (k - 1) // 2 + 2 * len(g.edges) * (k - 1)
    monkeypatch.setenv("NFAI_STATE_BUDGET", str(count))
    assert sum(a.m for a in clique_to_dfas(g, k)) == count
    monkeypatch.setenv("NFAI_STATE_BUDGET", str(count - 1))
    with pytest.raises(BudgetExceeded, match=f"^clique reduction has {count} transitions, over the state budget of {count - 1}$"):
        clique_to_dfas(g, k)


def test_reduction_word_length_is_pinned():
    g = complete_graph(5)
    bundle = clique_bundle(g, 4)
    for word in [(0, 1, 2), (0, 1, 2, 3, 4)]:
        assert not all(accepts(a, word) for a in bundle.automata)


# --- random generators -------------------------------------------------------------

def test_random_nfa_density_extremes():
    assert random_nfa(3, 2, 0.0, 1).m == 0
    assert random_nfa(3, 2, 1.0, 1).m == 18


def test_random_nfa_deterministic_per_seed():
    assert random_nfa(4, 2, 0.5, 99) == random_nfa(4, 2, 0.5, 99)
    assert random_nfa(4, 2, 0.5, 99) != random_nfa(4, 2, 0.5, 100)


@pytest.mark.parametrize("n_states, n_letters", [(1, 0), (1, 1), (2, 1), (3, 2), (5, 3), (8, 1), (4, 7), (12, 2)])
def test_random_nfa_draws_what_sampling_the_listed_triples_drew(n_states, n_letters):
    """Sampling indices picks the triples sampling their list picked, for
    every density and kind of seed, with the final states drawn after."""
    for density in (0.0, 0.05, 0.3, 0.5, 0.77, 1.0):
        for seed in (0, 1, 99, "parity-base/2/40/1.0/0", (3, 1), ("s", 2)):
            expected = random_nfa_reference(n_states, n_letters, density, seed)
            assert random_nfa(n_states, n_letters, density, seed) == expected, (density, seed)


def test_random_nfa_refuses_a_draw_over_the_state_budget(monkeypatch):
    monkeypatch.setenv("NFAI_STATE_BUDGET", "18")
    assert random_nfa(3, 2, 1.0, 1).m == 18
    monkeypatch.setenv("NFAI_STATE_BUDGET", "17")
    with pytest.raises(BudgetExceeded, match="^random NFA draws 18 transitions, over the state budget of 17$"):
        random_nfa(3, 2, 1.0, 1)


def test_random_nfa_parameter_validation():
    with pytest.raises(ValueError):
        random_nfa(3, 2, 1.5, 0)
    with pytest.raises(ValueError):
        random_nfa(0, 2, 0.5, 0)


def test_random_graph_deterministic_and_bounds():
    g1 = random_graph(6, 0.4, 7)
    g2 = random_graph(6, 0.4, 7)
    assert g1 == g2
    assert random_graph(6, 0.0, 7).edges == frozenset()
    assert random_graph(6, 1.0, 7) == complete_graph(6)


def test_random_graph_refuses_its_vertices_then_its_expected_edges_over_the_state_budget(monkeypatch):
    monkeypatch.setenv("NFAI_STATE_BUDGET", "1000")
    assert random_graph(1000, 0.002, 1).n_vertices == 1000  # 999 expected edges
    with pytest.raises(BudgetExceeded, match="^random graph has 1001 vertices, over the state budget of 1000$"):
        random_graph(1001, 0.5, 1)
    with pytest.raises(BudgetExceeded, match="^random graph expects 4995 edges, over the state budget of 1000$"):
        random_graph(1000, 0.01, 1)


# --- graph files --------------------------------------------------------------------

def test_graph_roundtrip():
    g = example_clique_graph()
    assert parse_graph(serialize_graph(g)) == g


def test_graph_parse_errors():
    from nfai.fileformat import FormatError

    with pytest.raises(FormatError):
        parse_graph("edge 0 1\n")
    with pytest.raises(FormatError):
        parse_graph("graph 2\nedge 0 2\n")
    with pytest.raises(FormatError):
        parse_graph("graph 2\nedge 1 1\n")


def test_graph_vertex_count_is_checked_against_the_budget(monkeypatch):
    from nfai.fileformat import FormatError

    monkeypatch.setenv("NFAI_STATE_BUDGET", "1000")
    assert parse_graph("graph 1000\nedge 0 999\n").n_vertices == 1000
    with pytest.raises(FormatError, match="^line 2: 1001 vertices, over the state budget of 1000"):
        parse_graph("# a comment\ngraph 1001\nedge 0 1\n")
    monkeypatch.delenv("NFAI_STATE_BUDGET")
    with pytest.raises(FormatError, match="^line 1: "):
        parse_graph("graph 99999999\nedge 0 1\n")
