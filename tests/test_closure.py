"""The closure of the nodding table, ``PreparedBundle.closure`` on
``products.close_table``, against the list engines it stands in for:
``helpers._search`` for whole Decisions, witness runs included, the
reference walk ``helpers.cut_by_walk`` for every cut subset, and both for
the state budget.  Its two forms, sets of tuple ids and bitmasks, are each
forced through ``products.SET_STEP_WORDS`` and checked on bundles whose tuple
space is far larger than their accessible part and on dense cliques; a dense
block leading into a thin chain checks the way back from masks to sets.  The
same loop behind ``accessible_stats`` counts what the decision counts.
"""

import os
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings

from nfai import products
from nfai.automata import InstanceBundle, Nfa
from nfai.certificates import extract_short_pathset, extract_staggered_cut, verify_short_pathset
from nfai.decision import decide_empty, witness_word
from nfai.fileformat import parse_bundle
from nfai.hardness import clique_bundle, random_graph
from nfai.products import CONSTRUCTIONS, BudgetExceeded, accessible_stats, builder_for

from helpers import _search, acceptance_corpus, bundles, capped_cli, chains, cut_by_walk

#: ``products.SET_STEP_WORDS`` values that force sets of tuple ids at every
#: level, and bitmasks from the first level that moves, where the tuple space
#: fits the budget
ALL_SETS, ALL_MASKS = 0, 1 << 62


def _fresh(bundle):
    """An equal bundle with its own prepared tables."""
    return InstanceBundle(bundle.automata)


def _form(bundle):
    """The type the nodding closure holds its tuple sets in: set or int."""
    return type(bundle.prepared.closure().met)


def _outcome(call):
    try:
        return call()
    except BudgetExceeded as exc:
        return str(exc)


def _check_against_list_engines(bundle):
    """Closure and list engines agree; returns whether the bundle is empty."""
    reference = _search(builder_for("nodding", bundle))
    closure = bundle.prepared.closure()
    assert (not closure.met) == reference.empty
    assert bundle.prepared.space.select(closure.met, [a.finals for a in bundle.automata]) == closure.met
    decided = decide_empty(_fresh(bundle))
    assert decided == reference  # the answer, the witness run and both counters
    if not reference.empty:
        pathset = extract_short_pathset(bundle, decided)
        assert pathset == extract_short_pathset(bundle, reference)
        assert verify_short_pathset(bundle, pathset)
        with pytest.raises(ValueError):
            extract_staggered_cut(bundle)
        return False
    assert (closure.states, closure.transitions) == (reference.explored_states, reference.explored_transitions)
    cut, walked = extract_staggered_cut(bundle), cut_by_walk(bundle)
    assert (cut.n_letters, cut.sizes) == (walked.n_letters, walked.sizes)
    assert [hex(s) for s in cut.sets] == [hex(s) for s in walked.sets]
    return True


@pytest.fixture(scope="module")
def corpus():
    return acceptance_corpus()


def test_closure_matches_list_engines_on_corpus(corpus):
    empties = sum(_check_against_list_engines(bundle) for _, bundle in corpus)
    assert 0 < empties < len(corpus)


@contextmanager
def _budget(limit):
    saved = os.environ.get("NFAI_STATE_BUDGET")
    os.environ["NFAI_STATE_BUDGET"] = str(limit)
    try:
        yield
    finally:
        if saved is None:
            del os.environ["NFAI_STATE_BUDGET"]
        else:
            os.environ["NFAI_STATE_BUDGET"] = saved


def _check_budget_alike(bundle):
    """With the budget at the states the list search explores, both engines
    pass; with one less, both raise, and extraction follows the walk's
    outcome exactly.  Returns how many of these runs the closure answered
    with the tuple space within the budget, on empty and on non-empty
    bundles."""
    reference = _search(builder_for("nodding", bundle))
    explored, closure_runs = reference.explored_states, [0, 0]
    for limit in (explored, explored - 1):
        with _budget(limit):
            probe = _fresh(bundle)
            expected = _outcome(lambda: _search(builder_for("nodding", probe)))
            assert _outcome(lambda: decide_empty(_fresh(bundle))) == expected, limit
            if explored > 1:
                assert isinstance(expected, str) == (limit < explored), limit
            if reference.empty:
                walked = _outcome(lambda: (probe.prepared.space.check_tuple_budget(), cut_by_walk(probe))[1])
                assert _outcome(lambda: extract_staggered_cut(_fresh(bundle))) == walked, limit
            closure_runs[reference.empty] += probe.prepared.space.base_size <= limit  # masks allowed
    return closure_runs


@settings(max_examples=300, deadline=None)
@given(bundles())
def test_closure_matches_list_engines_on_random_bundles(bundle):
    _check_against_list_engines(bundle)
    _check_budget_alike(bundle)


def test_budget_raises_alike_at_the_explored_count(corpus):
    runs = [_check_budget_alike(bundle) for _, bundle in corpus]
    assert min(map(sum, zip(*runs))) > 10  # on non-empty and on empty bundles


@pytest.mark.parametrize("k, seed", [(4, 0), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3)])
def test_closure_matches_list_engines_on_dense_cliques(k, seed):
    bundle = clique_bundle(random_graph(8, 0.8, seed), k)
    assert not _check_against_list_engines(bundle)  # each of these graphs has a k-clique


def test_stats_count_what_the_decision_counts_on_empty_bundles(corpus):
    """The loop closes the nodding table for ``decide_empty`` and a
    builder's table for ``accessible_stats``: on an empty bundle both close
    the whole accessible part, so the counts agree."""
    empties = 0
    for name, bundle in corpus:
        decided = decide_empty(_fresh(bundle))
        if decided.empty:
            empties += 1
            stats, nonempty = accessible_stats("nodding", _fresh(bundle))
            assert not nonempty, name
            counts = (stats.states_accessible, stats.transitions_accessible)
            assert counts == (decided.explored_states, decided.explored_transitions), name
    assert empties > 50


def test_forced_forms_give_the_same_results(corpus, monkeypatch):
    """A closure forced to masks keeps sets only when it stops before its
    first move."""
    sample = [bundle for _, bundle in corpus[::5]]
    for words, form in ((ALL_SETS, set), (ALL_MASKS, int)):
        monkeypatch.setattr(products, "SET_STEP_WORDS", words)
        assert sum(_form(_fresh(bundle)) is form for bundle in sample) > len(sample) * 3 // 4
        for bundle in sample:
            result = decide_empty(_fresh(bundle))
            assert result == _search(builder_for("nodding", bundle))
            if result.empty:
                assert extract_staggered_cut(_fresh(bundle)) == cut_by_walk(bundle)


def test_closure_witness_among_many_final_tuples():
    """The first final layer holds 299 * 299 final tuples; the witness is the
    first of them that the list search meets."""
    n = 300
    a = Nfa(n, 1, tuple((0, 0, q) for q in range(1, n)), 0, frozenset(range(1, n)))
    bundle = InstanceBundle((a, a))
    assert bundle.prepared.closure().met.bit_count() == (n - 1) ** 2 > 1 << 16
    decided = decide_empty(_fresh(bundle))
    assert decided == _search(builder_for("nodding", bundle))
    assert decided.explored_states == n + 1


def _complete_without_finals():
    """Two complete 3-state one-letter automata with no final state: empty,
    with 18 accessible states in a 9-tuple space."""
    a = Nfa(3, 1, tuple((p, 0, q) for p in range(3) for q in range(3)), 0, frozenset())
    return InstanceBundle((a, a))


def test_certify_runs_the_closure_once_per_budget(monkeypatch):
    runs = []
    close_table = products.close_table
    monkeypatch.setattr(products, "close_table", lambda *args, **kw: runs.append(1) or close_table(*args, **kw))
    bundle = _complete_without_finals()
    decided = decide_empty(bundle)
    cut = extract_staggered_cut(bundle)
    assert (decided.explored_states, len(runs)) == (18, 1)
    with _budget(17):  # a changed budget runs the closure again, which raises
        for _ in range(2):
            with pytest.raises(BudgetExceeded):
                decide_empty(bundle)
            with pytest.raises(BudgetExceeded):
                extract_staggered_cut(bundle)
    assert len(runs) == 5
    with _budget(18):
        assert (decide_empty(bundle), extract_staggered_cut(bundle)) == (decided, cut)
    assert len(runs) == 6


def test_letters_without_moves_share_one_table():
    # the letters with no move cost nothing: the table holds the one that moves
    a = Nfa(2, 1000, ((0, 7, 1),), 0, frozenset({1}))
    letters = InstanceBundle((a, a)).prepared.letters[0]
    assert letters == {7: {0: (1,)}}


# --- the two forms ---------------------------------------------------------------

def test_long_chains_close_by_sets(monkeypatch):
    """Two 3000-state chains: 9,000,000 tuples, under the default state
    budget, and 5999 accessible states.  By masks a level would pass over the
    tuple space once per state that moves; by sets the closure decides and
    certifies as the list engines do."""
    bundle = chains(3000)
    assert bundle.prepared.space.base_size <= products.state_budget()
    expected = _search(builder_for("nodding", bundle))
    assert (expected.empty, expected.explored_states, expected.explored_transitions) == (True, 5999, 5998)
    walked = cut_by_walk(bundle)
    for words in (products.SET_STEP_WORDS, ALL_SETS):
        monkeypatch.setattr(products, "SET_STEP_WORDS", words)
        started = time.perf_counter()
        probe = chains(3000)
        assert decide_empty(probe) == expected
        assert time.perf_counter() - started < 5
        assert _form(probe) is set
        started = time.perf_counter()
        cut = extract_staggered_cut(chains(3000))
        assert time.perf_counter() - started < 5
        assert cut == walked
        assert cut.set_for(0, 0).bit_count() == 3000 and cut.set_for(1, 0).bit_count() == 2999


def test_dense_cliques_close_by_masks(monkeypatch):
    """The dense k=5 clique bundle of the console-script round trip: its base
    fronts grow 1, 24, 278, 1572, 4296, so the closure switches to masks;
    forced to keep sets, it gives the same Decision."""
    bundle = clique_bundle(random_graph(24, 0.5, 1), 5)
    expected = _search(builder_for("nodding", bundle))
    assert _form(bundle) is int and bundle.prepared.closure().met
    assert decide_empty(_fresh(bundle)) == expected
    monkeypatch.setattr(products, "SET_STEP_WORDS", ALL_SETS)
    probe = _fresh(bundle)
    assert decide_empty(probe) == expected
    assert _form(probe) is set


def _block_then_chain(block, chain, finals):
    """One-letter automata, one per final set in ``finals``, each a complete
    ``block``-state block whose last state starts a ``chain``-state chain."""
    n = block + chain
    moves = tuple((p, 0, q) for p in range(block) for q in range(block))
    moves += tuple((q, 0, q + 1) for q in range(block - 1, n - 1))
    return InstanceBundle(tuple(Nfa(n, 1, moves, 0, frozenset(f)) for f in finals))


def _spy_switches(monkeypatch):
    """A list that grows each time a set of tuple ids is read into a mask."""
    switched = []
    mask_of = products.ProductSpace.mask_of
    monkeypatch.setattr(products.ProductSpace, "mask_of",
                        lambda space, tuples: switched.append(isinstance(tuples, set)) or mask_of(space, tuples))
    return switched


def test_thin_levels_after_a_dense_block_go_back_to_sets(monkeypatch):
    """Finals at the chains' last and next-to-last states.  The blocks'
    levels are dense and switch the closure to masks; the chains' 600 levels
    are thin, and by masks each would pass over the 108,900-tuple space once
    per successor of each block state in its front (about 5 s in all on a
    2-vCPU VM, against 0.8 s for the list search), so the closure goes back
    to sets."""
    bundle = _block_then_chain(30, 300, [{329}, {328}])
    switched = _spy_switches(monkeypatch)
    started = time.perf_counter()
    decided = decide_empty(bundle)
    assert time.perf_counter() - started < 3
    assert any(switched) and _form(bundle) is set
    assert decided == _search(builder_for("nodding", bundle))
    assert verify_short_pathset(bundle, extract_short_pathset(bundle, decided))


def test_the_way_back_to_sets_keeps_counts_and_cuts(monkeypatch):
    """Made empty, with no final state in the second automaton, a smaller
    pair closes its whole accessible part, goes back to sets on the way, and
    counts and cuts what the list engines do."""
    bundle = _block_then_chain(20, 200, [{219}, set()])
    switched = _spy_switches(monkeypatch)
    assert _form(bundle) is set and any(switched)
    assert _check_against_list_engines(bundle)


def test_short_chains_close_alike_in_either_form(monkeypatch):
    expected = _search(builder_for("nodding", chains(50)))
    for words, form in ((products.SET_STEP_WORDS, set), (ALL_SETS, set), (ALL_MASKS, int)):
        monkeypatch.setattr(products, "SET_STEP_WORDS", words)
        bundle = chains(50)
        closure = bundle.prepared.closure()
        assert type(closure.met) is form and (closure.states, closure.transitions) == (99, 98)
        assert decide_empty(bundle) == expected
        assert extract_staggered_cut(bundle) == cut_by_walk(bundle)


# two 2-state components declaring 2,000,000 letters, one transition; the
# second component ends the text, so appending its finals and a move to it
# makes the bundle non-empty
HUGE_ALPHABET_BUNDLE = (
    "nfa\nstates 2\nalphabet 2000000\ninitial 0\nfinal 1\ntrans 0 0 1\n"
    "---\nnfa\nstates 2\nalphabet 2000000\ninitial 0\n"
)
NONEMPTY = "final 1\ntrans 0 0 1\n"
#: The declared alphabets the CLI tests run at: nothing outside a cut is
#: sized by the alphabet, so a billion letters cost what 2,000,000 do
ALPHABETS = (2_000_000, 1_000_000_000)


def write_huge_alphabet_bundle(tmp_path, letters: int, tail: str = "") -> None:
    (tmp_path / "huge.nfa").write_text(HUGE_ALPHABET_BUNDLE.replace("2000000", str(letters)) + tail)


def test_huge_alphabet_decide_costs_its_moving_letters(tmp_path):
    for letters in ALPHABETS:
        write_huge_alphabet_bundle(tmp_path, letters)
        done = capped_cli(tmp_path, "decide", "huge.nfa")
        assert done.returncode == 1, done.stderr
        assert done.stdout == "EMPTY\n"
        assert "explored_states=2 explored_transitions=1" in done.stderr


def test_huge_alphabet_witness_costs_its_moving_letters(tmp_path):
    """A non-empty bundle: the witness run's copies are numbered without
    building the nodding product's table of a petal per letter."""
    for letters in ALPHABETS:
        write_huge_alphabet_bundle(tmp_path, letters, NONEMPTY)
        done = capped_cli(tmp_path, "decide", "huge.nfa")
        assert (done.returncode, done.stdout) == (0, "NONEMPTY 0\n"), done.stderr
        assert "explored_states=3 explored_transitions=2" in done.stderr
        assert capped_cli(tmp_path, "certify", "huge.nfa", "-o", "huge.cert").returncode == 0
        done = capped_cli(tmp_path, "verify", "huge.nfa", "huge.cert")
        assert (done.returncode, done.stdout) == (0, "VALID pathset\n"), done.stderr


def test_huge_alphabet_hand_back_costs_its_moving_letters(tmp_path):
    """Under a budget of 3 the 4-tuple space is over the budget, so the
    closure builds no mask and moves sets of tuple ids, filling only the
    nodding copies it reaches."""
    for letters in ALPHABETS:
        write_huge_alphabet_bundle(tmp_path, letters)
        done = capped_cli(tmp_path, "decide", "huge.nfa", budget=3)
        assert (done.returncode, done.stdout) == (1, "EMPTY\n"), done.stderr
        assert "explored_states=2 explored_transitions=1" in done.stderr
        write_huge_alphabet_bundle(tmp_path, letters, NONEMPTY)
        done = capped_cli(tmp_path, "decide", "huge.nfa", budget=3)
        assert (done.returncode, done.stdout) == (0, "NONEMPTY 0\n"), done.stderr
        assert "explored_states=3 explored_transitions=2" in done.stderr
        assert capped_cli(tmp_path, "certify", "huge.nfa", "-o", "huge.cert", budget=3).returncode == 0
        done = capped_cli(tmp_path, "verify", "huge.nfa", "huge.cert", budget=3)
        assert (done.returncode, done.stdout) == (0, "VALID pathset\n"), done.stderr


def test_nonempty_long_chains_rebuild_from_set_layers():
    """Two 3000-state chains final at the same end: the witness run is read
    off 3000 base layers held as sets of tuple ids."""
    chain = Nfa(3000, 1, tuple((q, 0, q + 1) for q in range(2999)), 0, frozenset({2999}))
    bundle = InstanceBundle((chain, chain))
    started = time.perf_counter()
    decided = decide_empty(bundle)
    assert time.perf_counter() - started < 5
    assert _form(bundle) is set
    assert decided == _search(builder_for("nodding", bundle))
    assert (len(witness_word(decided)), decided.explored_states, decided.explored_transitions) == (2999, 5999, 5998)
    assert verify_short_pathset(bundle, extract_short_pathset(bundle, decided))


def test_witness_into_a_dense_block_rebuilds_from_set_layers():
    """A 300-state chain whose end enters a complete 60-state block, finals
    two apart: the witness is rebuilt from sets of tuple ids.  Each backward
    and forward set is cut to the layer it belongs to, since a shortest run
    passes through each layer in turn; uncut, the co-reachable sets would
    spread over the block at every layer back to the start."""
    n = 360
    moves = tuple((q, 0, q + 1) for q in range(300)) + tuple((p, 0, q) for p in range(300, n) for q in range(300, n))
    bundle = InstanceBundle(tuple(Nfa(n, 1, moves, 0, frozenset({final})) for final in (n - 1, n - 3)))
    started = time.perf_counter()
    decided = decide_empty(bundle)
    assert time.perf_counter() - started < 2
    assert _form(bundle) is set
    assert decided == _search(builder_for("nodding", bundle))
    assert verify_short_pathset(bundle, extract_short_pathset(bundle, decided))


def test_nonempty_bundle_over_the_tuple_budget_rebuilds_from_set_layers():
    """The huge-alphabet bundle made non-empty, under a budget of 3: its
    4-tuple space is over the budget, its 3 explored states are not."""
    bundle = parse_bundle(HUGE_ALPHABET_BUNDLE + NONEMPTY)
    with _budget(3):
        decided = decide_empty(bundle)
        assert _form(bundle) is set
        assert decided == _search(builder_for("nodding", _fresh(bundle)))
    assert decided.explored_states == 3
    assert verify_short_pathset(bundle, extract_short_pathset(bundle, decided))


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_huge_alphabet_product_costs_its_moving_letters(tmp_path, construction):
    """The accessible part walks two or three states; its totals and
    m_leq_k are computed from the moving letters, not from the declared
    letters or the copies numbered by their words."""
    states, transitions = (3, 2) if construction in ("nodding", "echoing") else (2, 1)
    for letters in ALPHABETS:
        write_huge_alphabet_bundle(tmp_path, letters, NONEMPTY)
        done = capped_cli(tmp_path, "product", "--construction", construction, "huge.nfa", "-o", "huge.out")
        assert done.returncode == 0, done.stderr
        assert done.stderr.endswith(f"\n{construction},2,{letters},2,1,{states},{transitions},2\n")


def test_wide_alphabet_full_direct_product_costs_its_moving_letters(tmp_path):
    """Three 64-state components over 64 letters, one transition each:
    ``--full`` lists all 262,144 direct states, and each state's successors
    loop over the letters its component 0 moves on, not over all 64."""
    block = "nfa\nstates 64\nalphabet 64\ninitial 0\nfinal 1\ntrans 0 0 1\n"
    (tmp_path / "wide.nfa").write_text("---\n".join([block] * 3))
    done = capped_cli(tmp_path, "product", "--full", "--construction", "direct", "wide.nfa", "-o", "wide.out",
                       budget=64 ** 3)
    assert done.returncode == 0, done.stderr
    assert done.stderr.endswith("\ndirect,3,64,64,1,2,1,64\n")
    assert (tmp_path / "wide.out").read_text() == (
        "nfa\nstates 262144\nalphabet 64\ninitial 0\nfinal 4161\ntrans 0 0 4161\n")
