"""The word-parallel closure of the nodding table, ``PreparedBundle.closure``
on ``products.close_table``, against the list engines it stands in for:
``decision._search`` for whole Decisions, witness runs included, the
``products.reachable`` walk for every cut subset, and both for the state
budget.  Its work guard is checked on bundles whose tuple space is far
larger than their accessible part and on dense cliques.  The same loop
behind ``accessible_stats`` counts what the decision counts.
"""

import os
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings

import nfai
from nfai import products
from nfai.automata import InstanceBundle, Nfa
from nfai.certificates import _cut_by_walk, extract_short_pathset, extract_staggered_cut, verify_short_pathset
from nfai.decision import _search, decide_empty
from nfai.hardness import clique_bundle, random_graph
from nfai.products import CONSTRUCTIONS, BudgetExceeded, accessible_stats, builder_for

from helpers import acceptance_corpus, bundles, chains


def _fresh(bundle):
    """An equal bundle with its own prepared tables."""
    return InstanceBundle(bundle.automata)


def _outcome(call):
    try:
        return call()
    except BudgetExceeded as exc:
        return str(exc)


def _check_against_list_engines(bundle):
    """Closure and list engines agree; returns whether the bundle is empty."""
    reference = _search(builder_for("nodding", bundle))
    closure = bundle.prepared.closure()
    assert closure is not None  # small tuple spaces never trip the guard
    assert (closure.met == 0) == reference.empty
    assert closure.met & ~bundle.prepared.final_mask == 0
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
    cut, walked = extract_staggered_cut(bundle), _cut_by_walk(bundle)
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
    outcome exactly.  Returns how many of these runs the closure answered,
    on empty and on non-empty bundles."""
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
                walked = _outcome(lambda: (probe.prepared.space.check_tuple_budget(), _cut_by_walk(probe))[1])
                assert _outcome(lambda: extract_staggered_cut(_fresh(bundle))) == walked, limit
            closure_runs[reference.empty] += probe.prepared.space.base_size <= limit  # not the fallback
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


def test_forced_fallback_gives_the_same_results(corpus, monkeypatch):
    sample = [bundle for _, bundle in corpus[::5]]

    def results():
        out = []
        for bundle in sample:
            result = decide_empty(_fresh(bundle))
            out.append((result, extract_staggered_cut(_fresh(bundle)) if result.empty else None))
        return out

    closure = results()
    monkeypatch.setattr(products, "CLOSURE_WORDS", -1)  # trips at the first move
    monkeypatch.setattr(products, "CLOSURE_WORDS_PER_STATE", 0)
    fallbacks = sum(_fresh(bundle).prepared.closure() is None for bundle in sample)
    assert fallbacks > len(sample) // 2
    assert results() == closure


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
    a = Nfa(2, 1000, ((0, 7, 1),), 0, frozenset({1}))
    letters = InstanceBundle((a, a)).prepared.letters[0]
    assert letters[7] == {0: (1,)}
    assert len({id(lists) for lists in letters}) == 2


# --- the work guard ------------------------------------------------------------------

def test_guard_hands_long_chains_to_the_list_engines(monkeypatch):
    bundle = chains(3000)  # 9,000,000 tuples: under the default state budget
    assert bundle.prepared.space.base_size <= products.state_budget()
    started = time.perf_counter()
    with monkeypatch.context() as patched:  # handed back before the first move
        patched.setattr(products.ProductSpace, "move_counting", None)
        assert bundle.prepared.closure() is None
    result = decide_empty(bundle)
    decided = time.perf_counter() - started
    assert (result.empty, result.explored_states, result.explored_transitions) == (True, 5999, 5998)
    assert decided < 5
    started = time.perf_counter()
    cut = extract_staggered_cut(chains(3000))
    assert time.perf_counter() - started < 5
    assert cut.set_for(0, 0).bit_count() == 3000 and cut.set_for(1, 0).bit_count() == 2999


def test_guard_keeps_dense_cliques_on_the_closure():
    """The dense k=5 clique bundle of the console-script round trip: its
    first letter layer costs about 10.7 M words for 73 states, and every
    later front at least doubles."""
    bundle = clique_bundle(random_graph(24, 0.5, 1), 5)
    closure = bundle.prepared.closure()
    assert closure is not None and closure.met
    assert decide_empty(_fresh(bundle)) == _search(builder_for("nodding", bundle))


def test_guard_keeps_short_chains_on_the_closure():
    closure = chains(50).prepared.closure()
    assert closure is not None and (closure.states, closure.transitions) == (99, 98)


# two 2-state components declaring 2,000,000 letters, one transition; the
# second component ends the text, so appending its finals and a move to it
# makes the bundle non-empty
HUGE_ALPHABET_BUNDLE = (
    "nfa\nstates 2\nalphabet 2000000\ninitial 0\nfinal 1\ntrans 0 0 1\n"
    "---\nnfa\nstates 2\nalphabet 2000000\ninitial 0\n"
)


def _capped_cli(cwd, *args, budget=1000):
    """``nfai *args`` in a child process with NFAI_STATE_BUDGET=``budget``
    and about 1 GB of address space, so a run that allocates per letter
    fails there."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(nfai.__file__).resolve().parents[1])
    env = dict(os.environ, NFAI_STATE_BUDGET=str(budget),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from nfai.cli import main; sys.exit(main())", *args],
        cwd=cwd, env=env, preexec_fn=cap, capture_output=True, text=True, timeout=10,
    )
    assert "Traceback" not in done.stderr, done.stderr
    return done


def test_huge_alphabet_decide_costs_its_moving_letters(tmp_path):
    (tmp_path / "huge.nfa").write_text(HUGE_ALPHABET_BUNDLE)
    done = _capped_cli(tmp_path, "decide", "huge.nfa")
    assert done.returncode == 1, done.stderr
    assert done.stdout == "EMPTY\n"
    assert "explored_states=2 explored_transitions=1" in done.stderr


def test_huge_alphabet_witness_costs_its_moving_letters(tmp_path):
    """A non-empty bundle: the witness run's copies are numbered without
    building the nodding product's table of 2,000,000 petals."""
    (tmp_path / "huge.nfa").write_text(HUGE_ALPHABET_BUNDLE + "final 1\ntrans 0 0 1\n")
    done = _capped_cli(tmp_path, "decide", "huge.nfa")
    assert (done.returncode, done.stdout) == (0, "NONEMPTY 0\n"), done.stderr
    assert "explored_states=3 explored_transitions=2" in done.stderr
    assert _capped_cli(tmp_path, "certify", "huge.nfa", "-o", "huge.cert").returncode == 0
    done = _capped_cli(tmp_path, "verify", "huge.nfa", "huge.cert")
    assert (done.returncode, done.stdout) == (0, "VALID pathset\n"), done.stderr


def test_huge_alphabet_hand_back_costs_its_moving_letters(tmp_path):
    """Under a budget of 3 the 4-tuple space is over the budget, so the
    closure hands the bundle back to the list search, which fills only the
    nodding copies it reaches."""
    (tmp_path / "huge.nfa").write_text(HUGE_ALPHABET_BUNDLE)
    done = _capped_cli(tmp_path, "decide", "huge.nfa", budget=3)
    assert (done.returncode, done.stdout) == (1, "EMPTY\n"), done.stderr
    assert "explored_states=2 explored_transitions=1" in done.stderr
    (tmp_path / "huge.nfa").write_text(HUGE_ALPHABET_BUNDLE + "final 1\ntrans 0 0 1\n")
    done = _capped_cli(tmp_path, "decide", "huge.nfa", budget=3)
    assert (done.returncode, done.stdout) == (0, "NONEMPTY 0\n"), done.stderr
    assert "explored_states=3 explored_transitions=2" in done.stderr
    assert _capped_cli(tmp_path, "certify", "huge.nfa", "-o", "huge.cert", budget=3).returncode == 0
    done = _capped_cli(tmp_path, "verify", "huge.nfa", "huge.cert", budget=3)
    assert (done.returncode, done.stdout) == (0, "VALID pathset\n"), done.stderr


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_huge_alphabet_product_costs_its_moving_letters(tmp_path, construction):
    """The accessible part walks two or three states; its totals and
    m_leq_k are computed from the moving letters, not from 2,000,000
    letters or the copies numbered by their words."""
    (tmp_path / "huge.nfa").write_text(HUGE_ALPHABET_BUNDLE + "final 1\ntrans 0 0 1\n")
    done = _capped_cli(tmp_path, "product", "--construction", construction, "huge.nfa", "-o", "huge.out")
    assert done.returncode == 0, done.stderr
    states, transitions = (3, 2) if construction in ("nodding", "echoing") else (2, 1)
    assert done.stderr.endswith(f"\n{construction},2,2000000,2,1,{states},{transitions},2\n")


def test_wide_alphabet_full_direct_product_costs_its_moving_letters(tmp_path):
    """Three 64-state components over 64 letters, one transition each:
    ``--full`` lists all 262,144 direct states, and each state's successors
    loop over the letters its component 0 moves on, not over all 64."""
    block = "nfa\nstates 64\nalphabet 64\ninitial 0\nfinal 1\ntrans 0 0 1\n"
    (tmp_path / "wide.nfa").write_text("---\n".join([block] * 3))
    done = _capped_cli(tmp_path, "product", "--full", "--construction", "direct", "wide.nfa", "-o", "wide.out",
                       budget=64 ** 3)
    assert done.returncode == 0, done.stderr
    assert done.stderr.endswith("\ndirect,3,64,64,1,2,1,64\n")
    assert (tmp_path / "wide.out").read_text() == (
        "nfa\nstates 262144\nalphabet 64\ninitial 0\nfinal 4161\ntrans 0 0 4161\n")
