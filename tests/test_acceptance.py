"""Acceptance suite.

Each test covers one acceptance criterion, prints one PASS/FAIL line
(visible with ``pytest -s``), and fails with details when a criterion is
violated.  Criteria 1 and 8 carry wall-clock limits; everything else is
exact combinatorics, oracle agreement, or certificate duality.
"""

import itertools
import random
import time

import pytest

from nfai.automata import InstanceBundle, Nfa, accepts, run_is_accepting, validate_run
from nfai.boolmatrix import BoolMatrix, mul_triple_loop
from nfai.certificates import (
    ShortPathset,
    StaggeredCut,
    extract_short_pathset,
    extract_staggered_cut,
    verify_short_pathset,
    verify_staggered_cut,
    verify_staggered_cut_naive,
)
from nfai.decision import decide_direct_baseline, decide_empty, witness_word
from nfai.hardness import (
    UndirectedGraph,
    brute_force_has_clique,
    clique_bundle,
    random_bundle,
    random_graph,
)
from nfai.oracle import (
    BundleAcceptor,
    DetAcceptor,
    StutterAcceptor,
    difference_witness,
    intersection_search,
)
from nfai.products import CONSTRUCTIONS, SIZE_BOUNDS, builder_for, m_leq_k, materialize
from nfai.relations import MultiTapeAutomaton, decide_rs, ie_to_rs, rs_to_ie

from helpers import (
    acceptance_corpus,
    example_clique_graph,
    rs_satisfiable_brute_force,
)

WORD_HORIZON = 8


def _report(number: int, title: str, failures, detail: str = ""):
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {title}{suffix}")
    assert not failures, f"criterion {number} failed: {failures[:5]} ({len(failures)} total)"


@pytest.fixture(scope="session")
def corpus():
    bundles = acceptance_corpus()
    assert len(bundles) == 300
    return bundles


@pytest.fixture(scope="session")
def corpus_sweep(corpus):
    """One pass over the corpus materializing every construction, comparing
    bounded languages against the oracle acceptors, and recording compliance
    with the construction's state and transition bounds in
    ``products.SIZE_BOUNDS``.  Shared by criteria 1 and 2."""
    language_failures = []
    bound_failures = []
    start = time.perf_counter()
    for name, bundle in corpus:
        k, l = bundle.k, bundle.n_letters
        n, m = bundle.max_states, bundle.max_transitions
        mk = m_leq_k(bundle)
        reference = BundleAcceptor(bundle)
        stuttered = StutterAcceptor(bundle)
        for construction in CONSTRUCTIONS:
            product = materialize(construction, bundle)
            target = stuttered if construction == "echoing" else reference
            counterexample = difference_witness(
                DetAcceptor(product), target, l, WORD_HORIZON
            )
            if counterexample is not None:
                language_failures.append((name, construction, counterexample))
            states_bound, transitions_bound = SIZE_BOUNDS[construction](k, l, n, m, mk)
            if product.n_states > states_bound:
                bound_failures.append((name, f"{construction}-states"))
            if product.m > transitions_bound:
                bound_failures.append((name, f"{construction}-transitions"))
    elapsed = time.perf_counter() - start
    return {
        "language_failures": language_failures,
        "bound_failures": bound_failures,
        "elapsed": elapsed,
    }


def test_criterion_1_bounded_language_equivalence(corpus_sweep):
    failures = list(corpus_sweep["language_failures"])
    elapsed = corpus_sweep["elapsed"]
    if elapsed >= 120.0:
        failures.append(("runtime", elapsed))
    _report(
        1,
        "block and stutter languages of all five products match the oracle "
        f"on every word of length <= {WORD_HORIZON} across 300 bundles",
        failures,
        f"{elapsed:.1f}s",
    )


def test_criterion_2_construction_size_bounds(corpus_sweep):
    _report(
        2,
        "state and transition counts of every constructed product satisfy "
        "the construction's size bound",
        corpus_sweep["bound_failures"],
    )


def _lazy_run_is_valid(builder, run) -> bool:
    if not run:
        return builder.is_final(builder.initial)
    if run[0][0] != builder.initial:
        return False
    for i, (src, label, dst) in enumerate(run):
        if i > 0 and run[i - 1][2] != src:
            return False
        if (label, dst) not in builder.successors(src):
            return False
    return builder.is_final(run[-1][2])


def _clique_instances():
    yield ("example", clique_bundle(example_clique_graph(), 4))
    pairs = list(itertools.combinations(range(4), 2))
    for n in range(1, 5):
        sub_pairs = [p for p in pairs if max(p) < n]
        for bits in range(1 << len(sub_pairs)):
            g = UndirectedGraph(
                n, frozenset(p for i, p in enumerate(sub_pairs) if (bits >> i) & 1)
            )
            for k in (3, 4, 5):
                yield (f"g{n}-{bits}-k{k}", clique_bundle(g, k))
    for seed in range(40):
        k = 3 + seed % 3
        g = random_graph(5 + seed % 4, 0.5, ("c3", seed))
        yield (f"rand{seed}-k{k}", clique_bundle(g, k))


def test_criterion_3_decision_correctness(corpus):
    failures = []
    for name, bundle in corpus:
        horizon = bundle.max_states ** bundle.k
        expected = intersection_search(bundle, horizon)[0]
        result = decide_empty(bundle)
        baseline = decide_direct_baseline(bundle)
        if result.empty != (expected is None) or baseline.empty != result.empty:
            failures.append((name, "answer"))
            continue
        if not result.empty:
            product = materialize("nodding", bundle)
            word = validate_run(product, result.witness_run)
            if not isinstance(word, tuple) or not run_is_accepting(product, result.witness_run):
                failures.append((name, "witness-run"))
            elif word != witness_word(result) or word != expected:
                failures.append((name, "witness-word"))
            elif not all(accepts(a, word) for a in bundle.automata):
                failures.append((name, "witness-membership"))
    for name, bundle in _clique_instances():
        horizon = 1
        for a in bundle.automata:
            horizon *= a.n_states
        expected = intersection_search(bundle, horizon)[0]
        result = decide_empty(bundle)
        baseline = decide_direct_baseline(bundle)
        if result.empty != (expected is None) or baseline.empty != result.empty:
            failures.append((name, "answer"))
            continue
        if not result.empty:
            word = witness_word(result)
            builder = builder_for("nodding", bundle)
            if not _lazy_run_is_valid(builder, result.witness_run):
                failures.append((name, "witness-run"))
            elif not all(accepts(a, word) for a in bundle.automata):
                failures.append((name, "witness-membership"))
    _report(
        3,
        "decision agrees with the bounded oracle and the direct-product "
        "baseline on the corpus and every clique instance; witnesses validate",
        failures,
    )


def _mutated_pathsets(bundle, ps, rng):
    """Mutations that are invalid by construction: word-length skew between
    runs, a bogus appended step, or a flipped letter."""
    variants = []
    if ps.word:
        variants.append(ShortPathset(ps.word, (ps.runs[0][:-1],) + ps.runs[1:]))
        if bundle.n_letters > 1:
            run0 = list(ps.runs[0])
            position = rng.randrange(len(run0))
            src, label, dst = run0[position]
            run0[position] = (src, (label + 1) % bundle.n_letters, dst)
            variants.append(ShortPathset(ps.word, (tuple(run0),) + ps.runs[1:]))
    tail = ps.runs[-1][-1][2] if ps.runs[-1] else bundle.automata[-1].initial
    extended = ps.runs[-1] + ((tail, 0, rng.randrange(bundle.automata[-1].n_states)),)
    variants.append(ShortPathset(ps.word, ps.runs[:-1] + (extended,)))
    return variants


def test_criterion_4_certificate_duality_and_soundness(corpus):
    failures = []
    rng = random.Random("criterion4")
    cut_mutations = 0
    pathset_mutations = 0
    for name, bundle in corpus:
        decision = decide_empty(bundle)
        if decision.empty:
            cut = extract_staggered_cut(bundle)
            fast = verify_staggered_cut(bundle, cut)
            slow = verify_staggered_cut_naive(bundle, cut)
            if not (fast.ok and slow.ok):
                failures.append((name, "cut-rejected", fast.condition, slow.condition))
                continue
            set_bits = [
                (idx, bit)
                for idx, mask in enumerate(cut.sets)
                for bit in range(mask.bit_length())
                if (mask >> bit) & 1
            ]
            while set_bits and cut_mutations < 100:
                idx, bit = rng.choice(set_bits)
                sets = list(cut.sets)
                sets[idx] &= ~(1 << bit)
                verdict = verify_staggered_cut(bundle, StaggeredCut(cut.n_letters, cut.sizes, tuple(sets)))
                if verdict.ok or verdict.condition is None:
                    failures.append((name, "cut-mutation-accepted", idx, bit))
                cut_mutations += 1
                if cut_mutations % 3 == 0:
                    break
        else:
            ps = extract_short_pathset(bundle, decision)
            if len(ps.word) > bundle.max_states ** bundle.k:
                failures.append((name, "pathset-too-long"))
            verdict = verify_short_pathset(bundle, ps)
            if not verdict.ok:
                failures.append((name, "pathset-rejected", verdict.condition))
                continue
            for mutated in _mutated_pathsets(bundle, ps, rng):
                if pathset_mutations >= 100:
                    break
                verdict = verify_short_pathset(bundle, mutated)
                if verdict.ok or verdict.condition is None:
                    failures.append((name, "pathset-mutation-accepted"))
                pathset_mutations += 1
    if cut_mutations < 100 or pathset_mutations < 100:
        failures.append(("mutation-count", cut_mutations, pathset_mutations))

    # soundness, exhaustively: no cut candidate is accepted on any non-empty
    # two-automaton instance with two states and one letter
    universe = [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]
    automata = [
        Nfa(2, 1, tuple(t for i, t in enumerate(universe) if (bits >> i) & 1), initial, finals)
        for bits in range(16)
        for initial in (0, 1)
        for finals in (frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1}))
    ]
    candidates = 0
    for a in automata:
        for b in automata:
            bundle = InstanceBundle((a, b))
            if intersection_search(bundle, 4)[0] is None:
                continue
            for bits in range(1 << 8):
                cut = StaggeredCut(1, (2, 2), (bits & 0xF, bits >> 4))
                candidates += 1
                if verify_staggered_cut(bundle, cut).ok:
                    failures.append(("soundness", a, b, bits))
    _report(
        4,
        "empty instances certify with cuts, non-empty with short pathsets; "
        "200 mutations rejected; exhaustive cut soundness "
        f"({candidates} candidates on all non-empty 2-state unary pairs)",
        failures,
    )


def test_criterion_5_matrix_verifier_equivalence(corpus):
    failures = []
    rng = random.Random("criterion5")
    checked = 0
    small = [(name, bundle) for name, bundle in corpus if bundle.max_states <= 3]
    while checked < 100:
        name, bundle = small[rng.randrange(len(small))]
        n_tuples = 1
        for a in bundle.automata:
            n_tuples *= a.n_states
        sets = tuple(
            rng.getrandbits(n_tuples) for _ in range(bundle.k * bundle.n_letters)
        )
        cut = StaggeredCut(bundle.n_letters, tuple(a.n_states for a in bundle.automata), sets)
        fast = verify_staggered_cut(bundle, cut)
        slow = verify_staggered_cut_naive(bundle, cut)
        if fast.ok != slow.ok or fast.condition != slow.condition:
            failures.append((name, checked, fast, slow))
        checked += 1
    for trial in range(50):
        n = rng.randrange(1, 65)
        a = BoolMatrix(n, n, tuple(rng.getrandbits(n) for _ in range(n)))
        b = BoolMatrix(n, n, tuple(rng.getrandbits(n) for _ in range(n)))
        if a.mul(b) != mul_triple_loop(a, b):
            failures.append(("matmul", trial, n))
    _report(
        5,
        "fast and naive cut verifiers agree on 100 random cuts; bit-packed "
        "boolean product matches the triple loop on 50 matrix pairs",
        failures,
    )


def test_criterion_6_clique_reduction():
    failures = []
    bundle = clique_bundle(example_clique_graph(), 4)
    result = decide_empty(bundle)
    if result.empty:
        failures.append(("example", "empty"))
    else:
        word = witness_word(result)
        if set(word) != {0, 1, 3, 4} or len(word) != 4:
            failures.append(("example", "witness", word))
    checked = 0
    pairs5 = list(itertools.combinations(range(5), 2))
    for n in range(1, 6):
        sub_pairs = [p for p in pairs5 if max(p) < n]
        for bits in range(1 << len(sub_pairs)):
            g = UndirectedGraph(
                n, frozenset(p for i, p in enumerate(sub_pairs) if (bits >> i) & 1)
            )
            for k in (3, 4, 5):
                expected = brute_force_has_clique(g, k)
                if decide_empty(clique_bundle(g, k)).empty != (not expected):
                    failures.append((n, bits, k))
                checked += 1
    for seed in range(200):
        k = 3 + seed % 3
        g = random_graph(8, 0.5, ("c6", seed))
        expected = brute_force_has_clique(g, k)
        if decide_empty(clique_bundle(g, k)).empty != (not expected):
            failures.append(("random", seed, k))
        checked += 1
    _report(
        6,
        "reduction emptiness equals the brute-force clique check on the "
        f"example graph, all graphs on <= 5 vertices, and 200 random graphs "
        f"({checked} instances)",
        failures,
    )


def _random_multitape(rng, n_states, n_letters, n_tapes):
    universe = [
        (src, letter, tape, dst)
        for src in range(n_states)
        for letter in range(n_letters)
        for tape in range(n_tapes)
        for dst in range(n_states)
    ]
    transitions = rng.sample(universe, rng.randrange(1, len(universe) + 1))
    finals = frozenset(q for q in range(n_states) if rng.random() < 0.5) or frozenset({0})
    return MultiTapeAutomaton(n_states, n_letters, n_tapes, tuple(transitions), 0, finals)


def test_criterion_7_relation_satisfaction():
    failures = []
    rng = random.Random("criterion7")
    # sizes keep the product space at <= 8 states, so any satisfiable
    # instance has a witness tuple with summed length below the brute-force
    # horizon of 8
    for trial in range(100):
        bundle = random_bundle(2, 2, 2, rng.choice((0.25, 0.5, 0.75)), ("c7", trial))
        c = _random_multitape(rng, rng.randrange(1, 3), 2, 2)
        expected = rs_satisfiable_brute_force(bundle, c, 8)
        if decide_rs(bundle, c) != expected:
            failures.append(("brute-force", trial))
    for trial in range(40):
        bundle = random_bundle(3, 2, 2, rng.choice((0.3, 0.6)), ("c7r", trial))
        nonempty = not decide_empty(bundle).empty
        reduced, c = ie_to_rs(bundle)
        if decide_rs(reduced, c) != nonempty:
            failures.append(("ie-to-rs", trial))
        rebuilt = rs_to_ie(reduced, c)
        if (not decide_empty(rebuilt).empty) != nonempty:
            failures.append(("round-trip", trial))
    _report(
        7,
        "relation satisfaction agrees with brute-force tuple enumeration on "
        "100 instances; both reductions and their round-trip preserve answers",
        failures,
    )


def test_criterion_8_sparse_vs_dense_separation():
    failures = []
    start = time.perf_counter()
    n, l, k = 40, 2, 2
    bundle = random_bundle(k, n, l, 1.0, "separation")
    m = l * n * n
    if bundle.max_transitions != m:
        failures.append(("density", bundle.max_transitions))
    direct_total = builder_for("direct", bundle).total_transitions()
    if direct_total != 2 * 1600 ** 2:
        failures.append(("direct-count", direct_total))
    from nfai.products import accessible_stats

    stats, _ = accessible_stats("nodding", bundle)
    if stats.transitions_accessible > k * m * n ** (k - 1):
        failures.append(("nodding-bound", stats.transitions_accessible))
    if direct_total < 20 * stats.transitions_accessible:
        failures.append(("ratio", direct_total, stats.transitions_accessible))
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _report(
        8,
        "complete-relation instance (k=2, l=2, n=40): direct product has "
        f"exactly {direct_total} transitions vs {stats.transitions_accessible} "
        "accessible nodding transitions, a >= 20x reduction",
        failures,
        f"{elapsed:.1f}s",
    )
