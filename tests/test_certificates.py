import itertools
import random

import pytest

from nfai.automata import EPSILON, InstanceBundle, Nfa, adjacency_matrix, validate_run
from nfai.certificates import (
    ACCEPT,
    ShortPathset,
    StaggeredCut,
    Verdict,
    build_in_out,
    extract_short_pathset,
    extract_staggered_cut,
    parse_certificate,
    serialize_certificate,
    verify_short_pathset,
    verify_staggered_cut,
    verify_staggered_cut_naive,
)
from nfai.decision import decide_empty
from nfai.fileformat import serialize_bundle
from nfai.hardness import clique_bundle, random_bundle
from nfai.products import BudgetExceeded, ProductSpace

from helpers import EXAMPLE_CLIQUE_WORD, acceptance_corpus, complete_empty_bundle, example_clique_graph


def _self_loop_bundle():
    a = Nfa(1, 1, ((0, 0, 0),), 0, frozenset({0}))
    return InstanceBundle((a, a))


# --- short pathsets -----------------------------------------------------------

def test_pathset_for_empty_word():
    bundle = _self_loop_bundle()
    ps = extract_short_pathset(bundle, decide_empty(bundle))
    assert ps.word == ()
    assert ps.runs == ((), ())
    assert verify_short_pathset(bundle, ps).ok


def test_pathset_for_example_clique_bundle():
    bundle = clique_bundle(example_clique_graph(), 4)
    ps = extract_short_pathset(bundle, decide_empty(bundle))
    assert ps.word == EXAMPLE_CLIQUE_WORD
    for a, run in zip(bundle.automata, ps.runs):
        assert validate_run(a, run) == ps.word
        assert run[-1][2] in a.finals
    assert verify_short_pathset(bundle, ps).ok


def test_pathset_requires_witness():
    a = Nfa(1, 1, (), 0, frozenset())
    bundle = InstanceBundle((a, a))
    with pytest.raises(ValueError):
        extract_short_pathset(bundle, decide_empty(bundle))


@pytest.mark.parametrize("seed", range(10))
def test_extracted_pathsets_always_verify(seed):
    bundle = random_bundle(2 + seed % 2, 3, 2, 0.6, ("ps", seed))
    decision = decide_empty(bundle)
    if decision.empty:
        return
    ps = extract_short_pathset(bundle, decision)
    assert verify_short_pathset(bundle, ps).ok
    assert len(ps.word) <= bundle.max_states ** bundle.k


def _some_nonempty_pathset():
    for seed in itertools.count():
        bundle = random_bundle(2, 3, 2, 0.7, ("mut", seed))
        decision = decide_empty(bundle)
        if not decision.empty and len(extract_short_pathset(bundle, decision).word) >= 2:
            return bundle, extract_short_pathset(bundle, decision)


def test_pathset_rejections_name_conditions():
    bundle, ps = _some_nonempty_pathset()

    # a transition replaced by a non-transition
    run0 = list(ps.runs[0])
    src, label, _ = run0[0]
    reachable = bundle.automata[0].successors(src, label)
    bad_dst = next(
        (q for q in range(bundle.automata[0].n_states) if q not in reachable), None
    )
    if bad_dst is not None:
        run0[0] = (src, label, bad_dst)
        mutated = ShortPathset(ps.word, (tuple(run0),) + ps.runs[1:])
        verdict = verify_short_pathset(bundle, mutated)
        assert verdict.condition == "not-a-transition" and verdict.where == (0, 0)

    # runs labelled by different words
    run0 = list(ps.runs[0])
    src, label, dst = run0[0]
    flipped = (label + 1) % bundle.n_letters
    run0[0] = (src, flipped, dst)
    mutated = ShortPathset(ps.word, (tuple(run0),) + ps.runs[1:])
    verdict = verify_short_pathset(bundle, mutated)
    assert not verdict.ok
    assert verdict.condition in ("label-mismatch", "not-a-transition")

    # truncated run: word lengths differ
    mutated = ShortPathset(ps.word, (ps.runs[0][:-1],) + ps.runs[1:])
    verdict = verify_short_pathset(bundle, mutated)
    assert not verdict.ok
    assert verdict.condition == "label-mismatch"

    # wrong run count
    mutated = ShortPathset(ps.word, ps.runs + (ps.runs[0],))
    assert verify_short_pathset(bundle, mutated).condition == "shape"


def test_pathset_structure_conditions():
    a = Nfa(3, 2, ((0, 0, 1), (1, 1, 2)), 0, frozenset({2}))
    full = Nfa(1, 2, ((0, 0, 0), (0, 1, 0)), 0, frozenset({0}))
    bundle = InstanceBundle((a, full))
    word = (0, 1)
    good_a = ((0, 0, 1), (1, 1, 2))
    good_b = ((0, 0, 0), (0, 1, 0))
    assert verify_short_pathset(bundle, ShortPathset(word, (good_a, good_b))).ok

    wrong_start = (((1, 1, 2), (2, 0, 0))[:1], good_b)
    verdict = verify_short_pathset(bundle, ShortPathset((1,), wrong_start))
    assert verdict.condition == "wrong-start" and verdict.where == (0, 0)

    discont = ((good_a[0], (0, 1, 2)), good_b)
    verdict = verify_short_pathset(bundle, ShortPathset(word, discont))
    assert verdict.condition == "discontinuity" and verdict.where == (0, 1)

    not_accepting = ((good_a[0],), (good_b[0],))
    verdict = verify_short_pathset(bundle, ShortPathset((0,), not_accepting))
    assert verdict.condition == "not-accepting" and verdict.where == (0,)

    # an epsilon label is never a transition of a component NFA
    epsilon_step = (((0, 0, 1), (1, EPSILON, 2)), good_b)
    verdict = verify_short_pathset(bundle, ShortPathset(word, epsilon_step))
    assert verdict.condition == "not-a-transition" and verdict.where == (0, 1)


def test_pathset_length_bound():
    bundle = _self_loop_bundle()  # n = 1, k = 2, so the bound is 1
    run = ((0, 0, 0), (0, 0, 0))
    verdict = verify_short_pathset(bundle, ShortPathset((0, 0), (run, run)))
    assert verdict.condition == "length-bound"


# --- staggered cuts -----------------------------------------------------------

def _disjoint_singletons():
    a = Nfa(2, 2, ((0, 0, 1),), 0, frozenset({1}))  # accepts only "a"
    b = Nfa(2, 2, ((0, 1, 1),), 0, frozenset({1}))  # accepts only "b"
    return InstanceBundle((a, b))


def test_cut_for_disjoint_singletons():
    bundle = _disjoint_singletons()
    cut = extract_staggered_cut(bundle)
    assert verify_staggered_cut(bundle, cut).ok
    assert verify_staggered_cut_naive(bundle, cut).ok


def test_cut_when_first_finals_empty():
    n, l = 2, 2
    complete = tuple((p, s, q) for p in range(n) for s in range(l) for q in range(n))
    a = Nfa(n, l, complete, 0, frozenset())
    b = Nfa(n, l, complete, 0, frozenset({0}))
    bundle = InstanceBundle((a, b))
    cut = extract_staggered_cut(bundle)
    # every base tuple is reachable under the complete relation
    assert cut.set_for(0, 0) == (1 << (n * n)) - 1
    assert verify_staggered_cut(bundle, cut).ok


def test_cut_extraction_rejects_nonempty():
    with pytest.raises(ValueError):
        extract_staggered_cut(_self_loop_bundle())


@pytest.mark.parametrize("seed", range(12))
def test_extracted_cuts_always_verify(seed):
    bundle = random_bundle(2 + seed % 2, 3, 2, 0.3, ("cut", seed))
    if not decide_empty(bundle).empty:
        return
    cut = extract_staggered_cut(bundle)
    assert verify_staggered_cut(bundle, cut).ok
    assert verify_staggered_cut_naive(bundle, cut).ok


def test_cut_condition_checks():
    bundle = _disjoint_singletons()
    cut = extract_staggered_cut(bundle)
    space = ProductSpace(cut.sizes, 1)
    initial = space.encode([a.initial for a in bundle.automata])

    missing_initial = StaggeredCut(
        cut.n_letters,
        cut.sizes,
        tuple(mask & ~(1 << initial) if i < cut.n_letters else mask for i, mask in enumerate(cut.sets)),
    )
    assert verify_staggered_cut(bundle, missing_initial).condition in ("initial-missing", "base-copy-mismatch")

    final_tuple = space.encode([next(iter(a.finals)) for a in bundle.automata])
    with_final = StaggeredCut(
        cut.n_letters,
        cut.sizes,
        tuple(mask | (1 << final_tuple) if i < cut.n_letters else mask for i, mask in enumerate(cut.sets)),
    )
    assert verify_staggered_cut(bundle, with_final).condition == "final-present"

    unequal = StaggeredCut(
        cut.n_letters,
        cut.sizes,
        (cut.sets[0] | 0b1000, cut.sets[1]) + cut.sets[2:],
    )
    verdict = verify_staggered_cut(bundle, unequal)
    assert verdict.condition in ("base-copy-mismatch", "final-present", "closure")

    wrong_shape = StaggeredCut(cut.n_letters, (3, 2), cut.sets)
    assert verify_staggered_cut(bundle, wrong_shape).condition == "shape"
    with pytest.raises(ValueError):
        build_in_out(bundle, wrong_shape)


def test_cleared_bit_mutations_rejected_with_named_condition():
    rng = random.Random("mutcut")
    checked = 0
    for seed in range(30):
        bundle = random_bundle(2, 2, 2, 0.3, ("mutcut", seed))
        if not decide_empty(bundle).empty:
            continue
        cut = extract_staggered_cut(bundle)
        set_bits = [
            (idx, bit)
            for idx, mask in enumerate(cut.sets)
            for bit in range(mask.bit_length())
            if (mask >> bit) & 1
        ]
        if not set_bits:
            continue
        for _ in range(3):
            idx, bit = rng.choice(set_bits)
            sets = list(cut.sets)
            sets[idx] &= ~(1 << bit)
            mutated = StaggeredCut(cut.n_letters, cut.sizes, tuple(sets))
            fast = verify_staggered_cut(bundle, mutated)
            slow = verify_staggered_cut_naive(bundle, mutated)
            assert not fast.ok and fast.condition is not None
            assert slow.ok == fast.ok and slow.condition == fast.condition
            checked += 1
    assert checked >= 20


def test_naive_verifier_empty_and_full_cuts():
    bundle = _disjoint_singletons()
    k, l = bundle.k, bundle.n_letters
    empty = StaggeredCut(l, (2, 2), (0,) * (k * l))
    for verifier in (verify_staggered_cut, verify_staggered_cut_naive):
        verdict = verifier(bundle, empty)
        assert verdict.condition == "initial-missing"
    full = StaggeredCut(l, (2, 2), (0xF,) * (k * l))
    for verifier in (verify_staggered_cut, verify_staggered_cut_naive):
        verdict = verifier(bundle, full)
        assert verdict.condition == "final-present"  # finals product is non-empty


@pytest.mark.parametrize("seed", range(10))
def test_verifiers_agree_on_random_cuts(seed):
    rng = random.Random(("agree", seed).__repr__())
    bundle = random_bundle(2, 2, 2, 0.4, ("agree", seed))
    space_bits = 4
    sets = tuple(rng.getrandbits(space_bits) for _ in range(bundle.k * bundle.n_letters))
    cut = StaggeredCut(bundle.n_letters, (2, 2), sets)
    fast = verify_staggered_cut(bundle, cut)
    slow = verify_staggered_cut_naive(bundle, cut)
    assert fast.ok == slow.ok
    assert fast.condition == slow.condition


# --- packed closure check against the In/Out matrix route ------------------------

def _in_out_route(bundle, cut):
    """Reference closure check: reshape every subset into In/Out matrices,
    multiply Out by the adjacency matrix and report the first violating
    entry of In, row-major.  Conditions other than closure are shared with
    the naive verifier."""
    shared = verify_staggered_cut_naive(bundle, cut)
    if shared.condition not in (None, "closure"):
        return shared
    mats = build_in_out(bundle, cut)
    k = cut.k
    for p, automaton in enumerate(bundle.automata):
        for letter in range(cut.n_letters):
            moved = mats.out_mat(p, letter).mul(adjacency_matrix(automaton, letter))
            entry = moved.violating_entry(mats.in_mat((p + 1) % k, letter))
            if entry is not None:
                return Verdict(False, "closure", (p, letter) + entry)
    return ACCEPT


def _final_tuples_by_enumeration(bundle, space):
    mask = 0
    for combo in itertools.product(*[sorted(a.finals) for a in bundle.automata]):
        mask |= 1 << space.encode(combo)
    return mask


def _random_unequal_bundle(rng, k, n_letters):
    automata = []
    for i in range(k):
        n = 2 + (i + rng.randrange(3)) % 4
        transitions = [
            (q, s, d) for q in range(n) for s in range(n_letters) for d in range(n) if rng.random() < 0.35
        ]
        finals = frozenset(q for q in range(n) if rng.random() < 0.3)
        automata.append(Nfa(n, n_letters, tuple(transitions), rng.randrange(n), finals))
    return InstanceBundle(tuple(automata))


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("seed", range(8))
def test_packed_closure_matches_in_out_route_on_random_cuts(k, seed):
    rng = random.Random(f"packed-{k}-{seed}")
    bundle = _random_unequal_bundle(rng, k, 2 + seed % 2)
    sizes = tuple(a.n_states for a in bundle.automata)
    space = ProductSpace(sizes, 1)
    n_bits = space.base_size
    initial = space.encode([a.initial for a in bundle.automata])
    base = (rng.getrandbits(n_bits) | 1 << initial) & ~_final_tuples_by_enumeration(bundle, space)
    l = bundle.n_letters
    # Subsets 1..depth are full, so the closure checks before ``depth`` hold
    # and check ``depth`` (exposing component ``depth``) meets a random target.
    for depth in range(k):
        sets = [base] * l
        for p in range(1, k):
            sets += [(1 << n_bits) - 1 if p <= depth else rng.getrandbits(n_bits) for _ in range(l)]
        cut = StaggeredCut(l, sizes, tuple(sets))
        assert verify_staggered_cut(bundle, cut) == _in_out_route(bundle, cut)


def test_packed_closure_matches_in_out_route_on_corpus_cuts():
    rng = random.Random("packed-corpus")
    cuts = 0
    exposed = set()
    for name, bundle in acceptance_corpus():
        if not decide_empty(bundle).empty:
            continue
        cut = extract_staggered_cut(bundle)
        assert verify_staggered_cut(bundle, cut) == _in_out_route(bundle, cut) == ACCEPT, name
        cuts += 1
        volley_bits = [
            (idx, bit)
            for idx in range(cut.n_letters, len(cut.sets))
            for bit in range(cut.sets[idx].bit_length())
            if (cut.sets[idx] >> bit) & 1
        ]
        for idx, bit in rng.sample(volley_bits, min(3, len(volley_bits))):
            sets = list(cut.sets)
            sets[idx] &= ~(1 << bit)
            mutated = StaggeredCut(cut.n_letters, cut.sizes, tuple(sets))
            verdict = verify_staggered_cut(bundle, mutated)
            assert verdict == _in_out_route(bundle, mutated), (name, idx, bit)
            if verdict.condition == "closure":
                exposed.add(verdict.where[0])
    assert cuts >= 50
    assert exposed >= {0, 1}  # component 1 exposed: rows are not lowest-bit order


def test_final_mask_matches_enumeration():
    bundles = [bundle for _, bundle in acceptance_corpus()[::10]]
    rng = random.Random("finals")
    bundles += [_random_unequal_bundle(rng, k, 2) for k in (2, 3, 4) for _ in range(5)]
    for bundle in bundles:
        space = ProductSpace(tuple(a.n_states for a in bundle.automata), 1)
        finals = space.product_mask([a.finals for a in bundle.automata])
        assert finals == _final_tuples_by_enumeration(bundle, space)


# --- hostile sizes and the state budget ---------------------------------------------

def _huge_bundle():
    a = Nfa(3_000_000_000, 1, ((0, 0, 1),), 0, frozenset({1}))
    return InstanceBundle((a, a))


def test_huge_declared_cut_raises_budget_not_memory_error():
    bundle = _huge_bundle()
    cut = StaggeredCut(1, (3_000_000_000, 3_000_000_000), (1, 1))
    for verifier in (verify_staggered_cut, verify_staggered_cut_naive):
        with pytest.raises(BudgetExceeded):
            verifier(bundle, cut)


def test_huge_declared_cut_exits_2_from_cli(tmp_path, capsys):
    from nfai.cli import main

    bundle_file = tmp_path / "huge.nfa"
    bundle_file.write_text(serialize_bundle(_huge_bundle()))
    cert_file = tmp_path / "huge.cert"
    cert_file.write_text(
        "nfa-cert v1\ncut\nk 2\nalphabet 1\nstates 3000000000 3000000000\n"
        "set 0 0 01\nset 1 0 01\n"
    )
    assert main(["verify", str(bundle_file), str(cert_file)]) == 2
    assert "budget" in capsys.readouterr().err


def test_huge_declared_cut_serialization_raises_budget(monkeypatch):
    cut = StaggeredCut(1, (3_000_000_000, 3_000_000_000), (1, 1))
    with pytest.raises(BudgetExceeded, match="cut tuple space has 9000000000000000000 tuples"):
        serialize_certificate(cut)
    small = StaggeredCut(1, (2, 2), (1, 1))
    monkeypatch.setenv("NFAI_STATE_BUDGET", "4")  # exactly the 2x2 tuple space
    assert parse_certificate(serialize_certificate(small)) == small
    monkeypatch.setenv("NFAI_STATE_BUDGET", "3")
    with pytest.raises(BudgetExceeded):
        serialize_certificate(small)


def test_many_cut_checks_build_the_tuple_space_once(monkeypatch):
    # criterion 4's sweep checks hundreds of cuts against each bundle; the
    # tuple space, initial tuple and final mask are derived once per bundle
    built = []
    init = ProductSpace.__init__

    def counting_init(self, sizes, n_tags):
        built.append(tuple(sizes))
        init(self, sizes, n_tags)

    cut = extract_staggered_cut(complete_empty_bundle())
    bundle = complete_empty_bundle()
    monkeypatch.setattr(ProductSpace, "__init__", counting_init)
    for bit in range(45):  # five rounds over the 9 tuples
        sets = tuple(mask & ~(1 << bit % 9) for mask in cut.sets)
        mutated = StaggeredCut(cut.n_letters, cut.sizes, sets)
        for verifier in (verify_staggered_cut, verify_staggered_cut_naive):
            assert verifier(bundle, cut).ok
            assert not verifier(bundle, mutated).ok
    assert built == [cut.sizes]


def test_cut_budget_boundary_and_mask_width(monkeypatch):
    bundle = _disjoint_singletons()
    cut = extract_staggered_cut(bundle)
    monkeypatch.setenv("NFAI_STATE_BUDGET", "4")  # exactly the 2x2 tuple space
    assert verify_staggered_cut(bundle, cut).ok
    wide = StaggeredCut(cut.n_letters, cut.sizes, cut.sets[:-1] + (cut.sets[-1] | 1 << 4,))
    assert verify_staggered_cut(bundle, wide).condition == "shape"
    monkeypatch.setenv("NFAI_STATE_BUDGET", "3")
    with pytest.raises(BudgetExceeded):
        verify_staggered_cut(bundle, cut)


def test_cut_extraction_honours_state_budget(monkeypatch):
    bundle = complete_empty_bundle()
    explored = decide_empty(bundle).explored_states
    monkeypatch.setenv("NFAI_STATE_BUDGET", str(explored))
    assert verify_staggered_cut(bundle, extract_staggered_cut(bundle)).ok
    monkeypatch.setenv("NFAI_STATE_BUDGET", str(explored - 1))
    with pytest.raises(BudgetExceeded):
        extract_staggered_cut(bundle)


def _sparse_wide_bundle(n):
    """Two n-state components: empty, 3 accessible nodding states, n*n tuples."""
    a = Nfa(n, 1, ((0, 0, 1),), 0, frozenset({1}))
    b = Nfa(n, 1, ((0, 0, 0),), 0, frozenset())
    return InstanceBundle((a, b))


def test_cut_extraction_checks_tuple_space_against_budget(monkeypatch):
    bundle = _sparse_wide_bundle(10)
    monkeypatch.setenv("NFAI_STATE_BUDGET", "100")  # exactly the 10x10 tuple space
    cut = extract_staggered_cut(bundle)
    assert verify_staggered_cut(bundle, cut).ok
    monkeypatch.setenv("NFAI_STATE_BUDGET", "99")  # still far above the 3 states explored
    with pytest.raises(BudgetExceeded, match="cut tuple space has 100 tuples"):
        extract_staggered_cut(bundle)


# --- empty alphabet ---------------------------------------------------------------

def _letterless_bundle(all_initial_final):
    a = Nfa(1, 0, (), 0, frozenset({0}) if all_initial_final else frozenset())
    b = Nfa(2, 0, (), 1, frozenset({1}))
    return InstanceBundle((a, b))


def test_letterless_cut_valid_iff_initial_tuple_not_final():
    empty = _letterless_bundle(False)
    cut = extract_staggered_cut(empty)
    assert cut == StaggeredCut(0, (1, 2), ())
    for verifier in (verify_staggered_cut, verify_staggered_cut_naive):
        assert verifier(empty, cut) == ACCEPT
        # the initial tuple (0, 1) is encoded as 0 + 1 * 1
        assert verifier(_letterless_bundle(True), cut) == Verdict(False, "final-present", (1,))


# --- In/Out matrices ------------------------------------------------------------

def test_in_out_zero_and_full():
    bundle = _disjoint_singletons()
    k, l = bundle.k, bundle.n_letters
    n_tuples = 4
    empty = StaggeredCut(l, (2, 2), (0,) * (k * l))
    mats = build_in_out(bundle, empty)
    assert all(m.count_ones() == 0 for m in mats.in_mats + mats.out_mats)
    full = StaggeredCut(l, (2, 2), ((1 << n_tuples) - 1,) * (k * l))
    mats = build_in_out(bundle, full)
    assert all(m.count_ones() == m.rows * m.cols for m in mats.in_mats + mats.out_mats)


def test_in_out_cross_indexing():
    rng = random.Random("inout")
    a = Nfa(3, 2, ((0, 0, 1),), 0, frozenset({1}))
    b = Nfa(2, 2, ((0, 1, 1),), 0, frozenset({1}))
    bundle = InstanceBundle((a, b))
    space = ProductSpace((3, 2), 1)
    sets = tuple(rng.getrandbits(6) for _ in range(4))
    cut = StaggeredCut(2, (3, 2), sets)
    mats = build_in_out(bundle, cut)
    for letter in range(2):
        out0 = mats.out_mat(0, letter)  # rows: component-1 states, cols: component-0 states
        in1 = mats.in_mat(1, letter)
        for q0 in range(3):
            for q1 in range(2):
                member = (cut.set_for(0, letter) >> space.encode((q0, q1))) & 1
                assert out0.get(q1, q0) == member
                member1 = (cut.set_for(1, letter) >> space.encode((q0, q1))) & 1
                assert in1.get(q1, q0) == member1


# --- soundness (scaled; the exhaustive sweep lives in the acceptance suite) ------

def test_no_cut_accepted_for_a_nonempty_instance():
    a = Nfa(2, 1, ((0, 0, 1),), 0, frozenset({1}))
    bundle = InstanceBundle((a, a))
    for bits in itertools.product(range(16), repeat=2):
        cut = StaggeredCut(1, (2, 2), bits)
        assert not verify_staggered_cut(bundle, cut).ok


# --- serialization ---------------------------------------------------------------

def test_pathset_serialization_roundtrip():
    bundle = clique_bundle(example_clique_graph(), 4)
    ps = extract_short_pathset(bundle, decide_empty(bundle))
    text = serialize_certificate(ps)
    assert text.startswith("nfa-cert v1\npathset\n")
    assert parse_certificate(text) == ps


def test_serialized_certificate_is_its_lines_newline_ended():
    bundle = clique_bundle(example_clique_graph(), 4)
    ps = extract_short_pathset(bundle, decide_empty(bundle))
    for cert in (ps, extract_staggered_cut(_disjoint_singletons())):
        text = serialize_certificate(cert)
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert text == "".join(line + "\n" for line in text.splitlines())


def test_cut_serialization_roundtrip_and_hex():
    bundle = _disjoint_singletons()
    cut = extract_staggered_cut(bundle)
    text = serialize_certificate(cut)
    assert text.startswith("nfa-cert v1\ncut\n")
    assert parse_certificate(text) == cut
    for line in text.splitlines():
        if line.startswith("set "):
            hex_part = line.split()[-1]
            assert hex_part == hex_part.lower()
            assert len(hex_part) == 2  # 4 tuple bits fit one byte


def test_certificate_parse_errors():
    from nfai.fileformat import FormatError

    with pytest.raises(FormatError):
        parse_certificate("not a certificate\n")
    with pytest.raises(FormatError):
        parse_certificate("nfa-cert v1\npathset\nword 0\n")  # missing k and runs


#: A valid two-component cut over one letter, its lines numbered 1-7.
SMALL_CUT = "nfa-cert v1\ncut\nk 2\nalphabet 1\nstates 2 2\nset 0 0 01\nset 1 0 01\n"


@pytest.mark.parametrize(
    "text,line,message",
    [
        (SMALL_CUT + "set 0 0 03\n", 8, "duplicate 'set 0 0' line"),
        (SMALL_CUT.replace("set 1 0 01\n", "set 0 0 01\nset 1 0 01\n"), 7, "duplicate 'set 0 0' line"),
        (SMALL_CUT + "set 7 99 00\n", 8, "'set 7 99' is outside k=2 and alphabet=1"),
        (SMALL_CUT + "set -1 0 00\n", 8, "'set -1 0' is outside k=2 and alphabet=1"),
        ("nfa-cert v1\ncut\nset 0 1 00\nk 2\nalphabet 1\nstates 2 2\nset 0 0 01\nset 1 0 01\n", 3,
         "'set 0 1' is outside k=2 and alphabet=1"),
        (SMALL_CUT + "k 2\n", 8, "duplicate 'k' line"),
        (SMALL_CUT + "alphabet 1\n", 8, "duplicate 'alphabet' line"),
        (SMALL_CUT + "states 2 2\n", 8, "duplicate 'states' line"),
        ("nfa-cert v1\npathset\nk 1\nword 0\nword 1\nrun 0\nstep 0 0 1\n", 5, "duplicate 'word' line"),
        ("nfa-cert v1\npathset\nk 1\nword 0\nk 1\nrun 0\nstep 0 0 1\n", 5, "duplicate 'k' line"),
    ],
    ids=["set-appended", "set-before", "set-out-of-range", "set-negative", "set-before-header", "k", "alphabet",
         "states", "pathset-word", "pathset-k"],
)
def test_certificate_parser_refuses_repeated_and_out_of_range_lines(text, line, message):
    """A repeated directive or subset, or a subset outside the declared cut,
    is refused at its line instead of silently winning or being dropped."""
    from nfai.fileformat import FormatError

    with pytest.raises(FormatError) as info:
        parse_certificate(text)
    assert str(info.value) == f"line {line}: {message}"
