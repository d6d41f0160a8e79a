import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nfai import products
from nfai.automata import EPSILON, InstanceBundle, Nfa, accepts, adjacency_matrix, epsilon_accepts
from nfai.boolmatrix import BoolMatrix
from nfai.hardness import random_bundle, random_nfa
from nfai.oracle import BundleAcceptor, DetAcceptor, StutterAcceptor, difference_witness
from nfai.products import (
    CONSTRUCTIONS,
    SIZE_BOUNDS,
    _NO_MOVES,
    BudgetExceeded,
    ProductSpace,
    accessible_part,
    accessible_stats,
    builder_for,
    m_leq_k,
    materialize,
    nodding_copy,
    nodding_tag,
    reachable,
    stats_csv_row,
    word_copy,
    word_tag,
)

from helpers import (
    acceptance_corpus, all_words, bundles, catchup_block, catchup_reference, catchup_tags,
    direct_successors_reference, leapfrog_block, leapfrog_reference, leapfrog_tags, reach_map,
    word_relations_reference,
)


def small_bundles(count, k=2, n=3, l=2):
    for seed in range(count):
        for density in (0.25, 0.6, 1.0):
            yield random_bundle(k, n, l, density, ("prod", k, seed, density))


# --- state encoding -----------------------------------------------------------

@given(st.lists(st.integers(1, 5), min_size=2, max_size=4), st.integers(1, 7), st.integers(0, 10**6))
def test_space_encode_decode_roundtrip(sizes, n_tags, pick):
    space = ProductSpace(sizes, n_tags)
    sid = pick % space.total
    components, tag = space.decode(sid)
    assert space.encode(components, tag) == sid
    assert all(0 <= q < n for q, n in zip(components, sizes))
    assert 0 <= tag < n_tags
    for i in range(len(sizes)):
        assert space.component(sid, i) == components[i]


def test_base_copy_occupies_contiguous_prefix():
    space = ProductSpace((3, 4), 5)
    for sid in range(space.total):
        _, tag = space.decode(sid)
        assert (tag == 0) == (sid < space.base_size)


def _members(space, mask):
    return [space.decode(t)[0] for t in range(space.base_size) if (mask >> t) & 1]


@given(st.lists(st.integers(1, 5), min_size=2, max_size=4), st.data())
def test_space_masks_match_tuple_by_tuple_reference(sizes, data):
    space = ProductSpace(sizes, 3)
    tuples = [space.decode(t)[0] for t in range(space.base_size)]
    for i, zero in enumerate(space.zero_masks):
        assert _members(space, zero) == [c for c in tuples if c[i] == 0]

    choices = [data.draw(st.sets(st.integers(0, n - 1))) for n in sizes]
    assert _members(space, space.product_mask(choices)) == [
        c for c in tuples if all(q in allowed for q, allowed in zip(c, choices))
    ]

    mask = data.draw(st.integers(0, (1 << space.base_size) - 1))
    i = data.draw(st.integers(0, len(sizes) - 1))
    targets = [data.draw(st.sets(st.integers(0, sizes[i] - 1))) for _ in range(sizes[i])]
    expected = set()
    for c in _members(space, mask):
        for d in targets[c[i]]:
            expected.add(c[:i] + (d,) + c[i + 1:])
    moves = {q: dsts for q, dsts in enumerate(targets) if dsts}
    assert set(_members(space, space.move(mask, i, moves))) == expected

    if mask:
        # row-major order of the matrix exposing component i: rows are the
        # other components in mixed radix, lowest component least significant
        def row(c):
            return ProductSpace(sizes[:i] + sizes[i + 1:], 1).encode(c[:i] + c[i + 1:])

        first = min(_members(space, mask), key=lambda c: (row(c), c[i]))
        assert space.first_entry(mask, i) == (row(first), first[i])


# --- reachability relations ----------------------------------------------------

def reference_relation(a, word):
    """Boolean product of the per-letter adjacency matrices of ``word``, in
    order; the identity for the empty word."""
    matrix = BoolMatrix.identity(a.n_states)
    for letter in word:
        matrix = matrix.mul(adjacency_matrix(a, letter))
    return matrix


def dense_rows(a, rows):
    """Sparse ``reach_map`` rows as one row per state, 0 where absent."""
    return tuple(rows.get(q, 0) for q in range(a.n_states))


def relation_of(a, word):
    """The ``reach_map`` rows of ``word`` as a matrix; the identity for the
    empty word, which ``reach_map`` leaves out."""
    if not word:
        return BoolMatrix.identity(a.n_states)
    return BoolMatrix(a.n_states, a.n_states, dense_rows(a, reach_map(a, len(word))[tuple(word)]))


def test_reach_relation_empty_word_is_identity():
    # reach_map builds no identity rows; m_leq_k counts the empty word's n
    # pairs without them, so a bundle with no transitions still gives n
    a = random_nfa(4, 2, 0.5, "reach")
    assert reach_map(a, 0) == {}
    assert () not in reach_map(a, 2)
    assert relation_of(a, ()) == BoolMatrix.identity(4)
    still = Nfa(4, 2, (), 0, frozenset())
    assert m_leq_k(InstanceBundle((still, Nfa(3, 2, (), 0, frozenset())))) == 4


def test_reach_relation_single_letter_is_adjacency():
    a = random_nfa(4, 2, 0.5, "reach1")
    assert relation_of(a, (1,)) == adjacency_matrix(a, 1)


def test_reach_relation_chain():
    chain = Nfa(3, 2, ((0, 0, 1), (1, 1, 2)), 0, frozenset({2}))
    table = reach_map(chain, 2)
    assert table[(0, 1)] == {0: 0b100}  # rows only for the states that move
    assert table[(1, 0)] == {} and table[(0,)] == {0: 0b10}


@given(st.integers(0, 50), st.integers(1, 3), st.integers(0, 3))
def test_reach_relation_composes(seed, split, extra):
    a = random_nfa(4, 2, 0.5, ("compose", seed))
    u = tuple((seed + i) % 2 for i in range(split))
    v = tuple((seed + i) % 2 for i in range(extra))
    combined = relation_of(a, u + v)
    assert combined == relation_of(a, u).mul(relation_of(a, v))
    assert combined == reference_relation(a, u + v)


def test_reach_map_consistent_with_reach_relation():
    a = random_nfa(3, 2, 0.7, "reachmap")
    table = reach_map(a, 3)
    assert sorted(table) == sorted(w for w in all_words(2, 3) if w)
    for word, rows in table.items():
        assert all(rows.values())
        assert dense_rows(a, rows) == reference_relation(a, word).row_bits


def test_m_leq_k_bounded_by_n_squared():
    for bundle in small_bundles(3):
        assert m_leq_k(bundle) <= bundle.max_states ** 2


def test_m_leq_k_matches_subset_simulation_on_corpus():
    """m_leq_k against a brute force: per component and word of length <= k,
    count the pairs (p, q) with q reached from p by subset simulation."""
    for _, bundle in acceptance_corpus():
        best = 0
        for a in bundle.automata:
            for word in all_words(bundle.n_letters, bundle.k):
                pairs = 0
                for p in range(a.n_states):
                    current = {p}
                    for letter in word:
                        current = {d for q in current for d in a.successors(q, letter)}
                    pairs += len(current)
                best = max(best, pairs)
        assert m_leq_k(bundle) == best


def _bit_positions(row):
    return tuple(d for d in range(row.bit_length()) if row >> d & 1)


@given(bundles())
def test_word_relations_match_reach_map(bundle):
    """Differential check of the distinct-relation closure: the successor
    lists of each word's relation, found through the step table, equal its
    reference reach rows, words of equal relations share one dict, and
    m_leq_k equals a subset-simulation brute force over every word of
    length <= k."""
    k, prepared = bundle.k, bundle.prepared
    best = bundle.max_states
    for a, relations in zip(bundle.automata, prepared.relations):
        reference, lists = reach_map(a, k), relations.lists
        shared = {}
        for u, rows in reference.items():
            word_lists = lists[relations.of(u)]
            assert word_lists == {q: _bit_positions(row) for q, row in rows.items()}
            assert shared.setdefault(tuple(sorted(rows.items())), word_lists) is word_lists
            pairs = 0
            for p in range(a.n_states):
                current = {p}
                for letter in u:
                    current = {d for q in current for d in a.successors(q, letter)}
                pairs += len(current)
            best = max(best, pairs)
        # the words of one relation share its dict, and each relation has one
        assert len({id(lists[relations.of(u)]) for u in reference}) == len(shared)
        assert len({id(lists[r]) for r in range(len(relations.rows))}) == len(relations.rows)
    assert m_leq_k(bundle) == best


#: ``products.PUSH_ROWS`` values that push every relation through the moves
#: entering its rows, pull every one letter by letter, and choose by the rule
ALL_PUSH, ALL_PULL, BY_RULE = 0, 1 << 62, products.PUSH_ROWS


def _check_word_relations(bundle):
    """Pushed, pulled or chosen by the rule, every component's closure
    interns the reference's relations under the same ids, and keeps the same
    letters, successor dicts and non-zero steps."""
    k = bundle.k
    for letters in bundle.prepared.letters:
        want = word_relations_reference(letters, k)
        for push in (ALL_PUSH, ALL_PULL, BY_RULE):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(products, "PUSH_ROWS", push)
                got = products._word_relations(letters, k)
            assert [list(rows.items()) for rows in got.rows] == [list(rows.items()) for rows in want.rows]
            assert got.letters == want.letters
            assert got.step == {key: r for key, r in want.step.items() if r}
            assert all(got.lists[r] == want.lists[r] for r in range(len(want.rows)))


def test_word_relations_match_the_reference_on_the_corpus():
    for _, bundle in acceptance_corpus():
        _check_word_relations(bundle)


@given(bundles())
def test_word_relations_match_the_reference(bundle):
    _check_word_relations(bundle)


@pytest.mark.parametrize("seed", range(3))
def test_word_relations_match_the_reference_over_30_letters(seed):
    _check_word_relations(random_bundle(3, 3, 30, 0.1, ("relations", seed)))


@given(bundles())
def test_word_relations_keep_no_empty_step(bundle):
    """``step`` holds no empty relation, and a word whose relation is empty
    walks it to relation 0."""
    for a, relations in zip(bundle.automata, bundle.prepared.relations):
        assert 0 not in relations.step.values()
        for u, rows in reach_map(a, bundle.k).items():
            assert (relations.of(u) == 0) == (not rows)


def test_m_leq_k_holds_one_table_at_a_time(monkeypatch):
    # m_leq_k builds each component's distinct relations once, from the
    # prepared letter lists, and no table per word nor successor lists past
    # the letters' own; the relations of the 30-letter bundle repeat, so
    # they number far fewer than its words
    import nfai.products as products

    relations, calls = products._word_relations, []
    monkeypatch.setattr(products, "_word_relations",
                        lambda letters, max_len: calls.append(letters) or relations(letters, max_len))
    bundle = random_bundle(3, 3, 30, 0.1, "once")
    stats, _ = accessible_stats("nodding", bundle)
    assert list(map(id, calls)) == list(map(id, bundle.prepared.letters))
    assert all(len(r.lists) == len(set(r.letters.values())) for r in bundle.prepared.relations)
    assert stats.m_leq_k == m_leq_k(bundle) and len(calls) == bundle.k
    n_words = sum(30 ** length for length in range(1, 4))
    assert all(len(r.rows) < n_words // 100 for r in bundle.prepared.relations)


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_reach_rows_built_once_per_stats_call(construction, monkeypatch):
    # one accessible_stats call closes each component's word relations
    # once: catch-up and leapfrog fill their copies from them, which
    # m_leq_k then shares; the others build them in m_leq_k alone
    import nfai.products as products

    relations, calls = products._word_relations, []
    monkeypatch.setattr(products, "_word_relations",
                        lambda letters, max_len: calls.append(1) or relations(letters, max_len))
    bundle = random_bundle(3, 3, 2, 0.6, "rows")
    stats, _ = accessible_stats(construction, bundle)
    assert len(calls) == bundle.k
    assert stats.m_leq_k == m_leq_k(InstanceBundle(bundle.automata))


def test_prepared_tables_freed_with_the_bundle():
    # the prepared tables must not point back at the bundle that caches
    # them: such a cycle would keep them alive until the cycle collector ran
    import gc
    import weakref

    bundle = random_bundle(2, 3, 2, 0.6, "freed")
    accessible_stats("catchup", bundle)
    prepared = weakref.ref(bundle.prepared)
    gc.disable()
    try:
        del bundle
        assert prepared() is None
    finally:
        gc.enable()


# --- direct product -----------------------------------------------------------

def test_direct_product_of_self_loops():
    a = Nfa(1, 1, ((0, 0, 0),), 0, frozenset({0}))
    product = materialize("direct", InstanceBundle((a, a)))
    assert product.n_states == 1
    assert product.transitions == ((0, 0, 0),)
    assert accepts(product, (0, 0, 0))


@given(bundles())
def test_direct_successors_equal_the_reference(bundle):
    # the stride sums give the sorted (label, id) list of itertools.product
    # and encode, element for element, on every state
    builder = builder_for("direct", bundle)
    for sid in range(builder.total_states()):
        assert builder.successors(sid) == direct_successors_reference(builder, sid)


def test_direct_successors_skip_a_letter_a_later_component_does_not_move_on():
    # from (0, 0, 0) components 0 and 1 move on both letters, component 2
    # on letter 1 only: letter 0 gives no successor, letter 1 the four
    # tuples (x, y, 1) with ids 4 + x + 2y, ascending
    a = Nfa(2, 2, ((0, 0, 1), (0, 1, 0), (0, 1, 1)), 0, frozenset({1}))
    c = Nfa(2, 2, ((0, 1, 1),), 0, frozenset({1}))
    builder = builder_for("direct", InstanceBundle((a, a, c)))
    assert builder.successors(0) == [(1, 4), (1, 5), (1, 6), (1, 7)] == direct_successors_reference(builder, 0)
    # with component 2 in its state 1, which has no move, nothing moves
    assert builder.successors(4) == [] == direct_successors_reference(builder, 4)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_direct_walk_counts_the_cartesian_product(n):
    # the paper's separation on the walked counts: two complete n-state
    # relations over two letters give the direct walk all n^2 tuples and
    # 2 n^4 transitions, the nodding product 4 n^3
    complete = tuple((p, s, q) for p in range(n) for s in range(2) for q in range(n))
    bundle = InstanceBundle((Nfa(n, 2, complete, 0, frozenset()), Nfa(n, 2, complete, 0, frozenset({0}))))
    direct, _ = accessible_stats("direct", bundle)
    assert (direct.states_accessible, direct.transitions_accessible) == (n ** 2, 2 * n ** 4)
    assert accessible_stats("nodding", bundle)[0].transitions_accessible == 4 * n ** 3


def test_direct_product_empty_finals():
    a = Nfa(2, 1, ((0, 0, 1),), 0, frozenset({1}))
    b = Nfa(2, 1, ((0, 0, 1),), 0, frozenset())
    assert materialize("direct", InstanceBundle((a, b))).finals == frozenset()


# --- nodding product ------------------------------------------------------------

def test_nodding_copy_count():
    # the copies are numbered arithmetically and each is filled on first
    # lookup, so a walk fills exactly the copies it reaches
    for k, l in ((2, 3), (3, 2), (3, 3)):
        bundle = random_bundle(k, 2, l, 0.5, ("copies", k, l))
        builder = builder_for("nodding", bundle)
        assert builder.space.n_tags == (k - 1) * l + 1
        assert builder.moves is bundle.prepared.nodding and not builder.moves
        reached = {sid // builder.space.base_size for sid, _ in reachable(builder)}
        assert set(builder.moves) == reached
        for copy in range(1, builder.space.n_tags):
            letter, j = nodding_tag(copy, k)
            assert nodding_copy(letter, j, k) == copy
            [(comp, lists, label, nxt)] = builder.moves[copy]
            assert (comp, label, nxt) == (j, EPSILON, nodding_copy(letter, j + 1, k) if j < k - 1 else 0)
            assert lists is bundle.prepared.letters[j].get(letter, _NO_MOVES)


def test_nodding_size_bounds():
    for bundle in small_bundles(3, k=3):
        k, l, n, m = bundle.k, bundle.n_letters, bundle.max_states, bundle.max_transitions
        product = materialize("nodding", bundle)
        assert product.n_states <= (k * l - l + 1) * n ** k
        assert product.m <= k * m * n ** (k - 1)


def test_nodding_three_petals_for_three_letters():
    bundle = random_bundle(2, 2, 3, 0.8, "petals")
    builder = builder_for("nodding", bundle)
    assert builder.space.n_tags == 4  # base plus one copy per letter
    product = materialize("nodding", bundle)
    base = builder.space.base_size
    for (src, label, dst) in product.transitions:
        src_tag, dst_tag = src // base, dst // base
        if label == EPSILON:
            assert src_tag != 0 and dst_tag == 0
        else:
            assert src_tag == 0 and dst_tag == 1 + label * (bundle.k - 1)


def test_nodding_volley_structure():
    bundle = random_bundle(3, 2, 2, 0.7, "volley")
    builder = builder_for("nodding", bundle)
    space = builder.space
    product = materialize("nodding", bundle)
    for (src, label, dst) in product.transitions:
        src_comps, src_tag = space.decode(src)
        dst_comps, dst_tag = space.decode(dst)
        if label != EPSILON:
            # a letter is consumed from the base copy; only component 0 moves
            assert src_tag == 0
            letter, volley = nodding_tag(dst_tag, bundle.k)
            assert (letter, volley) == (label, 1)
            assert src_comps[1:] == dst_comps[1:]
            assert (src_comps[0], label, dst_comps[0]) in bundle.automata[0].transitions
        else:
            letter, volley = nodding_tag(src_tag, bundle.k)
            assert 1 <= volley <= bundle.k - 1
            moved = volley
            for j in range(bundle.k):
                if j != moved:
                    assert src_comps[j] == dst_comps[j]
            assert (src_comps[moved], letter, dst_comps[moved]) in bundle.automata[moved].transitions
            if volley == bundle.k - 1:
                assert dst_tag == 0
            else:
                assert nodding_tag(dst_tag, bundle.k) == (letter, volley + 1)


def test_nodding_language_small():
    for bundle in small_bundles(3):
        product = materialize("nodding", bundle)
        assert difference_witness(DetAcceptor(product), BundleAcceptor(bundle), bundle.n_letters, 8) is None


def test_nodding_accepts_via_epsilon_subset_simulation():
    bundle = random_bundle(2, 3, 2, 0.6, "nodacc")
    product = materialize("nodding", bundle)
    for word in itertools.product(range(2), repeat=4):
        assert epsilon_accepts(product, word) == all(accepts(a, word) for a in bundle.automata)


# --- echoing product ------------------------------------------------------------

def test_echoing_accepts_exactly_stutterings():
    for bundle in small_bundles(2):
        product = materialize("echoing", bundle)
        assert difference_witness(DetAcceptor(product), StutterAcceptor(bundle), bundle.n_letters, 8) is None


def test_echoing_rejects_off_block_words():
    bundle = random_bundle(2, 3, 2, 1.0, "echo")
    product = materialize("echoing", bundle)
    assert not accepts(product, (0,))  # length not divisible by k
    assert not accepts(product, (0, 1))  # non-constant block
    word = (1, 0, 1)
    assert not accepts(product, word)


# --- catch-up product -----------------------------------------------------------

def test_catchup_size_bounds():
    for k in (2, 3):
        for bundle in small_bundles(2, k=k):
            product = materialize("catchup", bundle)
            kk, l, n = bundle.k, bundle.n_letters, bundle.max_states
            assert product.n_states <= 2 * kk * l ** kk * n ** kk
            assert product.m <= 2 * kk * l ** kk * m_leq_k(bundle) * n ** (kk - 1)


def test_catchup_two_step_transition_family():
    # component 0 has the path 0 -a-> 1 -b-> 2 and no other a-then-b path
    a0 = Nfa(3, 2, ((0, 0, 1), (1, 1, 2)), 0, frozenset({2}))
    a1 = Nfa(2, 2, ((0, 0, 0), (0, 1, 1)), 0, frozenset({1}))
    bundle = InstanceBundle((a0, a1))
    builder = builder_for("catchup", bundle)
    space = builder.space
    product = materialize("catchup", bundle)
    petal_ab = catchup_tags(2, 2).index(("petal", (0, 1), 1))
    expected = set()
    for q in range(a1.n_states):
        src = space.encode((0, q), 0)
        dst = space.encode((2, q), petal_ab)
        expected.add((src, 0, dst))
    petal_transitions = {
        t for t in product.transitions if t[2] // space.base_size == petal_ab
    }
    assert petal_transitions == expected


def test_catchup_language_including_odd_lengths():
    for k in (2, 3):
        for bundle in small_bundles(2, k=k):
            product = materialize("catchup", bundle)
            assert difference_witness(DetAcceptor(product), BundleAcceptor(bundle), bundle.n_letters, 8) is None


# --- leapfrog product -----------------------------------------------------------

def test_leapfrog_state_bound():
    for k in (2, 3):
        for bundle in small_bundles(2, k=k):
            product = materialize("leapfrog", bundle)
            kk, l, n = bundle.k, bundle.n_letters, bundle.max_states
            assert product.n_states <= 2 * kk * l ** (kk - 1) * n ** kk


def test_leapfrog_two_step_transition_family():
    a0 = Nfa(3, 2, ((0, 0, 1), (1, 1, 2)), 0, frozenset({2}))
    a1 = Nfa(2, 2, ((0, 0, 0), (0, 1, 1)), 0, frozenset({1}))
    bundle = InstanceBundle((a0, a1))
    builder = builder_for("leapfrog", bundle)
    space = builder.space
    product = materialize("leapfrog", bundle)
    src_tag = leapfrog_tags(2, 2).index(("main", 0, (0,)))
    dst_tag = leapfrog_tags(2, 2).index(("main", 1, (1,)))
    expected = set()
    for q in range(a1.n_states):
        src = space.encode((0, q), src_tag)
        dst = space.encode((2, q), dst_tag)
        expected.add((src, 1, dst))
    observed = {
        t
        for t in product.transitions
        if t[0] // space.base_size == src_tag and t[2] // space.base_size == dst_tag
    }
    assert observed == expected


def test_leapfrog_language():
    for k in (2, 3):
        for bundle in small_bundles(2, k=k):
            product = materialize("leapfrog", bundle)
            assert difference_witness(DetAcceptor(product), BundleAcceptor(bundle), bundle.n_letters, 8) is None


# --- catch-up and leapfrog copy tables ------------------------------------------

WORD_COPIES = {
    "catchup": (catchup_tags, catchup_block, catchup_reference),
    "leapfrog": (leapfrog_tags, leapfrog_block, leapfrog_reference),
}


def test_word_copies_numbered_in_tag_order():
    # the copies are numbered arithmetically in the order of the tag lists
    # they replace, which fixes the state ids of --full output
    for k, l in itertools.product((2, 3, 4), (1, 2, 3)):
        bundle = random_bundle(k, 2, l, 0.5, ("numbered", k, l))
        for construction, (tags_of, block_of, _) in WORD_COPIES.items():
            tags, builder = tags_of(k, l), builder_for(construction, bundle)
            assert builder.space.n_tags == len(tags), (k, l, construction)
            for position, tag in enumerate(tags):
                block, word, j = block_of(tag, k)
                assert word_copy(builder.blocks, l, block, word, j) == position
                assert word_tag(builder.blocks, l, position) == (block, word, j)


@given(bundles(), st.sampled_from(sorted(WORD_COPIES)))
def test_word_copies_match_tag_reference(bundle, construction):
    """Differential check against the tag-listing design: each numbered
    copy's volleys and acceptance, filled from the word relations, equal
    the reference's read off reach_map, with the volleys whose word leads
    nowhere left out and the rest in the same order."""
    k, l = bundle.k, bundle.n_letters
    tags_of, _, reference = WORD_COPIES[construction]
    tags = tags_of(k, l)
    position = {tag: p for p, tag in enumerate(tags)}
    maps = [reach_map(a, k) for a in bundle.automata]

    def can_finish(i, word):
        finals = bundle.automata[i].finals
        if not word:
            return finals
        mask = sum(1 << f for f in finals)
        return frozenset(q for q, row in maps[i][word].items() if row & mask)

    builder = builder_for(construction, bundle)
    for p, tag in enumerate(tags):
        volleys, owed = reference(tag, k, l)
        assert builder.moves[p] == [
            (comp, {q: _bit_positions(row) for q, row in maps[comp][word].items()}, label, position[nxt])
            for comp, word, label, nxt in volleys if maps[comp][word]
        ]
        assert builder.accept[p] == (None if owed is None else tuple(map(can_finish, range(k), owed)))


@pytest.mark.parametrize("construction", sorted(WORD_COPIES))
def test_word_copies_filled_on_first_lookup(construction):
    # as nodding's, the copies are filled on first lookup, so a walk fills
    # exactly the copies it reaches, and no acceptance
    unreached = 0
    for k, l in ((2, 3), (3, 2), (3, 3)):
        bundle = random_bundle(k, 2, l, 0.5, ("copies", k, l))
        builder = builder_for(construction, bundle)
        assert not builder.moves and not builder.accept
        reached = {sid // builder.space.base_size for sid, _ in reachable(builder)}
        assert set(builder.moves) == reached and not builder.accept
        unreached += builder.space.n_tags - len(reached)
    assert unreached


# --- materialization consistency -------------------------------------------------

def test_materialized_counts_match_builder_totals():
    # the totals are read off each construction's copy/volley table, so they
    # must match the materialized product.  No sort guards the successor
    # order (label, then target id): it follows from the volleys' order in
    # each copy, so every list is pinned strictly ascending, including those
    # of catch-up's base copy, several volleys per letter from k = 3, l = 2
    for k, l in itertools.product((2, 3, 4), (1, 2, 3)):
        n = 3 if k * l <= 6 else 2
        bundle = random_bundle(k, n, l, 0.6, ("totals", k, l))
        for construction in CONSTRUCTIONS:
            builder = builder_for(construction, bundle)
            product = materialize(construction, bundle)
            assert product.n_states == builder.total_states(), (k, l, construction)
            assert product.m == builder.total_transitions(), (k, l, construction)
            for sid in range(builder.total_states()):
                successors = builder.successors(sid)
                assert successors == sorted(set(successors)), (k, l, construction, sid)
            if construction == "catchup" and k >= 3 and l >= 2:
                labels = [label for _, _, label, _ in builder.moves[0]]
                assert labels == sorted(labels) and len(labels) >= 3 * l


@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("l", [1, 2])
def test_totals_within_size_bounds(k, l):
    # beyond the corpus's k <= 3; at l = 1 catch-up has more than 2k l^k
    # copies from k = 4 on, so its bound is taken at max(l, 2)
    for density in (0.5, 1.0):
        bundle = random_bundle(k, 2, l, density, ("bounds", k, l, density))
        n, m, mk = bundle.max_states, bundle.max_transitions, m_leq_k(bundle)
        for construction in CONSTRUCTIONS:
            builder = builder_for(construction, bundle)
            states, transitions = SIZE_BOUNDS[construction](k, l, n, m, mk)
            assert builder.total_states() <= states, construction
            assert builder.total_transitions() <= transitions, construction


def test_size_bounds_pinned_at_one_point():
    # k=3, l=2, n=4, m=5, m_leq_k=7, computed by hand from the paper's bounds
    expected = {
        "direct": (64, 125),  # n^k, m^k
        "nodding": (320, 240),  # (kl - l + 1) n^k, k m n^(k-1)
        "echoing": (320, 240),
        "catchup": (3072, 5376),  # 2k l^k n^k, 2k l^k m_leq_k n^(k-1)
        "leapfrog": (1536, 5376),  # 2k l^(k-1) n^k, 2k l^k m_leq_k n^(k-1)
    }
    assert {c: SIZE_BOUNDS[c](3, 2, 4, 5, 7) for c in CONSTRUCTIONS} == expected
    # a one-letter alphabet evaluates the catch-up bound at l = 2
    assert SIZE_BOUNDS["catchup"](3, 1, 4, 5, 7) == expected["catchup"]


def test_materialize_budget(monkeypatch):
    bundle = random_bundle(3, 4, 3, 1.0, "budget")
    monkeypatch.setenv("NFAI_STATE_BUDGET", "100")
    with pytest.raises(BudgetExceeded, match=", over the state budget of 100$"):
        materialize("catchup", bundle)


# --- accessible part --------------------------------------------------------------

def test_accessible_part_stuck_initial():
    # component 0's initial state has no outgoing transitions
    a0 = Nfa(2, 1, ((1, 0, 1),), 0, frozenset({1}))
    a1 = Nfa(2, 1, ((0, 0, 1),), 0, frozenset({1}))
    sub, stats = accessible_part("nodding", InstanceBundle((a0, a1)))
    assert stats.states_accessible == 1
    assert stats.transitions_accessible == 0


def test_accessible_states_at_most_transitions_plus_one():
    for construction in CONSTRUCTIONS:
        for bundle in small_bundles(2):
            _, stats = accessible_part(construction, bundle)
            assert stats.states_accessible <= stats.transitions_accessible + 1
            assert stats.states_accessible <= stats.states_total
            assert stats.transitions_accessible <= stats.transitions_total


def test_accessible_nodding_language_equals_materialized():
    for bundle in small_bundles(2):
        sub, _ = accessible_part("nodding", bundle)
        full = materialize("nodding", bundle)
        assert difference_witness(DetAcceptor(sub), DetAcceptor(full), bundle.n_letters, 8) is None


def test_accessible_stats_answer_flag():
    bundle = random_bundle(2, 2, 1, 1.0, "flag")
    stats, nonempty = accessible_stats("nodding", bundle)
    a, b = bundle.automata
    expected = any(
        all(accepts(x, w) for x in (a, b))
        for w in [tuple(word) for length in range(5) for word in itertools.product(range(1), repeat=length)]
    )
    assert nonempty == expected


def test_stats_csv_row_shape():
    bundle = random_bundle(2, 2, 2, 0.5, "csv")
    _, stats = accessible_part("nodding", bundle)
    row = stats_csv_row(stats)
    fields = row.split(",")
    assert fields[0] == "nodding"
    assert len(fields) == 8


def test_unknown_construction_rejected():
    bundle = random_bundle(2, 2, 2, 0.5, "unknown")
    with pytest.raises(ValueError):
        builder_for("zigzag", bundle)


def test_mixed_alphabets_rejected():
    a = Nfa(1, 1, (), 0, frozenset({0}))
    b = Nfa(1, 2, (), 0, frozenset({0}))
    with pytest.raises(ValueError):
        InstanceBundle((a, b))
