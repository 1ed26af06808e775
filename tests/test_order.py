import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vplogic.errors import BoundEdge, KindMismatch, UnknownAtom
from vplogic.order import KIND_OF, NOUN, PART_OF, WAY_OF, Preorder, normalize_id
from vplogic.phrase import VerbPhrase, phrase_leq

from oracles import dfs_pairs, make_kb


def chain_order(*ids, label=KIND_OF):
    p = Preorder(NOUN)
    for ident in ids:
        p.add_atom(ident)
    for lo, hi in zip(ids, ids[1:]):
        p.declare(lo, hi, label)
    return p


# -- declared examples --------------------------------------------------


def test_declare_then_leq():
    p = chain_order("potato", "vegetable")
    assert p.leq("potato", "vegetable")
    assert not p.leq("vegetable", "potato")


def test_self_edge_is_harmless():
    p = Preorder(NOUN)
    p.add_atom("a")
    p.declare("a", "a", KIND_OF)
    assert p.leq("a", "a")
    assert p.generalizations("a") == {"a"}


def test_label_must_match_kind():
    p = Preorder(NOUN)
    p.add_atom("fly")
    p.add_atom("food")
    with pytest.raises(KindMismatch):
        p.declare("fly", "food", WAY_OF)


def test_no_edge_leaves_a_bound():
    kb = make_kb(nouns=["fruit"], verbs=["eat"])
    for order, bound, atom, label in (
        (kb.nouns, "something", "fruit", KIND_OF),
        (kb.verbs, "do", "eat", WAY_OF),
    ):
        with pytest.raises(BoundEdge, match="a phrase bound"):
            order.declare(bound, atom, label)
        assert order.direct_uppers(bound) == [] and order.version == 0
        # Edges into a bound stay legal.
        order.declare(atom, bound, label)
        assert order.leq(atom, bound)


def test_unknown_atom():
    p = Preorder(NOUN)
    p.add_atom("a")
    p.add_atom("Hybrid Car")
    # Never registered, or never normalized: only add_atom normalizes.
    for unknown in ("b", "Hybrid Car", "A"):
        with pytest.raises(UnknownAtom):
            p.declare("a", unknown, KIND_OF)
        with pytest.raises(UnknownAtom):
            p.declare(unknown, "a", KIND_OF)
        with pytest.raises(UnknownAtom):
            p.leq("a", unknown)
        with pytest.raises(UnknownAtom):
            p.leq(unknown, "a")
        with pytest.raises(UnknownAtom):
            p.generalizations(unknown)
        with pytest.raises(UnknownAtom):
            p.specializations(unknown, KIND_OF)
    assert p.leq("hybrid_car", "hybrid_car")


def test_transitive_chain():
    p = chain_order("fly", "travel", "move")
    assert p.leq("fly", "travel")
    assert p.leq("fly", "move")


def test_contrapositive_negated_query():
    # Negation lives on phrases: "never owned a car" entails "never
    # owned a hybrid car", read off the positive noun order backwards.
    kb = make_kb([("hybrid_car", "car")], verbs=["own"])
    never_car = VerbPhrase("own", ("car",), True)
    never_hybrid = VerbPhrase("own", ("hybrid_car",), True)
    assert phrase_leq(kb, never_car, never_hybrid)
    assert not phrase_leq(kb, never_hybrid, never_car)


def test_mixed_polarity_is_false():
    kb = make_kb([("a", "b")], verbs=["v"])
    pa, pb = VerbPhrase("v", ("a",)), VerbPhrase("v", ("b",))
    assert not phrase_leq(kb, pa, pb.negate())
    assert not phrase_leq(kb, pa.negate(), pb)


def test_generalizations_chain():
    p = chain_order("orange", "fruit", "food")
    assert p.generalizations("orange") == {"orange", "fruit", "food"}


def test_generalizations_isolated():
    p = Preorder(NOUN)
    p.add_atom("x")
    assert p.generalizations("x") == {"x"}


def test_specializations_with_label_filter():
    p = Preorder(NOUN)
    for ident in ("california", "us", "house", "property"):
        p.add_atom(ident)
    p.declare("california", "us", PART_OF)
    p.declare("house", "property", KIND_OF)
    assert "california" in p.specializations("us", PART_OF)
    assert p.specializations("us", KIND_OF) == {"us"}
    assert "house" in p.specializations("property", KIND_OF)
    assert p.generalizations("california", KIND_OF) == {"california"}
    with pytest.raises(KindMismatch):
        p.generalizations("us", WAY_OF)


def test_specializations_leaf():
    p = chain_order("leaf_node", "top")
    assert p.specializations("leaf_node") == {"leaf_node"}


def test_long_chain_walks_without_recursion():
    n = 5000
    p = chain_order(*(f"n{i}" for i in range(n)))
    bottom, top = "n0", f"n{n - 1}"
    assert len(p.generalizations(bottom)) == n
    assert len(p.generalizations(bottom, KIND_OF)) == n
    assert len(p.specializations(top)) == n
    assert len(p.specializations(top, KIND_OF)) == n


def test_normalization():
    assert normalize_id("Hybrid Car") == "hybrid_car"
    p = Preorder(NOUN)
    assert p.add_atom("Laptop Computer") == "laptop_computer"
    assert p.add_atom("laptop_computer") == "laptop_computer"
    assert p.atoms() == ("laptop_computer",)


def test_reserved_ids_rejected():
    p = Preorder(NOUN)
    with pytest.raises(ValueError):
        p.add_atom("not")


def test_cycles_mean_mutual_entailment():
    p = Preorder(NOUN)
    p.add_atom("buy_n")
    p.add_atom("purchase_n")
    p.declare("buy_n", "purchase_n", KIND_OF)
    p.declare("purchase_n", "buy_n", KIND_OF)
    assert p.leq("buy_n", "purchase_n")
    assert p.leq("purchase_n", "buy_n")


# -- property suites ----------------------------------------------------

random_orders = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=20,
        ),
    )
)


def build_order(n, edges):
    p = Preorder(NOUN)
    ids = [f"n{i}" for i in range(n)]
    for ident in ids:
        p.add_atom(ident)
    for lo, hi in edges:
        p.declare(ids[lo], ids[hi], KIND_OF)
    return p, ids


def build_kb(n, edges):
    """The same order as the nouns of a kb, with one verb ``v``."""
    ids = [f"n{i}" for i in range(n)]
    return make_kb([(ids[lo], ids[hi]) for lo, hi in edges], nouns=ids, verbs=["v"]), ids


@given(random_orders)
@settings(max_examples=200)
def test_reflexive(params):
    p, ids = build_order(*params)
    for ident in ids:
        assert p.leq(ident, ident)


@given(random_orders)
@settings(max_examples=200)
def test_leq_matches_closure_matrix(params):
    n, edges = params
    p, ids = build_order(n, edges)
    expected = dfs_pairs(n, edges)
    for i in range(n):
        for j in range(n):
            assert p.leq(ids[i], ids[j]) == ((i, j) in expected)


@given(random_orders)
@settings(max_examples=200)
def test_contrapositive_biconditional(params):
    # a <= b in the noun order iff not v*b <= not v*a.
    kb, ids = build_kb(*params)
    for a in ids:
        for b in ids:
            neg_a = VerbPhrase("v", (a,), True)
            neg_b = VerbPhrase("v", (b,), True)
            assert kb.nouns.leq(a, b) == phrase_leq(kb, neg_b, neg_a)


@given(random_orders)
@settings(max_examples=100)
def test_double_negation(params):
    kb, ids = build_kb(*params)
    for a in ids:
        for b in ids:
            for negated in (False, True):
                pa = VerbPhrase("v", (a,), negated)
                pb = VerbPhrase("v", (b,), negated)
                assert pa.negate().negate() == pa
                assert phrase_leq(kb, pa.negate().negate(), pb) == phrase_leq(kb, pa, pb)


@given(random_orders)
@settings(max_examples=100)
def test_up_down_sets_match_matrix(params):
    n, edges = params
    p, ids = build_order(n, edges)
    expected = dfs_pairs(n, edges)
    for i, ident in enumerate(ids):
        assert p.generalizations(ident) == {ids[j] for j in range(n) if (i, j) in expected}
        assert p.specializations(ident) == {ids[j] for j in range(n) if (j, i) in expected}


labeled_orders = st.integers(2, 10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from([KIND_OF, PART_OF]),
            ),
            max_size=18,
        ),
    )
)


@given(labeled_orders)
@settings(max_examples=100)
def test_label_filtered_specializations_match_filtered_matrix(params):
    # Chains restricted to one label must ignore edges of the other, in
    # both directions.
    n, edges = params
    p = Preorder(NOUN)
    ids = [f"n{i}" for i in range(n)]
    for ident in ids:
        p.add_atom(ident)
    for lo, hi, label in edges:
        p.declare(ids[lo], ids[hi], label)
    for label in (KIND_OF, PART_OF):
        expected = dfs_pairs(n, [(a, b) for a, b, lab in edges if lab == label])
        for i, ident in enumerate(ids):
            downs = {ids[j] for j in range(n) if (j, i) in expected}
            ups = {ids[j] for j in range(n) if (i, j) in expected}
            assert p.specializations(ident, label) == downs
            assert p.generalizations(ident, label) == ups
