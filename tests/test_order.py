import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vplogic.errors import KindMismatch, UnknownAtom
from vplogic.order import KIND_OF, NOUN, PART_OF, WAY_OF, Literal, Preorder, normalize_id

from oracles import dfs_pairs


def chain_order(*ids, label=KIND_OF):
    p = Preorder(NOUN)
    for ident in ids:
        p.add_atom(ident)
    for lo, hi in zip(ids, ids[1:]):
        p.declare(lo, hi, label)
    return p


def lit(p, ident, negated=False):
    return Literal(p.atom(ident), negated)


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
    assert p.generalizations("a") == {lit(p, "a")}


def test_label_must_match_kind():
    p = Preorder(NOUN)
    p.add_atom("fly")
    p.add_atom("food")
    with pytest.raises(KindMismatch):
        p.declare("fly", "food", WAY_OF)


def test_unknown_atom():
    p = Preorder(NOUN)
    p.add_atom("a")
    with pytest.raises(UnknownAtom):
        p.declare("a", "b", KIND_OF)
    with pytest.raises(UnknownAtom):
        p.leq("a", "b")


def test_transitive_chain():
    p = chain_order("fly", "travel", "move")
    assert p.leq("fly", "travel")
    assert p.leq("fly", "move")


def test_contrapositive_negated_query():
    p = chain_order("hybrid_car", "car")
    assert p.leq(lit(p, "car", True), lit(p, "hybrid_car", True))
    assert not p.leq(lit(p, "hybrid_car", True), lit(p, "car", True))


def test_mixed_polarity_is_false():
    p = chain_order("a", "b")
    assert not p.leq(lit(p, "a"), lit(p, "b", True))
    assert not p.leq(lit(p, "a", True), lit(p, "b"))


def test_generalizations_chain():
    p = chain_order("orange", "fruit", "food")
    ids = {l.id for l in p.generalizations("orange")}
    assert ids == {"orange", "fruit", "food"}


def test_generalizations_of_negated_literal():
    p = chain_order("orange", "fruit", "food")
    out = p.generalizations(lit(p, "food", True))
    assert out == {lit(p, "food", True), lit(p, "fruit", True), lit(p, "orange", True)}


def test_generalizations_isolated():
    p = Preorder(NOUN)
    p.add_atom("x")
    assert p.generalizations("x") == {lit(p, "x")}


def test_specializations_with_label_filter():
    p = Preorder(NOUN)
    for ident in ("california", "us", "house", "property"):
        p.add_atom(ident)
    p.declare("california", "us", PART_OF)
    p.declare("house", "property", KIND_OF)
    assert lit(p, "california") in p.specializations("us", PART_OF)
    assert p.specializations("us", KIND_OF) == {lit(p, "us")}
    assert lit(p, "house") in p.specializations("property", KIND_OF)


def test_specializations_leaf():
    p = chain_order("leaf_node", "top")
    assert p.specializations("leaf_node") == {lit(p, "leaf_node")}


def test_long_chain_walks_without_recursion():
    n = 5000
    p = chain_order(*(f"n{i}" for i in range(n)))
    bottom, top = lit(p, "n0"), lit(p, f"n{n - 1}")
    assert len(p.generalizations(bottom)) == n
    assert len(p.specializations(top, KIND_OF)) == n
    assert len(p.generalizations(top.negate())) == n
    assert len(p.specializations(bottom.negate())) == n


def test_normalization():
    assert normalize_id("Hybrid Car") == "hybrid_car"
    p = Preorder(NOUN)
    atom = p.add_atom("Laptop Computer")
    assert atom.id == "laptop_computer"


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


@given(random_orders)
@settings(max_examples=200)
def test_reflexive(params):
    p, ids = build_order(*params)
    for ident in ids:
        assert p.leq(ident, ident)
        assert p.leq(Literal(p.atom(ident), True), Literal(p.atom(ident), True))


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
    p, ids = build_order(*params)
    for a in ids:
        for b in ids:
            pos = p.leq(a, b)
            neg = p.leq(Literal(p.atom(b), True), Literal(p.atom(a), True))
            assert pos == neg


@given(random_orders)
@settings(max_examples=100)
def test_double_negation(params):
    p, ids = build_order(*params)
    for ident in ids:
        for negated in (False, True):
            literal = Literal(p.atom(ident), negated)
            assert literal.negate().negate() == literal


@given(random_orders)
@settings(max_examples=100)
def test_up_down_sets_match_matrix(params):
    n, edges = params
    p, ids = build_order(n, edges)
    expected = dfs_pairs(n, edges)
    for i, ident in enumerate(ids):
        ups = {l.id for l in p.generalizations(ident)}
        assert ups == {ids[j] for j in range(n) if (i, j) in expected}
        downs = {l.id for l in p.specializations(ident)}
        assert downs == {ids[j] for j in range(n) if (j, i) in expected}
        # A negated literal walks the other way and keeps its sign.
        negated = Literal(p.atom(ident), True)
        assert p.generalizations(negated) == {lit(p, d, True) for d in downs}
        assert p.specializations(negated) == {lit(p, u, True) for u in ups}


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
    # Chains restricted to one label must ignore edges of the other.
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
            downs = {l.id for l in p.specializations(ident, label)}
            assert downs == {ids[j] for j in range(n) if (j, i) in expected}
            ups = {ids[j] for j in range(n) if (i, j) in expected}
            negated = Literal(p.atom(ident), True)
            assert p.specializations(negated, label) == {lit(p, u, True) for u in ups}
