import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vplogic._kernel import reach_closure

from oracles import dfs_pairs


def to_pairs(masks):
    return {
        (i, j)
        for i, mask in enumerate(masks)
        for j in range(len(masks))
        if mask >> j & 1
    }


def cyclic_graphs(max_nodes):
    """Graphs with up to 3n edges, self-loops and 2-cycles included, so
    components of every size and long chains through them turn up."""

    def with_edges(n):
        node = st.integers(0, n - 1)
        edge = st.tuples(node, node)
        two_cycle = node.flatmap(lambda a: node.map(lambda b: [(a, b), (b, a)]))
        return st.tuples(
            st.just(n),
            st.tuples(
                st.lists(edge, max_size=3 * n),
                st.lists(two_cycle, max_size=3),
                st.lists(node.map(lambda a: (a, a)), max_size=3),
            ).map(lambda parts: parts[0] + sum(parts[1], []) + parts[2]),
        )

    return st.integers(1, max_nodes).flatmap(with_edges)


@given(cyclic_graphs(60))
@settings(max_examples=300)
def test_pure_matches_dfs(graph):
    n, edges = graph
    assert to_pairs(reach_closure(n, edges)) == dfs_pairs(n, edges)


def test_empty_graph():
    assert reach_closure(0, []) == []


def test_wide_rows():
    # More than one 64-bit word per row, with a cycle closing the chain.
    n = 150
    edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 70)]
    assert to_pairs(reach_closure(n, edges)) == dfs_pairs(n, edges)


def test_long_chain_does_not_recurse():
    n = 5000
    rows = reach_closure(n, [(i, i + 1) for i in range(n - 1)])
    full = (1 << n) - 1
    assert all(row == full ^ ((1 << i) - 1) for i, row in enumerate(rows))


@pytest.mark.parametrize("edge", [(0, 3), (3, 0), (-1, 0), (0, -1), (-3, -3)])
def test_out_of_range_endpoint_raises(edge):
    with pytest.raises(IndexError):
        reach_closure(3, [(0, 1), edge])
