"""Reachability kernel: transitive closure through strongly connected
components.

``reach_closure(n, edges)`` returns the reflexive-transitive closure of a
directed graph on nodes ``0..n-1`` as one Python-int bitmask per node
(bit ``j`` of row ``i`` set iff ``j`` is reachable from ``i``).

An iterative Tarjan pass (Tarjan 1972) finds the components; Tarjan emits
a component only after every component it reaches, so each component's
row is its own bits OR the finished rows of its successors, computed once
and shared by its members (transitive closure via SCCs, Nuutila 1995).
The cost is one big-int OR per edge, and the pass keeps its own stack
instead of recursing, so deep chains are fine.
"""


def reach_closure(n, edges):
    """Reflexive-transitive closure as one bitmask per node.

    ``edges`` is an iterable of ``(lo, hi)`` index pairs meaning ``hi`` is
    directly reachable from ``lo``.  Row ``i`` of the result has bit ``j``
    set iff ``j`` is reachable from ``i`` (always including ``i`` itself).
    An endpoint outside ``0..n-1`` raises ``IndexError``.
    """
    succ = [[] for _ in range(n)]
    for lo, hi in edges:
        if not (0 <= lo < n and 0 <= hi < n):
            raise IndexError(f"edge endpoint out of range: ({lo}, {hi}) with {n} nodes")
        succ[lo].append(hi)

    # A row stays 0 until its component is emitted, so a visited node with
    # a zero row is still on the Tarjan stack.
    reach = [0] * n
    index = [0] * n  # discovery number, 0 = unvisited
    low = [0] * n
    stack = []
    counter = 0
    for root in range(n):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, children = work[-1]
            for w in children:
                if not index[w]:
                    counter += 1
                    index[w] = low[w] = counter
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if not reach[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] != index[v]:
                    continue
                # v roots a component: its members sit above it on the stack.
                members = []
                row = 0
                while True:
                    w = stack.pop()
                    members.append(w)
                    row |= 1 << w
                    if w == v:
                        break
                for w in members:
                    for x in succ[w]:
                        row |= reach[x]
                for w in members:
                    reach[w] = row
    return reach
