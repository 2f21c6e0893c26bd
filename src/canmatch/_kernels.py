"""Path-enumeration kernel: tolerance-pruned search over a CSR road graph.

The search moves blocks of partial paths through numpy instead of one path
at a time. A row is a start node + slots: its start node, then the CSR
slot of each edge it took, so node j > 0 is ``nbrs[row[j]]`` and edge j's
length is ``lens[row[j+1]]``.

Before searching, a backward pass builds each depth's level from the last
depth to the first: a slot is kept at depth d if its edge passes d's
tolerance test and its target is alive at depth d+1, and a node is alive
at depth d if it keeps at least one slot there. Only nodes alive at depth
0 start a row, so no row is ever extended from a node whose remaining
weights cannot be matched. Aliveness ignores node reuse, so it drops only
rows none of whose descendants is a complete path.

A stack holds blocks of at most BLOCK_ROWS equal-length rows. Popping a
block looks up the kept slots of every row's last node in slot order.
Unless node reuse is allowed, a new node already on its row is dropped:
the test compares the new nodes with one column of the block at a time,
and builds the extended rows only for the nodes that pass. The extended
rows go back as blocks, first block on top. Complete paths therefore come
out in exactly the order a depth-first search from node 0 upward finds
them, and each block of them is appended to the caller's list. The stack
holds what is left of at most one expanded block per depth, so the search
itself stays bounded in memory however many paths match.
"""

from __future__ import annotations

import numpy as np

BLOCK_ROWS = 2048


def enumerate_matches(indptr, nbrs, lens, wr, sigma, max_count, allow_reuse, out):
    """Enumerate paths whose edge lengths match wr within sigma, as start node + slots.

    A path extends along an edge of length w at depth d only when
    |w - wr[d]| <= sigma*w. Complete paths are appended to the list out as
    int64 blocks of shape (m, len(wr)+1) in depth-first order, a row being
    the start node and then the len(wr) CSR slots taken. Returns (count,
    truncated); when more than max_count paths exist, the last block is cut
    so that out holds the first max_count.

    Without node reuse, a path of more nodes than the graph has cannot
    exist, and the search returns (0, False) at once. Otherwise a backward
    pass first keeps, at each depth, only the slots whose target can still
    match the rest of wr (node reuse aside), and the search starts only
    from nodes that keep a slot at depth 0. Without node reuse, a new node
    is compared with the row's start and its nodes 1..d-1, one column at a
    time, but not with the row's last node. That is exact only because no
    CSR row lists its own node; RoadGraph drops self loops.
    """
    n = indptr.shape[0] - 1
    q = wr.shape[0] + 1
    if q > n and not allow_reuse:
        return 0, False
    # per depth, last to first: the slots that pass that depth's test and
    # lead to a node alive at the next depth, as a CSR over the nodes
    row = np.repeat(np.arange(n), np.diff(indptr))
    alive = np.ones(n, dtype=np.bool_)
    levels = []
    for d in reversed(range(q - 1)):
        adj = np.flatnonzero((np.abs(lens - wr[d]) <= sigma * lens) & alive[nbrs])
        deg = np.bincount(row[adj], minlength=n)
        levels.append((np.concatenate(([0], np.cumsum(deg))), deg, adj))
        alive = deg > 0
    levels.reverse()
    starts = np.flatnonzero(alive)[:, None]
    stack = [starts[i : i + BLOCK_ROWS] for i in range(0, len(starts), BLOCK_ROWS)][::-1]
    count = 0
    while stack:
        block = stack.pop()
        d = block.shape[1] - 1
        ptr, degs, adj = levels[d]
        last = nbrs[block[:, -1]] if d else block[:, 0]
        lo = ptr[last]
        deg = degs[last]
        rep = np.repeat(np.arange(block.shape[0]), deg)
        s = adj[np.arange(rep.size) + np.repeat(lo - (np.cumsum(deg) - deg), deg)]
        if d and not allow_reuse:
            v = nbrs[s]
            hit = block[rep, 0] == v
            for j in range(1, d):
                hit |= nbrs[block[:, j]][rep] == v
            keep = np.flatnonzero(~hit)
            rep, s = rep[keep], s[keep]
        child = np.empty((s.size, d + 2), dtype=np.int64)
        child[:, :-1] = block[rep]
        child[:, -1] = s
        if d + 2 < q:
            stack.extend(
                child[i : i + BLOCK_ROWS]
                for i in reversed(range(0, s.size, BLOCK_ROWS))
            )
        elif count + s.size > max_count:
            out.append(child[: max_count - count])
            return max_count, True
        else:
            out.append(child)
            count += s.size
    return count, False


def backend() -> str:
    """Which implementation is live."""
    return "numpy"
