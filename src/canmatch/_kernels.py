"""Path-enumeration kernel: tolerance-pruned search over a CSR road graph.

The search moves blocks of partial paths through numpy instead of one path
at a time. A row is a start node + slots: its start node, then the CSR
slot of each edge it took, so node j > 0 is ``nbrs[row[j]]`` and edge j's
length is ``lens[row[j+1]]``. A stack holds blocks of at most BLOCK_ROWS
equal-length rows. Popping a block gathers the neighbour slots of every
row in slot order, keeps the edges that pass that depth's tolerance test
(and, unless node reuse is allowed, lead off the path), and pushes the
extended rows back as blocks, first block on top. Complete paths therefore
come out in exactly the order a depth-first search from node 0 upward
finds them. The stack holds what is left of at most one expanded block per
depth, so memory stays bounded however many paths match.
"""

from __future__ import annotations

import numpy as np

BLOCK_ROWS = 2048


def enumerate_matches(indptr, nbrs, lens, wr, sigma, max_count, allow_reuse, out):
    """Enumerate paths whose edge lengths match wr within sigma, as start node + slots.

    A path extends along an edge of length w at depth d only when
    |w - wr[d]| <= sigma*w. Each complete path (len(wr)+1 nodes) is written
    into out as its start node followed by the len(wr) CSR slots it took,
    flat and in depth-first order. Returns (count, truncated); when more
    than max_count paths exist, out holds the first max_count.
    """
    n = indptr.shape[0] - 1
    q = wr.shape[0] + 1
    # per depth: the CSR cut down to the slots that pass that depth's test
    levels = []
    for d in range(q - 1):
        ok = np.abs(lens - wr[d]) <= sigma * lens
        kept = np.concatenate(([0], np.cumsum(ok)))
        levels.append((kept[indptr], np.flatnonzero(ok)))
    starts = np.arange(n, dtype=np.int64)[:, None]
    stack = [starts[i : i + BLOCK_ROWS] for i in range(0, n, BLOCK_ROWS)][::-1]
    count = 0
    while stack:
        block = stack.pop()
        d = block.shape[1] - 1
        ptr, adj = levels[d]
        nodes = np.concatenate((block[:, :1], nbrs[block[:, 1:]]), axis=1)
        lo = ptr[nodes[:, -1]]
        deg = ptr[nodes[:, -1] + 1] - lo
        total = int(deg.sum())
        if total == 0:
            continue
        rep = np.repeat(np.arange(block.shape[0]), deg)
        s = adj[np.arange(total) + np.repeat(lo - (np.cumsum(deg) - deg), deg)]
        if not allow_reuse:
            fresh = ~(nodes[rep] == nbrs[s][:, None]).any(axis=1)
            rep, s = rep[fresh], s[fresh]
        child = np.empty((s.size, d + 2), dtype=np.int64)
        child[:, :-1] = block[rep]
        child[:, -1] = s
        if d + 2 < q:
            stack.extend(
                child[i : i + BLOCK_ROWS]
                for i in reversed(range(0, s.size, BLOCK_ROWS))
            )
        elif count + s.size > max_count:
            out[count * q : max_count * q] = child[: max_count - count].ravel()
            return max_count, True
        else:
            out[count * q : (count + s.size) * q] = child.ravel()
            count += s.size
    return count, False


def backend() -> str:
    """Which implementation is live."""
    return "numpy"
