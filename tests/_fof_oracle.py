"""The brute-force friends-of-friends the cell-linked grid replaced.

Kept verbatim as the reference the grid implementation in
``repro.analysis.particles`` is compared against (blocked O(n^2) pair
distances, per-pair Python union-find): same arithmetic, so the labels
must come out ``np.array_equal``, not merely the same partition.
"""

import numpy as np


def friends_of_friends(
    positions: np.ndarray, linking_length: float
) -> np.ndarray:
    """Periodic friends-of-friends labels over a unit box.

    Particles closer than ``linking_length`` (minimum-image metric) are
    linked; connected components are halos.  Returns an ``(n,)`` int64
    label array where each particle's label is the smallest input index
    in its halo -- a canonical labeling, so the result is independent of
    traversal order.  Brute-force pairwise distances in blocks: exact,
    and fast enough for the miniapp populations the tests use.
    """
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    parent = np.arange(n, dtype=np.int64)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]  # path halving
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri == rj:
            return
        # Union by smaller root: keeps labels canonical (min index wins).
        if ri < rj:
            parent[rj] = ri
        else:
            parent[ri] = rj

    ll2 = float(linking_length) ** 2
    block = 512
    for i0 in range(0, n, block):
        a = pos[i0 : i0 + block]
        for j0 in range(i0, n, block):
            b = pos[j0 : j0 + block]
            d = a[:, None, :] - b[None, :, :]
            d -= np.rint(d)  # minimum image on the periodic unit box
            close = (d * d).sum(axis=-1) <= ll2
            ii, jj = np.nonzero(close)
            for i, j in zip(ii + i0, jj + j0):
                if i < j:
                    union(int(i), int(j))
    return np.fromiter((find(int(i)) for i in range(n)), np.int64, count=n)
