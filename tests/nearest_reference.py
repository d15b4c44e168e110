"""Reference nearest-center kernel: one point at a time.

It is slow and simple on purpose. For every point it computes the direct
squared distance ``((p - c) ** 2).sum()`` to every center, then walks the
centers in index order and keeps a center only when its value is strictly
smaller, so ties stay on the lowest index. These are the values and the tie
rule of the per-center loop that ``geometry._nearest`` must reproduce bit
for bit; tests compare the two with ``np.array_equal``.
"""

from __future__ import annotations

import numpy as np


def direct_values(p: np.ndarray, cen: np.ndarray) -> np.ndarray:
    """``((p - c) ** 2).sum()`` for every row c of the C-contiguous ``cen``,
    in one numpy call: each row of the squares is summed as that row alone
    would be, so every value equals the per-pair form bit for bit."""
    return ((p - cen) ** 2).sum(axis=1)


def nearest(points, centers) -> tuple[np.ndarray, np.ndarray]:
    """(squared distance to the nearest center, its index) for every point."""
    pts = np.asarray(points).astype(np.float64)
    cen = np.ascontiguousarray(centers, dtype=np.float64)
    best = np.full(pts.shape[0], np.inf)
    arg = np.zeros(pts.shape[0], dtype=np.int64)
    for i, p in enumerate(pts):
        row_best, row_arg = np.inf, 0
        for j, d2 in enumerate(direct_values(p, cen).tolist()):
            if d2 < row_best:
                row_best, row_arg = d2, j
        best[i], arg[i] = row_best, row_arg
    return best, arg
