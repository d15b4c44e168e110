"""Reference nearest-center kernel: one (point, center) pair at a time.

It is slow and simple on purpose. For every point it walks the centers in
index order, computes the direct squared distance ``((p - c) ** 2).sum()``
and keeps a center only when its value is strictly smaller, so ties stay on
the lowest index. These are the values and the tie rule of the per-center
loop that ``geometry._nearest`` must reproduce bit for bit; tests compare
the two with ``np.array_equal``.
"""

from __future__ import annotations

import numpy as np


def nearest(points, centers) -> tuple[np.ndarray, np.ndarray]:
    """(squared distance to the nearest center, its index) for every point."""
    pts = np.asarray(points).astype(np.float64)
    cen = np.asarray(centers, dtype=np.float64)
    best = np.full(pts.shape[0], np.inf)
    arg = np.zeros(pts.shape[0], dtype=np.int64)
    for i, p in enumerate(pts):
        for j, c in enumerate(cen):
            d2 = float(((p - c) ** 2).sum())
            if d2 < best[i]:
                best[i] = d2
                arg[i] = j
    return best, arg
