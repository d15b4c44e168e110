"""Constructions that only the acceptance suite builds, next to the tests.

The library runs the two halves of the paper: the sketch (``compress``) and
the lower-bound pipeline (``lowerbound``). These pieces of the argument have
no command behind them, so they live here:

- ``weight_sum_check``: the (1 +- 4 eps) n total-weight bound (criterion 2);
- ``taylor_bounds_margins``: the (1-x)^(z/2) Taylor sandwich (criterion 6);
- ``TiledInstance`` and ``tile_instances``: k/2 instance copies in disjoint
  cells, whose cost gaps add up (criterion 8);
- ``loglog_family_instance`` and ``loglog_witness_centers``: the anchor
  family and its separating centers (criterion 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kzsketch.errors import DimensionMismatch, InvalidInput, KZSketchError
from kzsketch.geometry import CenterSet, GridDataset


class CapacityError(KZSketchError):
    """A placement or spacing constraint cannot be satisfied."""


def weight_sum_check(coreset, eps: float) -> bool:
    """True iff the coreset's total weight lies in (1 +- 4 eps) * source_n."""
    total = float(np.sum(coreset.weights))
    n = coreset.source_n
    return (1 - 4 * eps) * n <= total <= (1 + 4 * eps) * n


def taylor_bounds_margins(x, z):
    """Vectorized slack of the (1-x)^(z/2) Taylor sandwich; both entries
    nonnegative iff the branch inequalities hold."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if (x < 0).any() or (x > 0.5).any():
        raise InvalidInput("x must lie in [0, 1/2]")
    if (z <= 0).any():
        raise InvalidInput("z must be positive")
    val = (1.0 - x) ** (z / 2.0)
    low_small = 1.0 - (z / 2.0) * x - z * (1.0 - z / 2.0) * x ** 2
    up_small = 1.0 - (z / 2.0) * x
    low_big = 1.0 - (z / 2.0) * x
    up_big = 1.0 - (z / 2.0) * x + (z / 2.0) * (z / 2.0 - 1.0) * x ** 2
    lower = np.where(z <= 2.0, val - low_small, val - low_big)
    upper = np.where(z <= 2.0, up_small - val, up_big - val)
    return lower, upper


@dataclass(frozen=True)
class TiledInstance:
    """k/2 copies of a two-dataset instance placed in disjoint hypercube
    cells of side 4*delta_tilde; choosing one dataset per copy assembles a
    full dataset, and per-copy center pairs become a k-center set."""

    offsets: np.ndarray
    pairs: list[tuple[GridDataset, GridDataset]]
    total_k: int
    delta_tilde: int
    delta: int

    @property
    def num_copies(self) -> int:
        return len(self.pairs)

    def assemble(self, choices) -> GridDataset:
        """Dataset made of pairs[i][choices[i]] shifted into cell i."""
        choices = list(choices)
        if len(choices) != self.num_copies:
            raise InvalidInput(f"need {self.num_copies} choices, got {len(choices)}")
        blocks = []
        for i, ch in enumerate(choices):
            if ch not in (0, 1):
                raise InvalidInput("choices are 0 (first dataset) or 1 (second)")
            blocks.append(self.pairs[i][ch].points + self.offsets[i])
        return GridDataset(np.vstack(blocks), self.delta)

    def center_set(self, center_pairs) -> CenterSet:
        """Global k-center set from per-copy (c1, c2) in copy-local coords."""
        if len(center_pairs) != self.num_copies:
            raise InvalidInput(f"need {self.num_copies} center pairs")
        rows = []
        for i, (c1, c2) in enumerate(center_pairs):
            rows.append(np.asarray(c1, dtype=np.float64) + self.offsets[i])
            rows.append(np.asarray(c2, dtype=np.float64) + self.offsets[i])
        return CenterSet(np.stack(rows))


def tile_instances(pairs, k: int, delta_tilde: int) -> TiledInstance:
    """Place k/2 instance pairs at the centers of distinct cells (row-major
    cell order) of a grid with side 4 * ceil(k^(1/d)) * delta_tilde."""
    if k < 2 or k % 2 != 0:
        raise InvalidInput(f"k must be even and >= 2, got {k}")
    pairs = list(pairs)
    if len(pairs) != k // 2:
        raise InvalidInput(f"need k/2 = {k // 2} instance pairs, got {len(pairs)}")
    d = pairs[0][0].d
    for a, b in pairs:
        if a.d != d or b.d != d:
            raise DimensionMismatch("all tiled instances must share d")
        if max(a.points.max(), b.points.max()) > delta_tilde:
            raise InvalidInput("copy coordinates must lie in [1, delta_tilde]")
    m = 1
    while m ** d < k:
        m += 1
    delta = 4 * m * delta_tilde
    if m ** d < k // 2:
        raise CapacityError(
            f"grid fits {m ** d} cells of side {4 * delta_tilde}, need {k // 2}")
    inset = (3 * delta_tilde) // 2
    offsets = np.empty((k // 2, d), dtype=np.int64)
    for c in range(k // 2):
        cell = np.unravel_index(c, (m,) * d)
        offsets[c] = np.asarray(cell, dtype=np.int64) * (4 * delta_tilde) + inset
    for i in range(k // 2):
        for j in range(i + 1, k // 2):
            gap = float(np.linalg.norm(offsets[i] - offsets[j]))
            if gap < 4 * delta_tilde:
                raise CapacityError(f"copies {i},{j} are {gap:.1f} apart, "
                                    f"need {4 * delta_tilde}")
    return TiledInstance(offsets, pairs, k, delta_tilde, delta)


def loglog_family_instance(k: int, n: int, grid_anchor_points, m_choices,
                           seed: int = 0, delta: int | None = None) -> GridDataset:
    """Instance of the anchor family: for each of k/2 anchors, put 2^(m_i)
    points at p_i + e1 and 2n/k - 2^(m_i) points at p_i.

    m_i ranges over 1..floor(log2(n/k)); pass ``m_choices=None`` to draw
    them uniformly per seed. Anchors must be pairwise at least 10 apart.
    """
    if k < 2 or k % 2 != 0:
        raise InvalidInput(f"k must be even and >= 2, got {k}")
    if n < 2 * k or (2 * n) % k != 0:
        raise InvalidInput(f"need n >= 2k with 2n/k integral, got n={n}, k={k}")
    anchors = np.asarray(grid_anchor_points, dtype=np.int64)
    if anchors.shape[0] != k // 2:
        raise InvalidInput(f"need k/2 = {k // 2} anchors, got {anchors.shape[0]}")
    for i in range(len(anchors)):
        for j in range(i + 1, len(anchors)):
            gap = float(np.linalg.norm(anchors[i] - anchors[j]))
            if gap < 10:
                raise CapacityError(
                    f"anchors {i},{j} are {gap:.2f} apart, need >= 10")
    per_anchor = 2 * n // k
    m_max = int(math.floor(math.log2(n / k)))
    if m_choices is None:
        rng = np.random.Generator(np.random.PCG64(seed))
        m_choices = rng.integers(1, m_max + 1, size=k // 2)
    m_choices = np.asarray(m_choices, dtype=np.int64)
    if (m_choices < 1).any() or (m_choices > m_max).any():
        raise InvalidInput(f"each m_i must lie in 1..{m_max}")
    e1 = np.zeros(anchors.shape[1], dtype=np.int64)
    e1[0] = 1
    blocks = []
    for i in range(k // 2):
        hi = 1 << int(m_choices[i])
        blocks.append(np.tile(anchors[i] + e1, (hi, 1)))
        blocks.append(np.tile(anchors[i], (per_anchor - hi, 1)))
    pts = np.vstack(blocks)
    if delta is None:
        delta = max(2, int(pts.max()))
    return GridDataset(pts, delta)


def loglog_witness_centers(grid_anchor_points, moved_anchor: int) -> CenterSet:
    """The k-center witness: every anchor keeps {p_i, p_i + e1} except the
    moved one, whose second center sits at p_i + 2 e1."""
    anchors = np.asarray(grid_anchor_points, dtype=np.float64)
    if not 0 <= moved_anchor < anchors.shape[0]:
        raise InvalidInput(f"moved_anchor {moved_anchor} out of range")
    e1 = np.zeros(anchors.shape[1])
    e1[0] = 1.0
    rows = []
    for i in range(anchors.shape[0]):
        rows.append(anchors[i])
        rows.append(anchors[i] + (2.0 * e1 if i == moved_anchor else e1))
    return CenterSet(np.stack(rows))
