"""Coreset construction: adaptive seeding for approximate centers and
sensitivity-sampled (or identity) weighted coresets.

All sampling goes through a 64-bit PCG generator (numpy's PCG64) and a
discrete inverse-CDF draw, so runs are reproducible for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import geometry
from .errors import InvalidInput
from .geometry import GridDataset, ZLike, as_z


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _inverse_cdf_sample(rng: np.random.Generator, prob: np.ndarray, size: int) -> np.ndarray:
    """Draw ``size`` indices with the given probabilities via inverse CDF,
    in ascending order: the uniforms are sorted before the search."""
    cdf = np.cumsum(prob)
    cdf[-1] = 1.0
    u = rng.random(size)
    u.sort()
    return np.searchsorted(cdf, u, side="right")


@dataclass(frozen=True)
class ApproxCenters:
    """k centers that are members of the source dataset.

    ``has_repeats`` is a warning flag (k > n, or seeding collapsed onto
    duplicate points); repeated centers are legal.
    """

    centers: np.ndarray
    indices: np.ndarray
    has_repeats: bool = False

    @property
    def k(self) -> int:
        return self.centers.shape[0]


@dataclass(frozen=True)
class WeightedCoreset:
    """Subset of a grid dataset with nonnegative weights; points go through
    grid_coordinates, and both arrays are owned (``geometry._owned``)."""

    points: np.ndarray
    weights: np.ndarray
    source_n: int

    def __post_init__(self):
        pts = np.ascontiguousarray(geometry.grid_coordinates(self.points))
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if pts.ndim != 2 or w.ndim != 1 or w.shape[0] != pts.shape[0]:
            raise InvalidInput("coreset needs an (m, d) point array and m weights")
        if not np.isfinite(w).all() or (w < 0).any():
            raise InvalidInput("coreset weights must be finite and nonnegative")
        if pts.shape[0] > self.source_n:
            raise InvalidInput("coreset cannot be larger than its source dataset")
        object.__setattr__(self, "points", geometry._owned(pts, self.points))
        object.__setattr__(self, "weights", geometry._owned(w, self.weights))

    @property
    def size(self) -> int:
        return self.points.shape[0]


def dz_total(mass: np.ndarray, z: ZLike) -> float:
    """Sum of dist^z masses, computed under ``np.errstate(over="ignore")`` by
    the caller; an overflow raises an error naming z instead of turning
    into NaN sampling probabilities."""
    total = mass.sum()
    if not np.isfinite(total):
        raise InvalidInput(f"z = {Fraction(z)}: the sum of dist^z overflows float64")
    return total


def _seed_dz(rows: geometry._Rows, k: int, z: ZLike,
             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive seeding: first point uniform, then proportional to dist^z.
    Returns the seeds' indices and each point's nearest seed, lowest index
    on ties: each seed gives every point's squared distance to it, and only
    a strictly smaller one moves the point.

    ``rows`` are a grid dataset's prepared rows, so every seed is an
    integral row and each seed's distances are one one-center kernel call
    with no index: the kernel's grid pass while every point is inside its
    grid bound, the direct form beyond it. The nearest seed is kept in the
    smallest unsigned type that holds k - 1, and as j is above every index
    stored, ``maximum`` with ``(sq < best) * j`` moves exactly the points
    whose distance strictly fell."""
    n = rows.points.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = _inverse_cdf_sample(rng, np.full(n, 1.0 / n), 1)[0]
    assign = np.zeros(n, dtype=np.min_scalar_type(k - 1))

    def distances(i):
        return geometry._nearest(rows, rows.points[i][None, :], index=False)[0]

    with np.errstate(over="ignore"):
        best = distances(chosen[0])
        min_pow = geometry.powered_distances(best, z)
        for j in range(1, k):
            total = dz_total(min_pow, z)
            if total <= 0:
                chosen[j] = _inverse_cdf_sample(rng, np.full(n, 1.0 / n), 1)[0]
            else:
                chosen[j] = _inverse_cdf_sample(rng, min_pow / total, 1)[0]
            sq = distances(chosen[j])
            np.maximum(assign, (sq < best) * assign.dtype.type(j), out=assign)
            np.minimum(best, sq, out=best)
            np.minimum(min_pow, geometry.powered_distances(sq, z), out=min_pow)
    return chosen, assign


def _group_order(assign: np.ndarray, k: int) -> np.ndarray:
    """The stable sort of center indices ``assign`` in [0, k): each group's
    rows in their order. Indices narrowed to the smallest unsigned type
    that holds k - 1 sort the same, by numpy's radix sort while that type
    has at most 16 bits; the seeding's indices already have that type."""
    return np.argsort(assign.astype(np.min_scalar_type(k - 1), copy=False),
                      kind="stable")


def _sorted_counts(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(draws, return_counts=True)`` for nonempty ``draws`` in
    ascending order: the head and the length of each run."""
    heads = np.flatnonzero(np.r_[True, draws[1:] != draws[:-1]])
    return draws[heads], np.diff(np.r_[heads, draws.size])


def approx_centers(dataset: GridDataset, k: int, z: ZLike, seed: int) -> ApproxCenters:
    """Constant-factor centers restricted to dataset points.

    dist^z-weighted adaptive seeding, one mean-update improvement sweep,
    then each center snapped to its nearest dataset point (lowest index on
    ties). Deterministic for a given seed. k > n yields repeated centers
    with ``has_repeats`` set rather than an error.
    """
    zf = as_z(z)
    if dataset.n < 1:
        raise InvalidInput("dataset must contain at least one point")
    rng = _rng(seed)
    rows = dataset._rows
    fpts = rows.points

    idx, assign = _seed_dz(rows, k, zf, rng)
    centers = fpts[idx]

    # one improvement sweep: move each center to its cluster mean; a stable
    # sort gives each cluster's rows in dataset order, as a mask would
    order = _group_order(assign, k)
    ends = np.searchsorted(assign[order], np.arange(k + 1))
    for j in range(k):
        if ends[j] < ends[j + 1]:
            centers[j] = fpts[order[ends[j]:ends[j + 1]]].mean(axis=0)

    # the snap: the dataset's prepared rows are the kernel's centers, so
    # they are not scanned again, and ties go to the lowest index
    snapped = geometry._nearest(centers, rows)[1]
    out = dataset.points[snapped]
    has_repeats = k > dataset.n or len(np.unique(snapped)) < k
    return ApproxCenters(out, snapped, has_repeats=has_repeats)


def identity_coreset(dataset: GridDataset, weights=None,
                     source_n: int | None = None) -> WeightedCoreset:
    """S = P with its weights (all exactly 1 by default): a 0-error coreset."""
    w = geometry._freeze(np.ones(dataset.n)) if weights is None else weights
    return WeightedCoreset(dataset.points, w, source_n or dataset.n)


def sensitivity_coreset(dataset: GridDataset, k: int, z: ZLike, eps: float, seed: int,
                        centers: ApproxCenters | None = None, weights=None,
                        source_n: int | None = None) -> WeightedCoreset:
    """Importance sampling of a weighted set (weights default to 1): each
    point is drawn with probability proportional to its share of the
    weighted cost against approximate centers plus its share of the weight,
    ``w dist^z / total + w / sum(w)``. Duplicate draws aggregate, and a kept
    point's new weight ``w counts / (m prob)`` is unbiased for every center
    set.

    The sample count is m = min(n, 4 k eps^-2 (d + log2 100)). The kernel
    takes the rows the dataset keeps prepared, so its distances are exact
    grid distances. The kept points' nearest centers go with the coreset,
    keyed by those centers, for :func:`codec.encode` to reuse; they are no
    field of it.
    """
    n, d = dataset.n, dataset.d
    rng = _rng(seed)
    if centers is None:
        centers = approx_centers(dataset, k, z, seed)
    sq, assign = geometry._nearest(dataset, centers.centers)
    # the mass, the sensitivity and the probability in place in one array;
    # under unit weights w x is x and w / sum(w) is 1 / n exactly
    with np.errstate(over="ignore"):
        prob = geometry.powered_distances(sq, z)
        if weights is not None:
            prob *= weights
        total = dz_total(prob, z)
    if total > 0:
        prob /= total
    else:
        prob.fill(0.0)
    prob += 1.0 / n if weights is None else weights / weights.sum()
    prob /= prob.sum()

    m = min(n, int(math.ceil(4.0 * k * eps ** -2 * (d + math.log2(100.0)))))
    draws = _inverse_cdf_sample(rng, prob, m)
    uniq, counts = _sorted_counts(draws)
    new_w = geometry._freeze(counts / (m * prob[uniq]) if weights is None
                             else weights[uniq] * counts / (m * prob[uniq]))
    out = WeightedCoreset(geometry._freeze(dataset.points[uniq]), new_w, source_n or dataset.n)
    object.__setattr__(out, "_assignment", (centers.centers.copy(), assign[uniq]))
    return out


def build_coreset(dataset: GridDataset, k: int, z: ZLike, eps: float,
                  method: str = "sensitivity", seed: int = 0,
                  centers: ApproxCenters | None = None, weights=None,
                  source_n: int | None = None) -> WeightedCoreset:
    """Build a weighted coreset; ``method`` is ``identity`` or ``sensitivity``.

    ``weights`` and ``source_n`` describe a weighted set that stands for
    ``source_n`` points; by default every point has weight 1 and stands
    for itself.
    """
    if not (0.0 < eps < 1.0):
        raise InvalidInput(f"eps must lie in (0,1), got {eps}")
    if method not in ("identity", "sensitivity"):
        raise InvalidInput(f"unknown coreset method {method!r}")
    if weights is not None:
        weights = geometry._checked_weights(weights, dataset.n)
        with np.errstate(over="ignore"):
            total = weights.sum()
        if not 0.0 < total < np.inf:
            raise InvalidInput(f"weights must have a positive, finite sum, got {total}")
    if method == "identity":
        return identity_coreset(dataset, weights, source_n)
    return sensitivity_coreset(dataset, k, z, eps, seed, centers, weights, source_n)
