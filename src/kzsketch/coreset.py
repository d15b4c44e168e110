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
from .geometry import CenterSet, GridDataset, ZLike, as_z


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _inverse_cdf_sample(rng: np.random.Generator, prob: np.ndarray, size: int) -> np.ndarray:
    """Draw ``size`` indices with the given probabilities via inverse CDF."""
    cdf = np.cumsum(prob)
    cdf[-1] = 1.0
    u = rng.random(size)
    return np.searchsorted(cdf, u, side="right")


@dataclass(frozen=True)
class ApproxCenters:
    """k centers that are members of the source dataset.

    ``has_repeats`` is a warning flag (k > n, or seeding collapsed onto
    duplicate points); repeated centers are legal.
    """

    centers: np.ndarray
    indices: np.ndarray
    approx_factor: float = 2.0
    has_repeats: bool = False

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    def as_center_set(self) -> CenterSet:
        return CenterSet(self.centers.astype(np.float64))


@dataclass(frozen=True)
class WeightedCoreset:
    """Subset of a grid dataset with nonnegative weights."""

    points: np.ndarray
    weights: np.ndarray
    source_n: int
    epsilon: float

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.int64))
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if pts.ndim != 2 or w.ndim != 1 or w.shape[0] != pts.shape[0]:
            raise InvalidInput("coreset needs an (m, d) point array and m weights")
        if not np.isfinite(w).all() or (w < 0).any():
            raise InvalidInput("coreset weights must be finite and nonnegative")
        if pts.shape[0] > self.source_n:
            raise InvalidInput("coreset cannot be larger than its source dataset")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def cost(self, centers, z: ZLike) -> float:
        return geometry.weighted_cost(self.weights, self.points, centers, z)


def dz_total(mass: np.ndarray, z: ZLike) -> float:
    """Sum of dist^z masses, computed under ``np.errstate(over="ignore")`` by
    the caller; an overflow raises an error naming z instead of turning
    into NaN sampling probabilities."""
    total = mass.sum()
    if not np.isfinite(total):
        raise InvalidInput(f"z = {Fraction(z)}: the sum of dist^z overflows float64")
    return total


def _seed_dz(fpts: np.ndarray, k: int, z: ZLike, rng: np.random.Generator) -> np.ndarray:
    """Adaptive seeding: first point uniform, then proportional to dist^z."""
    n = fpts.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = _inverse_cdf_sample(rng, np.full(n, 1.0 / n), 1)[0]
    with np.errstate(over="ignore"):
        min_pow = geometry.min_powered_distances(fpts, fpts[chosen[:1]], z)
        for j in range(1, k):
            total = dz_total(min_pow, z)
            if total <= 0:
                chosen[j] = _inverse_cdf_sample(rng, np.full(n, 1.0 / n), 1)[0]
            else:
                chosen[j] = _inverse_cdf_sample(rng, min_pow / total, 1)[0]
            new_pow = geometry.min_powered_distances(fpts, fpts[chosen[j]][None, :], z)
            np.minimum(min_pow, new_pow, out=min_pow)
    return chosen


def _snap_to_dataset(fpts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest dataset point per center, lowest index on ties;
    the loop runs over the k centers, not the n points."""
    return np.array([int(np.argmin(geometry.min_powered_distances(fpts, c[None, :], 2)))
                     for c in centers], dtype=np.int64)


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
    pts = dataset.points
    fpts = pts.astype(np.float64)

    idx = _seed_dz(fpts, k, zf, rng)
    centers = fpts[idx].copy()

    # one improvement sweep: move each center to its cluster mean
    assign = geometry.nearest_assignment(fpts, centers)
    for j in range(k):
        mask = assign == j
        if mask.any():
            centers[j] = fpts[mask].mean(axis=0)

    snapped = _snap_to_dataset(fpts, centers)
    out = pts[snapped]
    has_repeats = k > dataset.n or len(np.unique(snapped)) < k
    return ApproxCenters(out, snapped, approx_factor=2.0, has_repeats=has_repeats)


def identity_coreset(dataset: GridDataset, eps: float) -> WeightedCoreset:
    """S = P with all weights exactly 1 (a 0-error coreset)."""
    return WeightedCoreset(dataset.points, np.ones(dataset.n), dataset.n, eps)


def sensitivity_coreset(dataset: GridDataset, k: int, z: ZLike, eps: float, seed: int,
                        centers: ApproxCenters | None = None,
                        c0: float = 4.0, fail_prob: float = 0.01) -> WeightedCoreset:
    """Importance sampling proportional to cost against approximate centers
    plus a uniform term; duplicate draws aggregate their weights.

    The sample count is min(n, c0 * k * eps^-2 * (d + log2(1/fail_prob))).
    """
    n, d = dataset.n, dataset.d
    rng = _rng(seed)
    if centers is None:
        centers = approx_centers(dataset, k, z, seed)
    with np.errstate(over="ignore"):
        per_point = geometry.min_powered_distances(
            dataset.points.astype(np.float64), centers.centers.astype(np.float64), z)
        total = dz_total(per_point, z)
    if total > 0:
        sens = per_point / total + 1.0 / n
    else:
        sens = np.full(n, 2.0 / n)
    prob = sens / sens.sum()

    m = min(n, int(math.ceil(c0 * k * eps ** -2 * (d + math.log2(1.0 / fail_prob)))))
    draws = _inverse_cdf_sample(rng, prob, m)
    uniq, counts = np.unique(draws, return_counts=True)
    weights = counts / (m * prob[uniq])
    return WeightedCoreset(dataset.points[uniq], weights, n, eps)


def build_coreset(dataset: GridDataset, k: int, z: ZLike, eps: float,
                  method: str = "sensitivity", seed: int = 0,
                  centers: ApproxCenters | None = None,
                  c0: float = 4.0, fail_prob: float = 0.01) -> WeightedCoreset:
    """Build a weighted coreset; ``method`` is ``identity`` or ``sensitivity``."""
    if not (0.0 < eps < 1.0):
        raise InvalidInput(f"eps must lie in (0,1), got {eps}")
    if method == "identity":
        return identity_coreset(dataset, eps)
    if method == "sensitivity":
        return sensitivity_coreset(dataset, k, z, eps, seed, centers, c0, fail_prob)
    raise InvalidInput(f"unknown coreset method {method!r}")


def weight_sum_check(coreset: WeightedCoreset) -> bool:
    """True iff the total weight lies in (1 +- 4 eps) * source_n."""
    total = float(np.sum(coreset.weights))
    n, eps = coreset.source_n, coreset.epsilon
    return (1 - 4 * eps) * n <= total <= (1 + 4 * eps) * n
