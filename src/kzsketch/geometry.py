"""Dataset and center-set containers with exact (k,z)-clustering cost evaluation.

Points live on the integer grid ``[1, delta]^d`` (``GridDataset``) or in
``R^d`` (``RealDataset``). All cost sums use numpy's pairwise summation over
a fixed point order, so values are reproducible bit-for-bit across runs.
"""

from __future__ import annotations

import csv
import os
import stat
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, InvalidInput

ZLike = Fraction | int | float | str

DATASET_MAGIC = b"KZDS"
DATASET_VERSION = 1


def as_z(z: ZLike) -> Fraction:
    """Coerce a distance power to an exact rational and validate z >= 1."""
    zf = Fraction(z)
    if zf < 1:
        raise InvalidInput(f"distance power z must be >= 1, got {zf}")
    return zf


@dataclass(frozen=True)
class ProblemConfig:
    """Instance parameters: n points in [1,delta]^d, k centers, power z, error eps."""

    n: int
    d: int
    k: int
    z: Fraction
    delta: int
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "z", as_z(self.z))
        if min(self.n, self.d, self.k) < 1:
            raise InvalidInput("n, d and k must all be >= 1")
        if self.delta < 2:
            raise InvalidInput(f"grid side delta must be >= 2, got {self.delta}")
        if not (0.0 < self.epsilon < 1.0):
            raise InvalidInput(f"epsilon must lie in (0,1), got {self.epsilon}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GridDataset:
    """n integer points in [1, delta]^d.

    ``config`` is optional context (k, z, epsilon) carried along for
    operations that need the full problem instance.
    """

    points: np.ndarray
    delta: int
    config: ProblemConfig | None = None

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.int64))
        if pts.ndim != 2:
            raise InvalidInput("grid points must form an (n, d) array")
        if pts.size and (pts.min() < 1 or pts.max() > self.delta):
            raise InvalidInput(
                f"grid coordinates must lie in [1, {self.delta}]; "
                f"found range [{pts.min()}, {pts.max()}]")
        if self.config is not None and self.config.n != pts.shape[0]:
            raise InvalidInput(
                f"config.n={self.config.n} but dataset holds {pts.shape[0]} points")
        object.__setattr__(self, "points", _freeze(pts))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class RealDataset:
    """n real points in R^d; coordinates must be finite."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2:
            raise InvalidInput("points must form an (n, d) array")
        if not np.isfinite(pts).all():
            raise InvalidInput("real dataset contains non-finite coordinates")
        object.__setattr__(self, "points", _freeze(pts))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class CenterSet:
    """k centers in R^d; duplicates are allowed."""

    centers: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.centers, dtype=np.float64))
        if c.ndim != 2 or c.shape[0] < 1:
            raise InvalidInput("centers must form a non-empty (k, d) array")
        if not np.isfinite(c).all():
            raise InvalidInput("center set contains non-finite coordinates")
        object.__setattr__(self, "centers", _freeze(c))

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def d(self) -> int:
        return self.centers.shape[1]


def _points_of(obj) -> np.ndarray:
    if isinstance(obj, (GridDataset, RealDataset)):
        return obj.points
    return np.asarray(obj, dtype=np.float64)


def _centers_of(obj) -> np.ndarray:
    if isinstance(obj, CenterSet):
        return obj.centers
    return np.asarray(obj, dtype=np.float64)


# rows per block of the distance kernel: its temporaries are O(_BLOCK * (k + d))
_BLOCK = 1024


def _scan(fpts: np.ndarray, cen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact resolver: direct subtraction one center at a time, with a
    strict ``<`` update so ties stay on the lowest index."""
    best = np.full(fpts.shape[0], np.inf)
    arg = np.zeros(fpts.shape[0], dtype=np.int64)
    for j, c in enumerate(cen):
        d2 = ((fpts - c) ** 2).sum(axis=1)
        closer = d2 < best
        arg[closer] = j
        np.minimum(best, d2, out=best)
    return best, arg


def _nearest(points, centers) -> tuple[np.ndarray, np.ndarray]:
    """(squared distance to the nearest center, its index) for every point.

    The result is bit for bit that of :func:`_scan` on all rows: the direct
    ``((p - c) ** 2).sum()`` value, ties to the lowest index. Rows go in
    blocks of ``_BLOCK``; with one center there is nothing to filter.

    Filter: one GEMM gives the expanded form ``e_j = |p|^2 + |c_j|^2 -
    2 p.c_j`` of every row. Center j is a candidate when ``e_j <= min(e) +
    T``, with ``T = 8 g (|p| + max|c|)^2 + 128 (d + 4) eta``, ``g =
    gamma_{d+4} = (d+4) u / (1 - (d+4) u)``, ``u = 2^-53`` and ``eta =
    2^-1075``.

    Refine: a row with exactly one candidate takes it, and its value is
    recomputed in the direct form. Rows with none (a NaN in e) or several
    (exact ties, duplicate centers, overflow) go through ``_scan``.

    Why a lone candidate is the direct form's strict minimum: let t_j be
    the exact squared distance and X = (|p| + |c_j|)^2 >= t_j. |p|^2,
    |c_j|^2 and p.c_j are d-term dot products, each within gamma_d times
    |p|^2, |c_j|^2 and |p||c_j| of its value in any summation order, and
    two additions follow; the direct form sums d nonnegative terms, each
    with relative error gamma_3. So e_j is within gamma_{d+2} X + 3 d eta
    of t_j and the direct value r_j within gamma_{d+2} X + d eta, where
    eta bounds the absolute error of a product that underflows (additions
    add none). For the row's argmin i of e and any j with e_j > e_i + T,
    r_j > r_i whenever T >= 4 gamma_{d+2} X + 8 d eta; the T above is at
    least twice that, which covers the rounding of the norms and of T.
    If (|p| + max|c|)^2 overflows, T is inf and every center is a
    candidate; otherwise no intermediate of e overflows."""
    pts, cen = _points_of(points), _centers_of(centers)
    if pts.ndim != 2 or cen.ndim != 2 or pts.shape[1] != cen.shape[1]:
        raise DimensionMismatch(
            f"points have dimension {pts.shape[1:]} but centers {cen.shape[1:]}")
    if cen.shape[0] < 1:
        raise InvalidInput("need at least one center")
    if not np.isfinite(cen).all() or (pts.dtype.kind == "f" and not np.isfinite(pts).all()):
        raise InvalidInput("distance evaluation requires finite coordinates")
    n, d = pts.shape
    k = cen.shape[0]
    best = np.empty(n)
    arg = np.empty(n, dtype=np.int64)
    u = 2.0 ** -53
    g = (d + 4) * u / (1 - (d + 4) * u)
    floor = 64.0 * (d + 4) * 2.0 ** -1074  # 128 (d + 4) eta
    with np.errstate(over="ignore"):
        c_sq = np.einsum("ij,ij->i", cen, cen)
    c_norm = np.sqrt(c_sq.max())
    for lo in range(0, n, _BLOCK):
        p = pts[lo:lo + _BLOCK].astype(np.float64, copy=False)
        b, a = best[lo:lo + _BLOCK], arg[lo:lo + _BLOCK]
        if k == 1:
            q = p - cen[0]
            a[:] = 0
        else:
            # the filter may overflow; such rows fall to _scan by the rule above
            with np.errstate(over="ignore", invalid="ignore"):
                p_sq = np.einsum("ij,ij->i", p, p)
                e = p @ cen.T
                e *= -2.0
                e += c_sq
                e += p_sq[:, None]
                j = e.argmin(axis=1)
                e_min = np.take_along_axis(e, j[:, None], axis=1)
                e_min += (8.0 * g * (np.sqrt(p_sq) + c_norm) ** 2 + floor)[:, None]
                one = np.count_nonzero(e <= e_min, axis=1) == 1
            q = cen.take(j, axis=0)
            np.subtract(p, q, out=q)
            a[:] = j
        np.square(q, out=q)
        q.sum(axis=1, out=b)
        if k > 1 and not one.all():
            rest = ~one
            b[rest], a[rest] = _scan(p[rest], cen)
    return best, arg


def powered_distances(sqdist: np.ndarray, z: ZLike) -> np.ndarray:
    """Raise squared distances to the z/2 power, exactly for z in {1, 2}."""
    zf = as_z(z)
    if zf == 2:
        return sqdist.copy()
    if zf == 1:
        return np.sqrt(sqdist)
    half_z = float(zf) / 2.0
    out = np.zeros_like(sqdist)
    pos = sqdist > 0
    out[pos] = np.exp(half_z * np.log(sqdist[pos]))
    return out


def min_powered_distances(points, centers, z: ZLike) -> np.ndarray:
    """dist^z(p, C) for every point; the shared kernel of the cost functions."""
    return powered_distances(_nearest(points, centers)[0], z)


def cost(points, centers, z: ZLike) -> float:
    """Sum over points of the z-th power distance to the nearest center."""
    return float(np.sum(min_powered_distances(points, centers, z)))


def weighted_cost(weights, points, centers, z: ZLike) -> float:
    """Weighted clustering cost; zero-weight points contribute exactly 0."""
    w = np.asarray(weights, dtype=np.float64)
    pts = _points_of(points)
    if w.ndim != 1 or w.shape[0] != pts.shape[0]:
        raise DimensionMismatch(
            f"{w.shape[0] if w.ndim == 1 else w.shape} weights for {pts.shape[0]} points")
    if not np.isfinite(w).all() or (w < 0).any():
        raise InvalidInput("weights must be finite and nonnegative")
    return float(np.sum(w * min_powered_distances(pts, centers, z)))


def nearest_assignment(points, centers) -> np.ndarray:
    """Index of the closest center per point; ties break to the lowest index."""
    return _nearest(points, centers)[1]


def relaxed_triangle_margins(p1, p2, p3, z: ZLike, eps: float):
    """Slack of the two relaxed triangle inequalities, batched.

    Each input is a vector or an (m, d) batch. Returns ``(m1, m2)`` where
    positive entries mean the corresponding inequality holds:

        m1 = (1+eps)^(z-1) D13 + ((1+eps)/eps)^(z-1) D23 - D12
        m2 = eps * D13 + ((z+eps)/eps)^(z-1) D23 - |D12 - D13|

    with Dij the z-th power distance between pi and pj.
    """
    if eps <= 0:
        raise InvalidInput("eps must be positive")
    zf = float(as_z(z))
    a = np.atleast_2d(np.asarray(p1, dtype=np.float64))
    b = np.atleast_2d(np.asarray(p2, dtype=np.float64))
    c = np.atleast_2d(np.asarray(p3, dtype=np.float64))
    d12 = powered_distances(((a - b) ** 2).sum(axis=1), z)
    d13 = powered_distances(((a - c) ** 2).sum(axis=1), z)
    d23 = powered_distances(((b - c) ** 2).sum(axis=1), z)
    m1 = (1 + eps) ** (zf - 1) * d13 + ((1 + eps) / eps) ** (zf - 1) * d23 - d12
    m2 = eps * d13 + ((zf + eps) / eps) ** (zf - 1) * d23 - np.abs(d12 - d13)
    return m1, m2


def check_relaxed_triangle(p1, p2, p3, z: ZLike, eps: float) -> bool:
    """Whether both relaxed triangle inequalities hold for one triple."""
    m1, m2 = relaxed_triangle_margins(p1, p2, p3, z, eps)
    tol = 1e-9 * max(1.0, float(np.abs(m1).max()), float(np.abs(m2).max()))
    return bool((m1 >= -tol).all() and (m2 >= -tol).all())


def random_grid_dataset(n: int, d: int, delta: int, seed: int,
                        config: ProblemConfig | None = None) -> GridDataset:
    """Uniform random grid points, deterministic per seed."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(1, delta + 1, size=(n, d), dtype=np.int64)
    return GridDataset(pts, delta, config)


def random_center_sets(dataset: GridDataset, k: int, count: int, seed: int) -> list[CenterSet]:
    """Query centers for verification runs.

    Alternates between k uniform grid points and k dataset points jittered by
    a Gaussian of scale delta/64, so both far and near-optimal queries occur.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        if i % 2 == 0:
            c = rng.integers(1, dataset.delta + 1, size=(k, dataset.d)).astype(np.float64)
        else:
            idx = rng.integers(0, dataset.n, size=k)
            c = dataset.points[idx].astype(np.float64)
            c = c + rng.normal(0.0, dataset.delta / 64.0, size=c.shape)
        out.append(CenterSet(c))
    return out


def save_dataset(dataset: GridDataset, path) -> None:
    """Write the little-endian KZDS container: magic, version, n, d, delta, coords."""
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<HQIQ", DATASET_VERSION, dataset.n, dataset.d, dataset.delta))
        fh.write(dataset.points.astype("<u8").tobytes(order="C"))


def _read_exact(fh, size: int, what: str) -> bytes:
    """Read ``size`` bytes. For a regular file, a size beyond what the file
    holds is rejected before anything is allocated, so a header cannot make
    the reader allocate more than the input's size."""
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode):
        held = st.st_size - fh.tell()
        if size > held:
            raise InvalidInput(f"truncated {what}: needs {size} bytes, file holds {held}")
    raw = fh.read(size)
    if len(raw) != size:
        raise InvalidInput(f"truncated {what}")
    return raw


def load_dataset(path, config: ProblemConfig | None = None) -> GridDataset:
    """Read a KZDS container written by :func:`save_dataset`."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != DATASET_MAGIC:
            raise InvalidInput(f"bad dataset magic {magic!r}, expected {DATASET_MAGIC!r}")
        version, n, d, delta = struct.unpack("<HQIQ", _read_exact(fh, 22, "dataset header"))
        if version != DATASET_VERSION:
            raise InvalidInput(f"unsupported dataset version {version}")
        if d < 1:
            raise InvalidInput("dataset dimension d must be >= 1")
        raw = _read_exact(fh, 8 * n * d, "dataset payload")
        if fh.read(1):
            raise InvalidInput("trailing bytes after the dataset payload")
        pts = np.frombuffer(raw, dtype="<u8").reshape(n, d).astype(np.int64)
    return GridDataset(pts, int(delta), config)


def load_dataset_csv(path, delta: int | None = None,
                     config: ProblemConfig | None = None) -> GridDataset:
    """Import one integer point per CSV line; delta defaults to the max coordinate."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row:
                rows.append([int(x) for x in row])
    if not rows:
        raise InvalidInput(f"no points found in {path}")
    pts = np.asarray(rows, dtype=np.int64)
    if delta is None:
        delta = max(2, int(pts.max()))
    return GridDataset(pts, delta, config)


def load_centers_csv(path) -> CenterSet:
    """Read one real center per CSV line."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row:
                rows.append([float(x) for x in row])
    if not rows:
        raise InvalidInput(f"no centers found in {path}")
    return CenterSet(np.asarray(rows, dtype=np.float64))
