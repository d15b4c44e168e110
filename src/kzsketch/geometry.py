"""Dataset and center-set containers with exact (k,z)-clustering cost evaluation.

Points live on the integer grid ``[1, delta]^d`` (``GridDataset``) or in
``R^d`` (``RealDataset``). All cost sums use numpy's pairwise summation over
a fixed point order, so values are reproducible bit-for-bit across runs.
"""

from __future__ import annotations

import csv
import functools
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


def _owned(a: np.ndarray, given) -> np.ndarray:
    """``a``, made from a caller's ``given``, read-only: copied first if writable and
    perhaps ``given`` or a view of it. The library hands over its own arrays read-only."""
    if a.flags.writeable and (a is given or not a.flags.owndata):
        a = a.copy()
    return _freeze(a)


def grid_coordinates(values) -> np.ndarray:
    """``values`` as int64. Integer input converts as numpy casts it; any
    other input must hold integers that fit int64 (so no NaN or inf), not
    values to be truncated."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        a = a.astype(np.float64)
        if not ((a == np.floor(a)) & (np.abs(a) < 2.0 ** 63)).all():
            raise InvalidInput("grid coordinates must be integers that fit int64")
    return a.astype(np.int64, copy=False)


def _check_grid_range(pts: np.ndarray, delta: int) -> None:
    if pts.size and (pts.min() < 1 or pts.max() > delta):
        raise InvalidInput(f"grid coordinates must lie in [1, {delta}]; "
                           f"found range [{pts.min()}, {pts.max()}]")


@dataclass(frozen=True)
class GridDataset:
    """n integer points in [1, delta]^d, owned (see :func:`_owned`), with their
    rows for the distance kernel (one float64 copy and norms) kept from first use."""

    points: np.ndarray
    delta: int

    def __post_init__(self):
        pts = np.ascontiguousarray(grid_coordinates(self.points))
        if pts.ndim != 2:
            raise InvalidInput("grid points must form an (n, d) array")
        _check_grid_range(pts, self.delta)
        object.__setattr__(self, "points", _owned(pts, self.points))

    @functools.cached_property
    def _rows(self) -> _Rows:
        return _Rows(self.points)

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


class _Rows:
    """Rows prepared for the distance kernel, its one operand type for
    points and centers alike: the finite float64 ``points``, their squared
    norms ``sq`` and whether every value is integral, which makes them grid
    rows for :func:`_nearest`. Integer input (an integer array or a
    ``GridDataset``) is finite and integral by its type, so both scans are
    skipped for its read-only float64 copy; any other input is scanned for
    integrality on the first read of ``integral``. The points must not
    change afterwards."""

    __slots__ = ("points", "sq", "_integral")

    def __init__(self, points):
        points = _points_of(points)
        if points.ndim != 2:
            raise InvalidInput("prepared rows must be an (n, d) array")
        if points.dtype.kind in "iu":
            points, integral = _freeze(points.astype(np.float64)), True
        elif not np.isfinite(points).all():
            raise InvalidInput("distance evaluation requires finite coordinates")
        else:
            integral = None
        self.points, self._integral = points, integral
        with np.errstate(over="ignore"):
            self.sq = _freeze(np.einsum("ij,ij->i", points, points))

    @property
    def integral(self) -> bool:
        if self._integral is None:
            self._integral = bool((self.points == np.floor(self.points)).all())
        return self._integral


def _points_of(obj) -> np.ndarray:
    """The coordinates of ``obj``: integer arrays as they are, for
    :class:`_Rows` to tell them by their type; anything else as float64."""
    if isinstance(obj, (GridDataset, RealDataset, _Rows)):
        return obj.points
    if isinstance(obj, CenterSet):
        return obj.centers
    a = np.asarray(obj)
    return a if a.dtype.kind in "iu" else a.astype(np.float64, copy=False)


# pairs per chunk of _scan: its temporaries are O(_BLOCK * d)
_BLOCK = 1024
# values per chunk of the distance kernel, its (k, rows) matrix and the
# rows' (rows, d) direct form together: 4 MB of float64
_GRID_VALUES = 2 ** 19


def _scan(fpts: np.ndarray, cen: np.ndarray,
          near: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact resolver over the (row, center) pairs marked in ``near``:
    the direct ``((p - c) ** 2).sum()`` value, ties to the lowest index.
    Pairs go in row-major chunks of ``_BLOCK``, so temporaries stay
    O(``_BLOCK`` * d); a row with no marked center gets index 0 and inf."""
    rows, cols = np.nonzero(near)
    best = np.full(fpts.shape[0], np.inf)
    arg = np.zeros(fpts.shape[0], dtype=np.int64)
    for lo in range(0, rows.size, _BLOCK):
        r, c = rows[lo:lo + _BLOCK], cols[lo:lo + _BLOCK]
        d2 = ((fpts[r] - cen[c]) ** 2).sum(axis=1)
        # by row, then value, then center: each row's first pair is its minimum
        order = np.lexsort((c, d2, r))
        head = order[np.flatnonzero(np.r_[True, r[1:] != r[:-1]])]
        # a row carried over from the previous chunk continues with higher
        # centers, so only a strictly smaller value takes over
        head = head[d2[head] < best[r[head]]]
        best[r[head]] = d2[head]
        arg[r[head]] = c[head]
    return best, arg


def _grid_chunk(integral: bool, p_sq: np.ndarray, c_norm: float) -> bool:
    """Whether rows of squared norms ``p_sq`` take :func:`_nearest`'s grid
    pass: both sides are ``integral`` and sqrt(max p_sq) + c_norm <= 2^26,
    which for floats is (sqrt(max p_sq) + c_norm)^2 <= 2^52 and cannot overflow."""
    return integral and np.sqrt(p_sq.max(initial=0.0)) + c_norm <= 2.0 ** 26


# the filter and the direct form may overflow: the filter's such rows fall
# to _scan by the rule below, and the direct form's values are inf
@np.errstate(over="ignore", invalid="ignore")
def _nearest(points, centers,
             index: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """(squared distance to the nearest center, its index) for every point;
    with ``index`` false the index is None, and the grid pass keeps none.

    The result is bit for bit that of :func:`_scan` over all pairs: the direct
    ``((p - c) ** 2).sum()`` value, ties to the lowest index. Any input is
    taken as :class:`_Rows`, the centers as the points: prepared here unless
    the caller prepared them or they are a ``GridDataset``, which keeps its
    own, so their ``sq`` and ``integral`` serve as the norms and the grid
    test, and prepared rows are not scanned or copied again.

    One loop takes the rows in chunks of ``max(1, _GRID_VALUES // (k + d))``,
    each the ``(k, rows)`` matrix ``e = -2 C P^T + |c|^2``, the smaller
    operand scaled by -2 (exactly); with more centers than rows it is
    computed as ``(rows, k)``, so that k is its contiguous axis. For a row
    p, e_j stands for s_j = t_j - |p|^2, where t_j is the exact squared
    distance to center j; |p|^2 is the same for every center of the row.
    Each chunk takes one reduction of ``e``: each row's minimum, the
    candidate mask ``e_j <= min(e) + T``, the row's candidate count in
    ``np.min_scalar_type(k)``, which holds k, and the sum of j over its
    candidates in the index dtype, which is a lone candidate's index and
    with several candidates may wrap past k.

    Grid pass: a chunk of integral rows against integral centers with
    ``(sqrt(max |p|^2) + max|c|)^2 <= 2^52``, on the chunk's own largest
    norm: every intermediate of both forms (the products, the partial sums
    of the dot products and norms, the differences and the sums of
    squares, the minimum plus |p|^2) is an integer of magnitude at most
    ``(|p| + |c|)^2 <= 2^53``, so each is exact in any summation order,
    with or without fused multiply-adds. So e_j is s_j, ties fall where the
    direct form's do, and the minimum plus |p|^2 is the direct form's
    minimum. The margin from 2^52 to 2^53 covers the rounding of the
    computed norms, the largest of which bounds them all. Without the index
    the chunk stops at the minimum plus |p|^2. With it, T = 0, so the
    candidates are exactly the ties of the minimum, and a row with several
    takes the lowest, the first along its mask by ``argmax``.

    One center off the grid is every row's lone candidate: the chunk skips
    ``e`` and takes the direct form. Any other chunk is filtered.

    Filter: ``T = 8 g (|p| + max|c|)^2 + 128 (d + 4) eta``, ``g =
    gamma_{d+4} = (d+4) u / (1 - (d+4) u)``, ``u = 2^-53`` and ``eta =
    2^-1075``. The gather of the direct form's centers clips a wrapped index
    sum into range, and ``_scan`` overwrites it.

    Refine: a row with exactly one candidate takes it, and its value is
    recomputed in the direct form. Rows with several (exact ties, duplicate
    centers, overflow) go through ``_scan`` over their candidates only;
    rows with none (a NaN in e) over every center.

    Why a lone candidate is the direct form's strict minimum: let X = (|p|
    + max|c|)^2 >= t_j. |c_j|^2 and p.c_j are d-term dot products, within
    gamma_d times |c_j|^2 and |p||c_j| of their values in any summation
    order, and one addition follows; the direct form sums d nonnegative
    terms, each with relative error gamma_3. So e_j is within gamma_{d+1} X
    + 2 d eta of s_j and the direct value r_j within gamma_{d+2} X + d eta
    of t_j, where eta bounds the absolute error of a product that
    underflows (additions add none). As s_j - s_i = t_j - t_i, for the
    row's argmin i of e and any j with e_j > e_i + T, r_j > r_i whenever T
    >= 4 gamma_{d+2} X + 8 d eta; the T above is at least twice that, which
    covers the rounding of the norms, of T and of min(e) + T, all of
    magnitude at most X + T. If X overflows, T is inf and every center is a
    candidate, or none where min(e) is -inf or NaN; otherwise no
    intermediate of e overflows."""
    pts, cen = _points_of(points), _points_of(centers)
    if pts.ndim != 2 or cen.ndim != 2 or pts.shape[1] != cen.shape[1]:
        raise DimensionMismatch(
            f"points have dimension {pts.shape[1:]} but centers {cen.shape[1:]}")
    if cen.shape[0] < 1:
        raise InvalidInput("need at least one center")
    rows, centers = (x if isinstance(x, _Rows) else x._rows if isinstance(x, GridDataset)
                     else _Rows(a) for x, a in ((points, pts), (centers, cen)))
    pts, cen, c_sq = rows.points, centers.points, centers.sq
    n, d = pts.shape
    k = cen.shape[0]
    u = 2.0 ** -53
    g = (d + 4) * u / (1 - (d + 4) * u)
    floor = 64.0 * (d + 4) * 2.0 ** -1074  # 128 (d + 4) eta
    c_norm = np.sqrt(c_sq.max())
    integral = centers.integral and rows.integral
    best, arg = np.empty(n), np.zeros(n, dtype=np.min_scalar_type(k - 1))
    idx = np.arange(k, dtype=arg.dtype)[:, None]
    step = max(1, _GRID_VALUES // (k + d))
    buf = np.empty(k * min(n, step))
    for lo in range(0, n, step):
        p, p_sq, b = pts[lo:lo + step], rows.sq[lo:lo + step], best[lo:lo + step]
        r = len(p)
        a = arg[lo:lo + step]
        grid = _grid_chunk(integral, p_sq, c_norm)
        if grid or k > 1:
            if k > r:  # more centers than rows: k is e's contiguous axis
                e = np.matmul(-2.0 * p, cen.T, out=buf[:r * k].reshape(r, k)).T
            else:
                e = np.matmul(-2.0 * cen, p.T, out=buf[:k * r].reshape(k, r))
            e += c_sq[:, None]
            e.min(axis=0, out=b)
            if grid and not index:
                b += p_sq
                continue
            # on the grid every e_j is exact: T = 0 marks the ties
            near = e <= (b if grid else
                         b + (8.0 * g * (np.sqrt(p_sq) + c_norm) ** 2 + floor))
            count = np.add.reduce(near, axis=0, dtype=np.min_scalar_type(k))
            # the index of a lone candidate; elsewhere it wraps, and the
            # lowest tie or _scan overwrites it
            np.add.reduce(near * idx, axis=0, dtype=a.dtype, out=a)
            if grid:
                b += p_sq
                if (tie := count > 1).any():
                    a[tie] = near[:, tie].argmax(axis=0)
                continue
        q = cen.take(a, axis=0, mode="clip")
        np.subtract(p, q, out=q)
        np.square(q, out=q)
        q.sum(axis=1, out=b)
        del q  # not held while the next chunk allocates its own
        if k > 1 and (rest := count != 1).any():
            near = near[:, rest].T
            near[~near.any(axis=1)] = True
            b[rest], a[rest] = _scan(p[rest], cen, near)
    return best, arg.astype(np.int64) if index else None


def powered_distances(sqdist: np.ndarray, z: ZLike) -> np.ndarray:
    """Raise squared distances to the z/2 power, exactly for z in {1, 2}.
    Other powers are ``exp(z/2 log(x))``: the kernel's values lie in [0,
    inf], and 0 (either sign) gives log 0 = -inf and exp(-inf) = 0 exactly,
    with its divide-by-zero flag ignored."""
    zf = as_z(z)
    if zf == 2:
        return sqdist.copy()
    if zf == 1:
        return np.sqrt(sqdist)
    half_z = float(zf) / 2.0
    with np.errstate(divide="ignore"):
        return np.exp(half_z * np.log(sqdist))


def min_powered_distances(points, centers, z: ZLike) -> np.ndarray:
    """dist^z(p, C) for every point; the shared kernel of the cost functions."""
    return powered_distances(_nearest(points, centers, index=False)[0], z)


def cost(points, centers, z: ZLike) -> float:
    """Sum over points of the z-th power distance to the nearest center."""
    return float(np.sum(min_powered_distances(points, centers, z)))


def _checked_weights(weights, n: int) -> np.ndarray:
    """``weights`` as float64, checked to be n finite, nonnegative values."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != n:
        raise DimensionMismatch(
            f"{w.shape[0] if w.ndim == 1 else w.shape} weights for {n} points")
    if not np.isfinite(w).all() or (w < 0).any():
        raise InvalidInput("weights must be finite and nonnegative")
    return w


def weighted_cost(weights, points, centers, z: ZLike) -> float:
    """Weighted clustering cost; zero weights contribute exactly 0, overflow inf."""
    w = _checked_weights(weights, _points_of(points).shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        # the points as given, so that prepared rows reach the kernel as such
        terms = w * min_powered_distances(points, centers, z)
        if np.isnan(total := np.sum(terms)):    # 0 * inf at a zero weight
            total = np.sum(np.where(w == 0, 0.0, terms))
    return float(total)


def nearest_assignment(points, centers) -> np.ndarray:
    """Index of the closest center per point; ties break to the lowest index."""
    return _nearest(points, centers)[1]


def random_grid_dataset(n: int, d: int, delta: int, seed: int) -> GridDataset:
    """Uniform random grid points, deterministic per seed."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(1, delta + 1, size=(n, d), dtype=np.int64)
    return GridDataset(_freeze(pts), delta)


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


def load_dataset(path) -> GridDataset:
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
        pts = np.frombuffer(raw, dtype="<u8").reshape(n, d)
    # checked before the int64 cast, which would wrap a value of 2^63 or more
    _check_grid_range(pts, min(delta, 2 ** 63 - 1))
    return GridDataset(_freeze(pts.astype(np.int64)), int(delta))


def _read_csv(path, parse, dtype, what: str) -> np.ndarray:
    """One row per non-empty CSV line, each field read with ``parse``. The
    file is untrusted: an unreadable field, a row whose length differs from
    the first and a value that does not fit ``dtype`` are ``InvalidInput``."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if not row:
                    continue
                if rows and len(row) != len(rows[0]):
                    raise ValueError(f"{len(row)} fields, the first row has {len(rows[0])}")
                rows.append([parse(x) for x in row])
        except (ValueError, csv.Error) as exc:
            raise InvalidInput(f"{path}, line {reader.line_num}: {exc}") from exc
    if not rows:
        raise InvalidInput(f"no {what} found in {path}")
    try:
        return np.asarray(rows, dtype=dtype)
    except OverflowError as exc:
        raise InvalidInput(f"{path}: a value does not fit {np.dtype(dtype)}") from exc


def load_dataset_csv(path) -> GridDataset:
    """Import one integer point per CSV line; delta is the max coordinate
    (at least 2)."""
    pts = _read_csv(path, int, np.int64, "points")
    return GridDataset(_freeze(pts), max(2, int(pts.max())))


def load_centers_csv(path) -> CenterSet:
    """Read one real center per CSV line."""
    return CenterSet(_read_csv(path, float, np.float64, "centers"))
