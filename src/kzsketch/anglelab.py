"""Subspace sampling and principal-angle machinery.

An n-dimensional subspace of R^d is represented by a d x n matrix with
orthonormal columns. Principal angles between two subspaces are recovered
from the SVD of the inner product matrix P^T Q: the singular values are the
cosines, so the smallest angle pairs with the largest singular value.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidInput
from .geometry import _read_exact

ORTHONORMALITY_TOL = 1e-10
BASIS_MAGIC = b"KZOB"
BASIS_VERSION = 1


@dataclass(frozen=True)
class OrthonormalBasis:
    """d x n matrix with orthonormal columns (n <= d)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.matrix, dtype=np.float64))
        if m.ndim != 2:
            raise InvalidInput("basis must be a d x n matrix")
        d, n = m.shape
        if not 1 <= n <= d:
            raise InvalidInput(f"subspace dimension n={n} must lie in [1, d={d}]")
        # huge or non-finite entries give an inf or NaN residual, rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            resid = np.abs(m.T @ m - np.eye(n)).max()
        if not resid <= ORTHONORMALITY_TOL:
            raise InvalidInput(f"columns are not orthonormal (residual {resid:.3e})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class InnerProductMatrix:
    """U = P^T Q for two orthonormal bases, with cached row norms."""

    u: np.ndarray
    row_norms: np.ndarray = field(init=False)

    def __post_init__(self):
        u = np.ascontiguousarray(np.asarray(self.u, dtype=np.float64))
        if u.ndim != 2:
            raise InvalidInput("inner product matrix must be 2-d")
        if np.abs(u).max(initial=0.0) > 1.0 + 1e-10:
            raise InvalidInput("entries of an inner product matrix lie in [-1, 1]")
        u.setflags(write=False)
        rn = np.linalg.norm(u, axis=1)
        rn.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "row_norms", rn)

    @classmethod
    def from_bases(cls, p: OrthonormalBasis, q: OrthonormalBasis) -> "InnerProductMatrix":
        if p.d != q.d or p.n != q.n:
            raise DimensionMismatch(
                f"bases have shapes {p.matrix.shape} and {q.matrix.shape}")
        return cls(p.matrix.T @ q.matrix)

    @property
    def n(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True)
class PrincipalAngles:
    """Singular values (descending) and angles (ascending, radians)."""

    sigmas: np.ndarray
    thetas: np.ndarray

    def kth_smallest(self, k: int) -> float:
        """The k-th smallest principal angle, 1-based."""
        if not 1 <= k <= len(self.thetas):
            raise InvalidInput(f"angle index {k} out of range 1..{len(self.thetas)}")
        return float(self.thetas[k - 1])


# Constants of the hard-instance regime: the fraction of angles that may be
# small, the cosine cutoff for the rest, and the row-norm profile of U
# implied by that cutoff. At desk scale ceil(a*n) is 1, so checks against
# these literal values examine the single smallest angle.
@dataclass(frozen=True)
class AngleThresholds:
    a: float = 1e-6 / 32
    cos_star: float = 1e-3 / (4 * math.sqrt(2))
    theta_star: float = field(default=float("nan"))
    row_norm_bound: float = 1e-2
    outlier_fraction: float = 1e-4 / 16

    def __post_init__(self):
        if math.isnan(self.theta_star):
            object.__setattr__(self, "theta_star", math.acos(self.cos_star))
        for name in ("a", "cos_star", "row_norm_bound", "outlier_fraction"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise InvalidInput(f"{name} must lie in (0,1), got {v}")
        if not 0 < self.theta_star < math.pi / 2 + 1e-12:
            raise InvalidInput("theta_star must lie in (0, pi/2]")

    def angle_index(self, n: int) -> int:
        """1-based index of theta_{ceil(a*n)}."""
        return max(1, math.ceil(self.a * n))


def sample_haar_basis(d: int, n: int, seed: int) -> OrthonormalBasis:
    """Haar-distributed n-dimensional subspace of R^d.

    QR of a Gaussian matrix with the R diagonal sign-fixed positive, which
    makes the column span uniform on the Grassmannian and the output
    deterministic per seed.
    """
    if n > d:
        raise InvalidInput(f"need n <= d, got n={n}, d={d}")
    rng = np.random.Generator(np.random.PCG64(seed))
    g = rng.standard_normal((d, n))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return OrthonormalBasis(q * signs)


def null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as columns) of the null space of ``a``: the right
    singular vectors past the rank cut at eps * max(a.shape) * sigma_max."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int((s > s.max(initial=0.0) * np.finfo(float).eps * max(a.shape)).sum())
    return vh[rank:].T


def orthogonal_complement_basis(p: OrthonormalBasis, n: int | None = None) -> OrthonormalBasis:
    """An orthonormal basis of (a subspace of) span(P)^perp, deterministic."""
    comp = null_space(p.matrix.T)
    take = comp.shape[1] if n is None else n
    if take > comp.shape[1]:
        raise InvalidInput(
            f"complement has dimension {comp.shape[1]}, cannot take {take} columns")
    return OrthonormalBasis(comp[:, :take])


def perturbed_orthogonal_basis(p: OrthonormalBasis, mixing: float,
                               seed: int) -> OrthonormalBasis:
    """Basis Q with all singular values of P^T Q equal to ``mixing``.

    Q = N cos(g) + (P V) sin(g) for a complement basis N and a Haar rotation
    V, with sin(g) = mixing; used to manufacture near-orthogonal pairs with
    a controlled angle profile.
    """
    if not 0 <= mixing < 1:
        raise InvalidInput(f"mixing must lie in [0,1), got {mixing}")
    comp = orthogonal_complement_basis(p, p.n)
    rng = np.random.Generator(np.random.PCG64(seed))
    v, _ = np.linalg.qr(rng.standard_normal((p.n, p.n)))
    cos_g = math.sqrt(1.0 - mixing * mixing)
    return OrthonormalBasis(comp.matrix * cos_g + (p.matrix @ v) * mixing)


def principal_angles(p: OrthonormalBasis, q: OrthonormalBasis) -> PrincipalAngles:
    """Full SVD of P^T Q, singular values clamped to [0,1] before arccos."""
    u = InnerProductMatrix.from_bases(p, q)
    sigmas = np.clip(np.linalg.svd(u.u, compute_uv=False), 0.0, 1.0)
    return PrincipalAngles(sigmas=sigmas, thetas=np.arccos(sigmas))


def row_norm_profile(u: InnerProductMatrix | np.ndarray,
                     thresholds: AngleThresholds = AngleThresholds()):
    """Indices whose U-row has squared norm within bound, and whether the
    small-row set is large enough: |K| >= (1 - outlier_fraction) * n."""
    mat = u if isinstance(u, InnerProductMatrix) else InnerProductMatrix(np.asarray(u))
    sq = mat.row_norms ** 2
    k_set = np.flatnonzero(sq <= thresholds.row_norm_bound)
    ok = len(k_set) >= (1.0 - thresholds.outlier_fraction) * mat.n
    return k_set, bool(ok)


@dataclass(frozen=True)
class PairReport:
    i: int
    j: int
    angle: float
    passed: bool


@dataclass(frozen=True)
class FamilyReport:
    pairs: list[PairReport]
    angle_index: int
    theta_star: float

    @property
    def num_pass(self) -> int:
        return sum(p.passed for p in self.pairs)

    @property
    def num_fail(self) -> int:
        return len(self.pairs) - self.num_pass

    @property
    def all_pass(self) -> bool:
        return self.num_fail == 0

    @property
    def pass_fraction(self) -> float:
        return self.num_pass / len(self.pairs) if self.pairs else 1.0


def verify_family(bases: list[OrthonormalBasis],
                  thresholds: AngleThresholds = AngleThresholds(),
                  angle_index: int | None = None,
                  theta_star: float | None = None) -> FamilyReport:
    """Check every unordered pair: is the angle_index-th smallest principal
    angle at least theta_star? Defaults come from the thresholds object."""
    if len(bases) < 2:
        raise InvalidInput("a family needs at least two bases")
    shape = bases[0].matrix.shape
    for b in bases[1:]:
        if b.matrix.shape != shape:
            raise DimensionMismatch("family members must share (d, n)")
    n = shape[1]
    idx = thresholds.angle_index(n) if angle_index is None else angle_index
    cut = thresholds.theta_star if theta_star is None else theta_star
    pairs = []
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            ang = principal_angles(bases[i], bases[j]).kth_smallest(idx)
            pairs.append(PairReport(i, j, ang, ang >= cut))
    return FamilyReport(pairs, idx, cut)


def angle_statistics(d: int, n: int, trials: int, seed: int,
                     thresholds: AngleThresholds = AngleThresholds(),
                     angle_index: int | None = None) -> dict:
    """Empirical distribution of theta_1 and theta_{ceil(a n)} over Haar pairs."""
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    idx = thresholds.angle_index(n) if angle_index is None else angle_index
    theta_min = np.empty(trials)
    theta_idx = np.empty(trials)
    for t in range(trials):
        p = sample_haar_basis(d, n, seed + 2 * t)
        q = sample_haar_basis(d, n, seed + 2 * t + 1)
        pa = principal_angles(p, q)
        theta_min[t] = pa.thetas[0]
        theta_idx[t] = pa.kth_smallest(idx)
    qs = [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99]
    return {
        "d": d, "n": n, "trials": trials, "angle_index": idx,
        "theta_min": {
            "mean": float(theta_min.mean()), "min": float(theta_min.min()),
            "max": float(theta_min.max()),
            "quantiles": {str(q): float(np.quantile(theta_min, q)) for q in qs},
        },
        "theta_indexed": {
            "mean": float(theta_idx.mean()), "min": float(theta_idx.min()),
            "max": float(theta_idx.max()),
            "quantiles": {str(q): float(np.quantile(theta_idx, q)) for q in qs},
        },
    }


def save_basis(basis: OrthonormalBasis, path) -> None:
    """Binary matrix dump: magic, version, d, n, row-major float64 entries."""
    with open(path, "wb") as fh:
        fh.write(BASIS_MAGIC)
        fh.write(struct.pack("<HII", BASIS_VERSION, basis.d, basis.n))
        fh.write(basis.matrix.astype("<f8").tobytes(order="C"))


def load_basis(path) -> OrthonormalBasis:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != BASIS_MAGIC:
            raise InvalidInput(f"bad basis magic {magic!r}")
        version, d, n = struct.unpack("<HII", _read_exact(fh, 10, "basis header"))
        if version != BASIS_VERSION:
            raise InvalidInput(f"unsupported basis version {version}")
        raw = _read_exact(fh, 8 * d * n, "basis payload")
        if fh.read(1):
            raise InvalidInput("trailing bytes after the basis payload")
        return OrthonormalBasis(np.frombuffer(raw, dtype="<f8").reshape(d, n))
