"""Partial colorings of inner product matrices, adversarial centers, grid
rounding/scaling and separation witnesses: the lower-bound pipeline.

The chain: a pair of bases whose inner product matrix U has mostly small
rows admits a coloring zeta in {-1,0,+1}^n with few zeros and
||U zeta||_inf <= 1/2; the unit center c = (1/sqrt n) Q zeta + (orthogonal
completion) then drives the two clustering costs apart by at least
sqrt(n)/2; rounding to the grid preserves the gap, and the separation
witness checks it against the (1 +- 3 eps) band.

The coloring search is randomized and certifies its output: the guarantee
flag is a recomputed post-condition, never an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .anglelab import InnerProductMatrix, OrthonormalBasis, null_space
from .errors import DimensionMismatch, InvalidInput
from .geometry import CenterSet, GridDataset, RealDataset, ZLike, as_z

_BATCH = 256
_PAIR_SAMPLE_CAP = 1024
_BUCKET_SCAN_CAP = 256


@dataclass(frozen=True)
class PartialColoring:
    """A vector in {-1,0,+1}^n with its verified statistics."""

    zeta: np.ndarray
    zero_count: int
    discrepancy: float
    guarantee_met: bool
    restarts_used: int

    @classmethod
    def evaluate(cls, u: np.ndarray, zeta: np.ndarray, restarts_used: int):
        zeta = np.asarray(zeta, dtype=np.int8)
        zeros = int(np.count_nonzero(zeta == 0))
        disc = float(np.abs(u @ zeta.astype(np.float64)).max()) if len(zeta) else 0.0
        met = 4 * zeros <= len(zeta) and disc <= 0.5
        z = zeta.copy()
        z.setflags(write=False)
        return cls(z, zeros, disc, met, restarts_used)


def _u_matrix(u) -> np.ndarray:
    if isinstance(u, InnerProductMatrix):
        return u.u
    return np.asarray(u, dtype=np.float64)


def _rank_key(n: int, zeros: int, disc: float):
    # colorings inside the zero budget always beat ones outside it
    return (0 if 4 * zeros <= n else 1, disc, zeros)


def _greedy_flips(u: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Single-flip descent on ||U zeta||_inf; keeps entries in {-1,+1}."""
    n = len(zeta)
    zeta = zeta.astype(np.float64)
    r = u @ zeta
    best = np.abs(r).max()
    for _ in range(2 * n):
        cand = np.abs(r[:, None] - 2.0 * u * zeta[None, :]).max(axis=0)
        j = int(np.argmin(cand))
        if cand[j] >= best - 1e-15:
            break
        r = r - 2.0 * zeta[j] * u[:, j]
        zeta[j] = -zeta[j]
        best = cand[j]
    return zeta.astype(np.int8)


def _pairing_candidates(u: np.ndarray, samples: np.ndarray):
    """Bucket sampled full colorings by round(U zeta) and halve the farthest
    same-bucket pair; each result has ||U zeta||_inf <= 1/2 by construction."""
    rounded = np.rint(u @ samples).astype(np.int64)
    buckets: dict[bytes, list[int]] = {}
    for col in range(samples.shape[1]):
        buckets.setdefault(rounded[:, col].tobytes(), []).append(col)
    out = []
    for cols in buckets.values():
        if len(cols) < 2:
            continue
        cols = cols[:_BUCKET_SCAN_CAP]
        z = samples[:, cols]
        gram = z.T @ z
        np.fill_diagonal(gram, z.shape[0] + 1)
        i, j = np.unravel_index(np.argmin(gram), gram.shape)
        out.append(((z[:, i] - z[:, j]) // 2).astype(np.int8))
    return out


def find_partial_coloring(u, max_restarts: int = 10_000, seed: int = 0) -> PartialColoring:
    """Search for a low-discrepancy partial coloring of U.

    Seeded random full colorings, then greedy single-flip descent on the
    best one, then a rounding-class pairing pass (bucket sampled colorings
    by round(U zeta), difference the farthest same-bucket pair and halve).
    Total: always returns the best coloring found, with ``guarantee_met``
    recomputed from the output (zero_count <= n/4 and discrepancy <= 1/2).
    """
    mat = _u_matrix(u)
    n = mat.shape[0]
    if n < 1:
        raise InvalidInput("U must be at least 1 x 1")
    if max_restarts < 1:
        raise InvalidInput(f"max_restarts must be >= 1, got {max_restarts}")
    rng = np.random.Generator(np.random.PCG64(seed))

    best_zeta = np.ones(n, dtype=np.int8)
    best_key = _rank_key(n, 0, float(np.abs(mat.sum(axis=1)).max()))
    kept = [best_zeta.astype(np.float64)]
    restarts = 1
    if best_key[1] <= 0.5:
        return PartialColoring.evaluate(mat, best_zeta, restarts)

    while restarts < max_restarts:
        b = min(_BATCH, max_restarts - restarts)
        z = (rng.integers(0, 2, size=(n, b)) * 2 - 1).astype(np.float64)
        disc = np.abs(mat @ z).max(axis=0)
        restarts += b
        j = int(np.argmin(disc))
        key = _rank_key(n, 0, float(disc[j]))
        if key < best_key:
            best_key, best_zeta = key, z[:, j].astype(np.int8)
        if len(kept) < _PAIR_SAMPLE_CAP:
            take = min(b, _PAIR_SAMPLE_CAP - len(kept))
            kept.extend(z[:, i] for i in range(take))
        if best_key[0] == 0 and best_key[1] <= 0.5:
            return PartialColoring.evaluate(mat, best_zeta, restarts)

    improved = _greedy_flips(mat, best_zeta)
    key = _rank_key(n, 0, float(np.abs(mat @ improved.astype(np.float64)).max()))
    if key < best_key:
        best_key, best_zeta = key, improved

    if not (best_key[0] == 0 and best_key[1] <= 0.5):
        for cand in _pairing_candidates(mat, np.stack(kept, axis=1)):
            zeros = int(np.count_nonzero(cand == 0))
            disc = float(np.abs(mat @ cand.astype(np.float64)).max())
            key = _rank_key(n, zeros, disc)
            if key < best_key:
                best_key, best_zeta = key, cand

    return PartialColoring.evaluate(mat, best_zeta, restarts)


def _check_zeta(zeta, n: int) -> np.ndarray:
    z = np.asarray(zeta)
    if z.shape != (n,):
        raise DimensionMismatch(f"coloring has shape {z.shape}, expected ({n},)")
    if not np.isin(z, (-1, 0, 1)).all():
        raise InvalidInput("coloring entries must lie in {-1, 0, +1}")
    return z.astype(np.float64)


def _null_direction(p: OrthonormalBasis, q: OrthonormalBasis) -> np.ndarray:
    """First column of an orthonormal basis of the null space of [P Q]^T."""
    stack = np.hstack([p.matrix, q.matrix])
    ns = null_space(stack.T)
    if ns.shape[1] == 0:
        raise InvalidInput("span(P) + span(Q) covers R^d; no orthogonal direction left")
    return ns[:, 0]


def _unit_completion(p: OrthonormalBasis, q: OrthonormalBasis,
                     c_tilde: np.ndarray) -> np.ndarray:
    """c_tilde plus a direction orthogonal to span(P) + span(Q), scaled to
    make a unit vector; c_tilde alone if its norm is already 1."""
    resid = max(0.0, 1.0 - float(c_tilde @ c_tilde))
    c = c_tilde
    if resid > 1e-15:
        c = c_tilde + math.sqrt(resid) * _null_direction(p, q)
    nrm = float(np.linalg.norm(c))
    if abs(nrm - 1.0) > 1e-10:
        raise InvalidInput(f"constructed center has norm {nrm}")
    return c


def adversarial_center(q: OrthonormalBasis, p: OrthonormalBasis, zeta) -> np.ndarray:
    """Unit center c = (1/sqrt n) Q zeta plus an orthogonal completion.

    Requires d > 2n so a direction orthogonal to both spans exists.
    """
    if q.matrix.shape != p.matrix.shape:
        raise DimensionMismatch("P and Q must share (d, n)")
    d, n = q.d, q.n
    if d <= 2 * n:
        raise InvalidInput(f"adversarial center needs d > 2n, got d={d}, n={n}")
    z = _check_zeta(zeta, n)
    return _unit_completion(p, q, q.matrix @ (z / math.sqrt(n)))


def paired_witness_centers(q: OrthonormalBasis, zeta) -> CenterSet:
    """Two unit centers, each the normalized sum over half of the
    coloring's support.

    Every supported q_i projects 1/sqrt(n_half) onto its half's center,
    against 1/sqrt(n) for the single +-c witness, so the k=2 cost gap grows
    by a factor sqrt(2). The other dataset's projections are bounded by
    sigma_1 directly (|P^T Q v| <= sigma_1 for unit v), so this witness
    suits the near-orthogonal instances; unlike the +-c pair it does not
    lean on the coloring's sign cancellation, and it needs no orthogonal
    completion (so d > 2n is not required).
    """
    z = _check_zeta(zeta, q.n)
    support = np.flatnonzero(z != 0)
    if len(support) < 2:
        raise InvalidInput("paired witness needs a coloring with support >= 2")
    half = len(support) // 2
    centers = []
    for part in (support[:half], support[half:]):
        v = q.matrix[:, part].sum(axis=1)
        centers.append(v / math.sqrt(len(part)))
    return CenterSet(np.stack(centers))


def cost_gap(p: OrthonormalBasis, q: OrthonormalBasis, c: np.ndarray, z: ZLike) -> float:
    """cost_z(P, {c,-c}) - cost_z(Q, {c,-c}) for a unit center c."""
    c = np.asarray(c, dtype=np.float64)
    nrm = float(np.linalg.norm(c))
    if abs(nrm - 1.0) > 1e-8:
        raise InvalidInput(f"cost_gap requires a unit center, got norm {nrm}")
    cen = CenterSet(np.stack([c, -c]))
    return (geometry.cost(RealDataset(p.matrix.T), cen, z)
            - geometry.cost(RealDataset(q.matrix.T), cen, z))


def power_gap_bound(z: ZLike, n: int) -> tuple[float, float]:
    """(leading, additive) terms of the general-z gap bound; the guaranteed
    gap is leading - additive, which may go negative for tiny n."""
    zf = float(as_z(z))
    scale = 2.0 ** (zf / 2.0) * zf
    leading = scale / 8.0 * math.sqrt(n)
    if zf <= 2.0:
        additive = scale * (1.0 - zf / 2.0) / 4.0
    else:
        additive = scale * (zf / 2.0 - 1.0) / 8.0
    return leading, additive


def center_for_power(p: OrthonormalBasis, q: OrthonormalBasis,
                     c_hat: np.ndarray) -> np.ndarray:
    """Center achieving the general-z cost gap: c = c_hat/2 plus an
    orthogonal completion to unit norm.

    Requires the precondition sum|<p_i, c_hat>| - sum|<q_i, c_hat>| > sqrt(n)/2
    (call with P and Q in the order that makes the difference positive);
    the resulting gap cost_z(Q, {c,-c}) - cost_z(P, {c,-c}) then meets
    ``power_gap_bound(z, n)`` for every z.
    """
    if q.matrix.shape != p.matrix.shape:
        raise DimensionMismatch("P and Q must share (d, n)")
    d, n = p.d, p.n
    if d <= 2 * n:
        raise InvalidInput(f"center_for_power needs d > 2n, got d={d}, n={n}")
    c_hat = np.asarray(c_hat, dtype=np.float64)
    if abs(float(np.linalg.norm(c_hat)) - 1.0) > 1e-8:
        raise InvalidInput("c_hat must be a unit vector")
    achieved = (np.abs(p.matrix.T @ c_hat).sum()
                - np.abs(q.matrix.T @ c_hat).sum())
    if achieved <= 0.5 * math.sqrt(n) - 1e-9:
        raise InvalidInput(
            f"precondition gap {achieved:.6f} is below sqrt(n)/2 = "
            f"{0.5 * math.sqrt(n):.6f}")
    return _unit_completion(p, q, 0.5 * c_hat)


def odd_grid_side(d: int, eps: float, z: ZLike = 2) -> int:
    """Grid side for the rounded hard instance: ceil(10 sqrt(d)/eps) at
    z = 2, ceil(3072 * 2^(z/2) sqrt(d) / (z^2 eps)) otherwise; forced odd.

    The codec stores a coordinate minus one in at most 62 bits, so the side
    may not exceed 2^62. A float below 2^62 is at most 2^62 - 512, so its
    odd ceiling fits; 2^62 itself would become 2^62 + 1.
    """
    zf = float(as_z(z))
    try:
        if zf == 2.0:
            side = 10.0 * math.sqrt(d) / eps
        else:
            side = 3072.0 * 2.0 ** (zf / 2.0) * math.sqrt(d) / (zf * zf * eps)
    except OverflowError:       # 2^(z/2) beyond float64
        side = math.inf
    if not side < 2.0 ** 62:
        raise InvalidInput(f"grid side {side:.4g} for d={d}, eps={eps}, z={as_z(z)} "
                           f"is not below 2^62, the codec's grid limit")
    delta = math.ceil(side)
    return delta if delta % 2 == 1 else delta + 1


@dataclass(frozen=True)
class RoundScaleResult:
    """Rounded grid dataset plus the unrounded image it came from."""

    dataset: GridDataset
    hat_points: np.ndarray
    displacement: np.ndarray

    @property
    def max_displacement(self) -> float:
        return float(self.displacement.max()) if len(self.displacement) else 0.0


def round_and_scale(points: RealDataset, delta: int) -> RoundScaleResult:
    """Map unit-ball points onto [1, delta]^d: shift the origin to
    ceil(delta/2) * 1, scale by delta/2, round every coordinate upward,
    then clamp into the grid."""
    pts = points.points
    if delta < 3 or delta % 2 == 0:
        raise InvalidInput(f"delta must be an odd integer >= 3, got {delta}")
    norms = np.linalg.norm(pts, axis=1)
    if norms.max(initial=0.0) > 1.0 + 1e-9:
        raise InvalidInput("round_and_scale expects points in the unit ball")
    shift = math.ceil(delta / 2)
    hat = (delta / 2.0) * pts + shift
    tilde = np.ceil((delta / 2.0) * pts).astype(np.int64) + shift
    np.clip(tilde, 1, delta, out=tilde)
    disp = np.linalg.norm(hat - tilde, axis=1)
    return RoundScaleResult(GridDataset(geometry._freeze(tilde), delta), hat, disp)


def scale_center(c: np.ndarray, delta: int) -> np.ndarray:
    """Image of a center under the same shift and scale (no rounding)."""
    return (delta / 2.0) * np.asarray(c, dtype=np.float64) + math.ceil(delta / 2)


@dataclass(frozen=True)
class SeparationWitness:
    """A center set together with the two costs and the band verdict."""

    centers: CenterSet
    cost_p: float
    cost_q: float
    separated: bool
    epsilon: float


def separation_witness(p: GridDataset, q: GridDataset, centers: CenterSet,
                       z: ZLike, eps: float) -> SeparationWitness:
    """Check cost_z(P, C) against the open band (1 +- 3 eps) cost_z(Q, C).

    A zero cost on exactly one side always separates: no sketch can answer
    both 0 and a positive value for the same query. A cost that overflows
    float64 raises an error naming z, as no band can be checked against inf.
    """
    if p.d != q.d:
        raise DimensionMismatch("datasets must share d")
    with np.errstate(over="ignore"):
        cp = geometry.cost(p, centers, z)
        cq = geometry.cost(q, centers, z)
    if not (math.isfinite(cp) and math.isfinite(cq)):
        raise InvalidInput(f"z = {as_z(z)}: a witness cost overflows float64")
    if cp == 0.0 or cq == 0.0:
        sep = cp != cq
    else:
        sep = not ((1 - 3 * eps) * cq < cp < (1 + 3 * eps) * cq)
    return SeparationWitness(centers, cp, cq, bool(sep), eps)
