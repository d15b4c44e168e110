"""Partial colorings of inner product matrices, adversarial centers, grid
rounding/scaling, instance tiling and separation witnesses.

The chain: a pair of bases whose inner product matrix U has mostly small
rows admits a coloring zeta in {-1,0,+1}^n with few zeros and
||U zeta||_inf <= 1/2; the unit center c = (1/sqrt n) Q zeta + (orthogonal
completion) then drives the two clustering costs apart by at least
sqrt(n)/2; rounding to the grid and tiling k/2 copies preserve the gap.

The coloring search is randomized and certifies its output: the guarantee
flag is a recomputed post-condition, never an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .anglelab import InnerProductMatrix, OrthonormalBasis, null_space
from .errors import CapacityError, DimensionMismatch, InvalidInput
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
    c_tilde = q.matrix @ (z / math.sqrt(n))
    resid = max(0.0, 1.0 - float(c_tilde @ c_tilde))
    c = c_tilde
    if resid > 1e-15:
        c = c_tilde + math.sqrt(resid) * _null_direction(p, q)
    nrm = float(np.linalg.norm(c))
    if abs(nrm - 1.0) > 1e-10:
        raise InvalidInput(f"constructed center has norm {nrm}")
    return c


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


def center_for_power(p: OrthonormalBasis, q: OrthonormalBasis, c_hat: np.ndarray,
                     z: ZLike) -> np.ndarray:
    """Center achieving the general-z cost gap: c = c_hat/2 plus an
    orthogonal completion to unit norm.

    Requires the precondition sum|<p_i, c_hat>| - sum|<q_i, c_hat>| > sqrt(n)/2
    (call with P and Q in the order that makes the difference positive);
    the resulting gap cost_z(Q, {c,-c}) - cost_z(P, {c,-c}) then meets
    ``power_gap_bound(z, n)``.
    """
    zf = float(as_z(z))
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
    c_tilde = 0.5 * c_hat
    resid = 1.0 - float(c_tilde @ c_tilde)
    c = c_tilde + math.sqrt(resid) * _null_direction(p, q)
    nrm = float(np.linalg.norm(c))
    if abs(nrm - 1.0) > 1e-10:
        raise InvalidInput(f"constructed center has norm {nrm}")
    return c


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


def round_and_scale(points: RealDataset | np.ndarray, delta: int) -> RoundScaleResult:
    """Map unit-ball points onto [1, delta]^d: shift the origin to
    ceil(delta/2) * 1, scale by delta/2, round every coordinate upward,
    then clamp into the grid."""
    pts = points.points if isinstance(points, RealDataset) else np.asarray(points, float)
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
    return RoundScaleResult(GridDataset(tilde, delta), hat, disp)


def scale_center(c: np.ndarray, delta: int) -> np.ndarray:
    """Image of a center under the same shift and scale (no rounding)."""
    return (delta / 2.0) * np.asarray(c, dtype=np.float64) + math.ceil(delta / 2)


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
    both 0 and a positive value for the same query.
    """
    if p.d != q.d:
        raise DimensionMismatch("datasets must share d")
    cp = geometry.cost(p, centers, z)
    cq = geometry.cost(q, centers, z)
    if cp == 0.0 or cq == 0.0:
        sep = cp != cq
    else:
        sep = not ((1 - 3 * eps) * cq < cp < (1 + 3 * eps) * cq)
    return SeparationWitness(centers, cp, cq, bool(sep), eps)


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
