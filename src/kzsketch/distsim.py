"""Coordinator-model distributed sketching and insertion-only streaming,
with exact communication and storage accounting.

Sites are simulated in-process, but every "transmission" passes through the
codec's wire format, so the bit counts are the real serialized sizes. Site
``i`` derives its randomness from ``seed + i``; stream block ``b`` from
``seed + b``; the r-th level reduction from ``seed + 1000003 * (r + 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import codec, coreset as coreset_mod, geometry
from .codec import Sketch
from .coreset import WeightedCoreset
from .errors import DimensionMismatch, InvalidInput
from .geometry import GridDataset, ProblemConfig, ZLike, as_z


@dataclass(frozen=True)
class SitePartition:
    """l shards over a common (d, delta); each site holds one privately."""

    shards: list[GridDataset]

    def __post_init__(self):
        if not self.shards:
            raise InvalidInput("partition needs at least one site")
        d, delta = self.shards[0].d, self.shards[0].delta
        for i, s in enumerate(self.shards):
            if s.d != d or s.delta != delta:
                raise DimensionMismatch(
                    f"site {i} has (d={s.d}, delta={s.delta}), expected ({d}, {delta})")
            if s.n < 1:
                raise InvalidInput(f"site {i} holds no points")

    @property
    def l(self) -> int:
        return len(self.shards)

    @property
    def total_n(self) -> int:
        return sum(s.n for s in self.shards)


@dataclass(frozen=True)
class CommLedger:
    """Exact bits shipped site -> coordinator, one round."""

    per_site_bits: list[int]
    rounds: int = 1

    @property
    def total_bits(self) -> int:
        return sum(self.per_site_bits)

    def as_dict(self) -> dict:
        return {"per_site_bits": list(self.per_site_bits),
                "total_bits": self.total_bits, "rounds": self.rounds}


class MergedSketch:
    """Composite query object over several sketches; no re-encoding.

    Cost estimates are the fixed-order sum of the members' estimates, so
    merge additivity is exact; the effective epsilon is the members' max.
    """

    def __init__(self, sketches: list[Sketch]):
        if not sketches:
            raise InvalidInput("cannot merge zero sketches")
        first = sketches[0]
        for i, s in enumerate(sketches):
            if (s.d, s.z, s.delta) != (first.d, first.z, first.delta):
                raise DimensionMismatch(
                    f"sketch {i} header (d={s.d}, z={s.z}, delta={s.delta}) differs "
                    f"from (d={first.d}, z={first.z}, delta={first.delta})")
        self.sketches = list(sketches)
        self.d = first.d
        self.z = first.z
        self.delta = first.delta
        self.epsilon = max(s.epsilon for s in sketches)

    def estimate_cost(self, centers) -> float:
        total = 0.0
        for s in self.sketches:
            total += s.estimate_cost(centers)
        return total

    @property
    def total_bits(self) -> int:
        return sum(s.ledger.total_bits for s in self.sketches)


def merge_sketches(sketches: list[Sketch]) -> MergedSketch:
    return MergedSketch(sketches)


def _sketch_site(shard: GridDataset, k: int, z, eps: float, seed: int,
                 method: str) -> bytes:
    centers = coreset_mod.approx_centers(shard, k, z, seed)
    cs = coreset_mod.build_coreset(shard, k, z, eps, method=method, seed=seed,
                                   centers=centers)
    config = ProblemConfig(n=shard.n, d=shard.d, k=k, z=as_z(z),
                           delta=shard.delta, epsilon=eps)
    return codec.encode(cs, centers, config).to_bytes()


def run_coordinator(partition: SitePartition, k: int, z: ZLike, eps: float,
                    seed: int, method: str = "sensitivity"):
    """One-round star protocol: every site encodes its shard and ships the
    sketch; the coordinator parses and merges. Returns the merged query
    object and the exact communication ledger."""
    wires = [_sketch_site(shard, k, z, eps, seed + i, method)
             for i, shard in enumerate(partition.shards)]
    received = [Sketch.from_bytes(w) for w in wires]
    ledger = CommLedger([s.ledger.total_bits for s in received])
    return merge_sketches(received), ledger


def split_round_robin(dataset: GridDataset, l: int) -> SitePartition:
    """Deal points to l sites in order; deterministic."""
    if l < 1 or l > dataset.n:
        raise InvalidInput(f"need 1 <= l <= n, got l={l}, n={dataset.n}")
    shards = [GridDataset(dataset.points[i::l], dataset.delta) for i in range(l)]
    return SitePartition(shards)


@dataclass
class StreamState:
    """Insertion-only stream: buffer raw points, sketch full blocks at
    eps/2, and fold level-0 sketches into a level-1 sketch at a cap.

    ``max_resident_bits`` is the running maximum of buffer bits plus live
    sketch bits; ``formula_bits_at_max`` is the reporting-formula value at
    the same moment.
    """

    delta: int
    d: int
    k: int
    z: ZLike
    eps: float
    block_size: int
    seed: int
    method: str = "identity"
    level0_cap: int = 16

    buffer: list = field(default_factory=list)
    level_sketches: dict = field(default_factory=lambda: {0: [], 1: []})
    points_seen: int = 0
    blocks_flushed: int = 0
    reductions: int = 0
    max_resident_bits: int = 0
    # (points seen, buffered points, live coreset sizes) at the maximum
    _at_max: tuple = field(default=(0, 0, ()), init=False, repr=False)

    def __post_init__(self):
        self.z = as_z(self.z)
        if self.block_size < self.k + 1:
            raise InvalidInput(
                f"block_size must be >= k+1 = {self.k + 1}, got {self.block_size}")
        if self.level0_cap < 2:
            raise InvalidInput(f"level0_cap must be >= 2, got {self.level0_cap}")

    # -- accounting ---------------------------------------------------------

    def _live_sketches(self) -> list[Sketch]:
        return self.level_sketches[1] + self.level_sketches[0]

    def _buffer_bits(self, points: int) -> int:
        return points * self.d * max(1, (self.delta - 1).bit_length())

    def _resident_bits(self) -> int:
        return self._buffer_bits(len(self.buffer)) + sum(
            s.ledger.total_bits for s in self._live_sketches())

    def _touch(self):
        res = self._resident_bits()
        if res > self.max_resident_bits:
            self.max_resident_bits = res
            self._at_max = (self.points_seen, len(self.buffer),
                            tuple(s.coreset_size for s in self._live_sketches()))

    @property
    def formula_bits_at_max(self) -> float:
        points_seen, buffered, sizes = self._at_max
        n = max(2, points_seen)
        total = float(self._buffer_bits(buffered))
        for size in sizes:
            total += codec.theoretical_upper_bound(
                n, self.k, self.d, self.delta, self.eps / 2.0, float(self.z),
                size) + 256.0
        return total

    # -- stream operations ----------------------------------------------------

    def push(self, point):
        p = np.asarray(point, dtype=np.int64)
        if p.shape != (self.d,):
            raise DimensionMismatch(f"point shape {p.shape}, expected ({self.d},)")
        self.buffer.append(p)
        self.points_seen += 1
        self._touch()
        if len(self.buffer) >= self.block_size:
            self._flush_block()

    def _flush_block(self):
        if not self.buffer:
            return
        block = GridDataset(np.stack(self.buffer), self.delta)
        self.buffer = []
        block_seed = self.seed + self.blocks_flushed
        centers = coreset_mod.approx_centers(block, self.k, self.z, block_seed)
        cs = coreset_mod.build_coreset(block, self.k, self.z, self.eps / 2.0,
                                       method=self.method, seed=block_seed,
                                       centers=centers)
        config = ProblemConfig(n=block.n, d=self.d, k=self.k, z=self.z,
                               delta=self.delta, epsilon=self.eps / 2.0)
        self.level_sketches[0].append(codec.encode(cs, centers, config))
        self.blocks_flushed += 1
        self._touch()
        if len(self.level_sketches[0]) >= self.level0_cap:
            self._reduce_level0()

    def _reduce_level0(self):
        """Decode every level-0 sketch, re-coreset the union at eps/2 and
        re-encode one level-1 sketch.

        Decoded points are real vectors; they are rounded back to the grid
        before re-encoding (the codec stores integer deltas). The extra
        displacement is covered by the conservative end-to-end 3 eps budget.
        """
        weights, points = [], []
        for s in self.level_sketches[0] + self.level_sketches[1]:
            w, p, _ = s.decode()
            weights.append(w)
            points.append(p)
        w = np.concatenate(weights)
        pts = np.clip(np.rint(np.concatenate(points)), 1, self.delta).astype(np.int64)
        keep = w > 0
        w, pts = w[keep], pts[keep]

        reduce_seed = self.seed + 1_000_003 * (self.reductions + 1)
        union = GridDataset(pts, self.delta)
        centers = coreset_mod.approx_centers(union, self.k, self.z, reduce_seed)
        if self.method == "sensitivity":
            w, pts = self._subsample(w, pts, centers, reduce_seed)
        cs = WeightedCoreset(pts, w, source_n=self.points_seen, epsilon=self.eps / 2.0)
        config = ProblemConfig(n=self.points_seen, d=self.d, k=self.k, z=self.z,
                               delta=self.delta, epsilon=self.eps / 2.0)
        self.level_sketches = {0: [], 1: [codec.encode(cs, centers, config)]}
        self.reductions += 1
        self._touch()

    def _subsample(self, w, pts, centers, seed):
        """Importance-resample a weighted set; unbiased for every center set."""
        rng = np.random.Generator(np.random.PCG64(seed))
        with np.errstate(over="ignore"):
            per_point = geometry.min_powered_distances(
                pts.astype(np.float64), centers.centers.astype(np.float64), self.z)
            mass = w * per_point
            total = coreset_mod.dz_total(mass, self.z)
        sens = (mass / total if total > 0 else np.zeros_like(w)) + w / w.sum()
        prob = sens / sens.sum()
        eps_half = self.eps / 2.0
        m = min(len(w), int(math.ceil(
            4.0 * self.k * eps_half ** -2 * (self.d + math.log2(100.0)))))
        draws = coreset_mod._inverse_cdf_sample(rng, prob, m)
        uniq, counts = np.unique(draws, return_counts=True)
        new_w = w[uniq] * counts / (m * prob[uniq])
        return new_w, pts[uniq]

    def finish(self) -> list[Sketch]:
        """Flush a trailing partial block; returns the live sketch set."""
        if self.buffer:
            self._flush_block()
        return self._live_sketches()


@dataclass(frozen=True)
class StreamResult:
    merged: MergedSketch
    sketches: list[Sketch]
    max_resident_bits: int
    formula_bits_at_max: float
    blocks: int
    reductions: int


def run_stream(points: GridDataset, k: int, z: ZLike, eps: float,
               block_size: int, seed: int, method: str = "identity",
               level0_cap: int = 16) -> StreamResult:
    """Feed the dataset's rows through the stream in order."""
    state = StreamState(delta=points.delta, d=points.d, k=k, z=z, eps=eps,
                        block_size=block_size, seed=seed, method=method,
                        level0_cap=level0_cap)
    for row in points.points:
        state.push(row)
    live = state.finish()
    return StreamResult(merge_sketches(live), live, state.max_resident_bits,
                        state.formula_bits_at_max, state.blocks_flushed,
                        state.reductions)
