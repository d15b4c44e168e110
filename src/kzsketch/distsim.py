"""Coordinator-model distributed sketching and insertion-only streaming,
with exact communication and storage accounting.

Sites are simulated in-process, but every "transmission" passes through the
codec's wire format, so the bit counts are the real serialized sizes. Site
``i`` derives its randomness from ``seed + i``; stream block ``b`` from
``seed + b``; the r-th level reduction from ``seed + 1000003 * (r + 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import codec, geometry
from .codec import Sketch
from .errors import DimensionMismatch, InvalidInput
from .geometry import GridDataset, ProblemConfig, ZLike, as_z, grid_coordinates


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


@dataclass(frozen=True)
class CommLedger:
    """Exact bits shipped site -> coordinator, one round."""

    per_site_bits: list[int]

    @property
    def total_bits(self) -> int:
        return sum(self.per_site_bits)

    def as_dict(self) -> dict:
        return {"per_site_bits": list(self.per_site_bits),
                "total_bits": self.total_bits, "rounds": 1}


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


def run_coordinator(partition: SitePartition, k: int, z: ZLike, eps: float,
                    seed: int, method: str = "sensitivity"):
    """One-round star protocol: every site encodes its shard and ships the
    sketch; the coordinator parses and merges. Returns the merged query
    object and the exact communication ledger."""
    wires = [codec.compress(shard, k, z, eps, method, seed + i).to_bytes()
             for i, shard in enumerate(partition.shards)]
    received = [Sketch.from_bytes(w) for w in wires]
    ledger = CommLedger([s.ledger.total_bits for s in received])
    return MergedSketch(received), ledger


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

    ``max_resident_bits`` is the maximum of buffer bits plus live sketch
    bits, and ``formula_bits_at_max`` the reporting-formula value at the
    earliest moment that reaches it. Between flushes the resident bits grow
    with every pushed point, so the maximum is taken only where it can
    change: just before a flush (the buffer at its fullest, including the
    trailing partial block), after a flush and after a reduction. Read in
    the middle of a block, both reflect the last flush.
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

    buffer: list = field(default_factory=list, init=False)    # copied row blocks
    _buffered: int = field(default=0, init=False)
    level0: list = field(default_factory=list, init=False)
    level1: list = field(default_factory=list, init=False)
    points_seen: int = field(default=0, init=False)
    blocks_flushed: int = field(default=0, init=False)
    reductions: int = field(default=0, init=False)
    max_resident_bits: int = field(default=0, init=False)
    formula_bits_at_max: float = field(default=0.0, init=False)

    def __post_init__(self):
        self.z = as_z(self.z)
        if not 0.0 < self.eps < 1.0:    # before the per-block halving
            raise InvalidInput(f"epsilon must lie in (0,1), got {self.eps}")
        try:                            # the blocks' header eps, before any data
            codec.quantize_epsilon(self.eps / 2.0)
        except InvalidInput:
            raise InvalidInput(f"epsilon {self.eps} does not survive header "
                               "quantization once halved for the blocks") from None
        if self.block_size < self.k + 1:
            raise InvalidInput(
                f"block_size must be >= k+1 = {self.k + 1}, got {self.block_size}")
        if self.level0_cap < 2:
            raise InvalidInput(f"level0_cap must be >= 2, got {self.level0_cap}")
        # the blocks' problem, so that no header limit fails at a flush
        codec.check_header_fields(ProblemConfig(self.block_size, self.d, self.k, self.z,
                                                self.delta, self.eps / 2.0))

    # -- accounting ---------------------------------------------------------

    def _touch(self):
        live = self.level1 + self.level0
        buffer_bits = self._buffered * self.d * max(1, (self.delta - 1).bit_length())
        res = buffer_bits + sum(s.ledger.total_bits for s in live)
        if res > self.max_resident_bits:
            self.max_resident_bits = res
            bound = codec._upper_bounds(max(2, self.points_seen), self.k, self.d,
                                        self.delta, self.eps / 2.0, float(self.z))
            total = float(buffer_bits)
            for s in live:
                total += bound(s.coreset_size, s.unit_weights)
            self.formula_bits_at_max = total

    # -- stream operations ----------------------------------------------------

    def push(self, rows):
        """One point ``(d,)`` or rows ``(m, d)``, all checked before any counts."""
        p = grid_coordinates(rows)
        if not 1 <= p.ndim <= 2 or p.shape[-1] != self.d:
            raise DimensionMismatch(
                f"point shape {p.shape}, expected ({self.d},) or (m, {self.d})")
        geometry._check_grid_range(p, self.delta)
        p = p.reshape(-1, self.d)
        while len(p):
            cut = self.block_size - self._buffered
            take, p = p[:cut].copy(), p[cut:]
            self.buffer.append(take)
            self._buffered += len(take)
            self.points_seen += len(take)
            if self._buffered == self.block_size:
                self._flush_block()

    def _flush_block(self):
        self._touch()
        block = GridDataset(geometry._freeze(np.concatenate(self.buffer)), self.delta)
        self.buffer, self._buffered = [], 0
        self.level0.append(codec.compress(
            block, self.k, self.z, self.eps / 2.0, self.method,
            self.seed + self.blocks_flushed))
        self.blocks_flushed += 1
        self._touch()
        if len(self.level0) >= self.level0_cap:
            self._reduce_level0()

    def _reduce_level0(self):
        """Decode every level-0 sketch, re-coreset the weighted union at
        eps/2 (the identity method keeps it whole) and re-encode one level-1
        sketch that stands for every point seen.

        Decoded points are real vectors; they are rounded back to the grid
        before re-encoding (the codec stores integer deltas). The extra
        displacement is covered by the conservative end-to-end 3 eps budget.
        """
        weights, points = [], []
        for s in self.level0 + self.level1:
            w, p, _ = s.decode()
            weights.append(w)
            points.append(p)
        w = np.concatenate(weights)
        pts = np.clip(np.rint(np.concatenate(points)), 1, self.delta).astype(np.int64)
        keep = w > 0
        w, pts = geometry._freeze(w[keep]), geometry._freeze(pts[keep])

        reduce_seed = self.seed + 1_000_003 * (self.reductions + 1)
        union = GridDataset(pts, self.delta)
        self.level0 = []
        self.level1 = [codec.compress(
            union, self.k, self.z, self.eps / 2.0, self.method, reduce_seed,
            weights=w, n=self.points_seen)]
        self.reductions += 1
        self._touch()

    def finish(self) -> list[Sketch]:
        """Flush a trailing partial block; returns the live sketch set."""
        if self.buffer:
            self._flush_block()
        return self.level1 + self.level0


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
    state.push(points.points)
    live = state.finish()
    return StreamResult(MergedSketch(live), live, state.max_resident_bits,
                        state.formula_bits_at_max, state.blocks_flushed,
                        state.reductions)
