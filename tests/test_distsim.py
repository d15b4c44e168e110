import dataclasses
import re

import numpy as np
import pytest
from fractions import Fraction

from kzsketch import codec, coreset, geometry
from kzsketch.distsim import (MergedSketch, SitePartition, StreamState,
                              run_coordinator, run_stream, split_round_robin)
from kzsketch.errors import DimensionMismatch, InvalidInput
from kzsketch.geometry import CenterSet, GridDataset, ProblemConfig


def encode_offline(data, k, z, eps, seed, method="identity"):
    centers = coreset.approx_centers(data, k, z, seed)
    cs = coreset.build_coreset(data, k, z, eps, method=method, seed=seed,
                               centers=centers)
    config = ProblemConfig(n=data.n, d=data.d, k=k, z=Fraction(z),
                           delta=data.delta, epsilon=eps)
    return codec.encode(cs, centers, config)


@pytest.mark.parametrize("call, error, match", [
    (lambda: SitePartition([]), InvalidInput, "partition needs at least one site"),
    (lambda: SitePartition([geometry.random_grid_dataset(3, 2, 8, seed=0),
                            GridDataset(np.zeros((0, 2), dtype=np.int64), 8)]),
     InvalidInput, "site 1 holds no points"),
    (lambda: MergedSketch([]), InvalidInput, "cannot merge zero sketches"),
    (lambda: StreamState(delta=8, d=2, k=1, z=2, eps=0.2, block_size=4, seed=0).push([1, 2, 3]),
     DimensionMismatch, r"point shape \(3,\), expected \(2,\)"),
    *[(lambda rows=rows: StreamState(delta=8, d=2, k=1, z=2, eps=0.2, block_size=4,
                                     seed=0).push(np.ones(rows, dtype=np.int64)),
       DimensionMismatch, fr"^point shape {re.escape(str(rows))}, expected \(2,\) or \(m, 2\)$")
      for rows in [(5, 3), (2, 2, 2), ()]],
], ids=["no-site", "empty-site", "no-sketch", "point-of-another-dimension",
        "rows-of-another-dimension", "three-axes", "scalar"])
def test_input_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestCoordinator:
    def test_single_site_matches_offline_bit_for_bit(self):
        data = geometry.random_grid_dataset(150, 4, 128, seed=0)
        merged, ledger = run_coordinator(SitePartition([data]), 3, 2, 0.2,
                                         seed=5, method="identity")
        offline = encode_offline(data, 3, 2, 0.2, seed=5)
        assert merged.sketches[0].to_bytes() == offline.to_bytes()
        assert ledger.per_site_bits == [offline.ledger.total_bits]
        q = CenterSet(np.full((3, 4), 64.0))
        assert merged.estimate_cost(q) == offline.estimate_cost(q)

    def test_four_sites_identity_within_eps(self):
        data = geometry.random_grid_dataset(800, 6, 256, seed=1)
        partition = split_round_robin(data, 4)
        merged, ledger = run_coordinator(partition, 3, 2, 0.15, seed=2,
                                         method="identity")
        assert ledger.total_bits == sum(ledger.per_site_bits)
        assert ledger.as_dict()["rounds"] == 1
        for q in geometry.random_center_sets(data, 3, 100, seed=3):
            exact = geometry.cost(data, q, 2)
            assert abs(merged.estimate_cost(q) - exact) <= 0.15 * exact

    def test_ledger_equals_per_site_sketch_sizes(self):
        data = geometry.random_grid_dataset(400, 5, 64, seed=4)
        partition = split_round_robin(data, 3)
        merged, ledger = run_coordinator(partition, 2, 1, 0.2, seed=6,
                                         method="sensitivity")
        assert ledger.per_site_bits == [s.ledger.total_bits
                                        for s in merged.sketches]

    def test_deterministic_transmission(self):
        data = geometry.random_grid_dataset(300, 4, 64, seed=7)
        partition = split_round_robin(data, 2)
        a, _ = run_coordinator(partition, 2, 2, 0.2, seed=8, method="sensitivity")
        b, _ = run_coordinator(partition, 2, 2, 0.2, seed=8, method="sensitivity")
        for s, t in zip(a.sketches, b.sketches):
            assert s.to_bytes() == t.to_bytes()

    def test_shard_config_mismatch_rejected(self):
        a = geometry.random_grid_dataset(10, 3, 32, seed=9)
        b = geometry.random_grid_dataset(10, 3, 64, seed=10)
        with pytest.raises(DimensionMismatch):
            SitePartition([a, b])


class TestMerge:
    def make_sketches(self):
        data = geometry.random_grid_dataset(200, 4, 128, seed=11)
        partition = split_round_robin(data, 4)
        return data, [encode_offline(s, 2, 2, 0.2, seed=12 + i)
                      for i, s in enumerate(partition.shards)]

    def test_merge_of_one_is_identical(self):
        _, sketches = self.make_sketches()
        merged = MergedSketch(sketches[:1])
        q = CenterSet(np.full((2, 4), 10.0))
        assert merged.estimate_cost(q) == sketches[0].estimate_cost(q)

    def test_additivity_is_exact(self):
        _, sketches = self.make_sketches()
        q = CenterSet(np.full((2, 4), 99.0))
        merged = MergedSketch(sketches[:2])
        assert merged.estimate_cost(q) \
            == sketches[0].estimate_cost(q) + sketches[1].estimate_cost(q)

    def test_partition_merge_matches_union_within_eps(self):
        data, sketches = self.make_sketches()
        merged = MergedSketch(sketches)
        for q in geometry.random_center_sets(data, 2, 40, seed=13):
            exact = geometry.cost(data, q, 2)
            assert abs(merged.estimate_cost(q) - exact) <= 0.2 * exact

    def test_effective_epsilon_is_max(self):
        data = geometry.random_grid_dataset(60, 3, 32, seed=14)
        a = encode_offline(data, 2, 2, 0.1, seed=15)
        b = encode_offline(data, 2, 2, 0.3, seed=16)
        assert MergedSketch([a, b]).epsilon == pytest.approx(0.3, rel=1e-6)

    def test_header_mismatch_rejected(self):
        data = geometry.random_grid_dataset(60, 3, 32, seed=17)
        other = geometry.random_grid_dataset(60, 3, 64, seed=18)
        with pytest.raises(DimensionMismatch):
            MergedSketch([encode_offline(data, 2, 2, 0.2, seed=19),
                            encode_offline(other, 2, 2, 0.2, seed=20)])
        with pytest.raises(DimensionMismatch):
            MergedSketch([encode_offline(data, 2, 2, 0.2, seed=19),
                            encode_offline(data, 2, 1, 0.2, seed=19)])


class TestStream:
    def test_short_stream_is_single_offline_encode(self):
        data = geometry.random_grid_dataset(120, 4, 64, seed=21)
        result = run_stream(data, 3, 2, 0.2, block_size=500, seed=22)
        assert result.blocks == 1 and result.reductions == 0
        offline = encode_offline(data, 3, 2, 0.1, seed=22)  # eps/2, block seed 0
        assert result.sketches[0].to_bytes() == offline.to_bytes()

    def test_blocked_stream_stays_within_three_eps(self):
        data = geometry.random_grid_dataset(2000, 6, 256, seed=23)
        result = run_stream(data, 3, 2, 0.15, block_size=250, seed=24,
                            level0_cap=4)
        assert result.reductions >= 1
        for q in geometry.random_center_sets(data, 3, 50, seed=25):
            exact = geometry.cost(data, q, 2)
            assert abs(result.merged.estimate_cost(q) - exact) <= 3 * 0.15 * exact

    def test_buffer_never_reaches_block_size(self):
        state = StreamState(delta=64, d=3, k=2, z=Fraction(2), eps=0.2,
                            block_size=10, seed=26)
        data = geometry.random_grid_dataset(95, 3, 64, seed=27)
        for row in data.points:
            state.push(row)
            assert sum(map(len, state.buffer)) < 10
        live = state.finish()
        assert state.blocks_flushed == 10  # 9 full + 1 partial flush
        assert sum(s.coreset_size for s in live) > 0

    def test_resident_bits_accounting(self):
        data = geometry.random_grid_dataset(600, 4, 128, seed=28)
        result = run_stream(data, 2, 2, 0.2, block_size=100, seed=29,
                            level0_cap=3)
        assert result.max_resident_bits > 0
        assert result.max_resident_bits <= 16 * result.formula_bits_at_max

    @pytest.mark.parametrize("point", [[1.9, 3.2], [np.nan, 3.0], [np.inf, 3.0]])
    def test_push_rejects_non_integral_points(self, point):
        state = StreamState(delta=8, d=2, k=1, z=Fraction(2), eps=0.2,
                            block_size=4, seed=0)
        with pytest.raises(InvalidInput, match="grid coordinates must be integers"):
            state.push(point)
        assert state.buffer == [] and state.points_seen == 0

    def test_push_accepts_integral_floats(self):
        state = StreamState(delta=8, d=2, k=1, z=Fraction(2), eps=0.2,
                            block_size=4, seed=0)
        state.push([2.0, 3.0])
        rows = np.concatenate(state.buffer)
        assert rows.dtype == np.int64 and rows.tolist() == [[2, 3]]

    def test_push_copies_the_callers_rows(self):
        state = StreamState(delta=8, d=2, k=1, z=Fraction(2), eps=0.2,
                            block_size=8, seed=0)
        row, block = np.empty(2, dtype=np.int64), np.full((2, 2), 4, dtype=np.int64)
        for v in (1, 2, 3):
            row[:] = v
            state.push(row)
        state.push(block)
        row[:], block[:] = 7, 7
        assert np.concatenate(state.buffer).tolist() == [[1, 1], [2, 2], [3, 3], [4, 4], [4, 4]]

    def test_out_of_range_point_rejected_at_its_push(self):
        state = StreamState(delta=8, d=2, k=1, z=Fraction(2), eps=0.2,
                            block_size=3, seed=0)
        state.push([1, 2])
        with pytest.raises(InvalidInput, match=r"^grid coordinates must lie in \[1, 8\]; "
                                               r"found range \[1, 99\]$"):
            state.push([1, 99])
        assert state.points_seen == 1
        assert np.concatenate(state.buffer).tolist() == [[1, 2]]
        valid = [[1, 2], [3, 4], [5, 6], [7, 8]]
        for p in valid[1:]:
            state.push(p)
        live = state.finish()
        assert state.points_seen == 4 and state.blocks_flushed == 2
        alone = run_stream(GridDataset(np.array(valid), 8), 1, 2, 0.2, block_size=3, seed=0)
        assert [s.to_bytes() for s in live] == [s.to_bytes() for s in alone.sketches]

    @pytest.mark.parametrize("bad, error, match", [
        ([9, 1], InvalidInput, r"^grid coordinates must lie in \[1, 8\]; found range \[1, 9\]$"),
        ([0, 1], InvalidInput, r"^grid coordinates must lie in \[1, 8\]; found range \[0, 4\]$"),
        ([1.5, 1], InvalidInput, r"^grid coordinates must be integers that fit int64$"),
    ], ids=["beyond-delta", "below-one", "fractional"])
    def test_block_with_one_bad_row_rejected_whole(self, bad, error, match):
        state = StreamState(delta=8, d=2, k=1, z=Fraction(2), eps=0.2,
                            block_size=3, seed=0)
        with pytest.raises(error, match=match):
            state.push([[1, 2], [3, 4], [2, 2], bad, [4, 4]])
        assert state.buffer == [] and state.points_seen == 0
        assert state.blocks_flushed == 0 and state.max_resident_bits == 0

    # rows pushed as one block, point by point, in chunks of 7 and in chunks
    # of 2.5 blocks: 430 rows in blocks of 40 end in a partial block, and a
    # cap of 3 reduces
    @pytest.mark.parametrize("method", ["identity", "sensitivity"])
    def test_push_by_point_or_block_gives_the_same_stream(self, method):
        rows = geometry.random_grid_dataset(430, 3, 64, seed=35).points

        def stream(chunk):
            state = StreamState(delta=64, d=3, k=2, z=Fraction(2), eps=0.2, block_size=40,
                                seed=36, method=method, level0_cap=3)
            for lo in range(0, len(rows), chunk or 1):
                state.push(rows[lo] if chunk is None else rows[lo:lo + chunk])
            live = state.finish()
            return ([s.to_bytes() for s in live], state.max_resident_bits,
                    state.formula_bits_at_max, state.blocks_flushed, state.reductions,
                    state.points_seen)

        whole = stream(len(rows))
        assert whole[3:] == (11, 3, 430)
        for chunk in (None, 7, 100):
            assert stream(chunk) == whole

    # the blocks' header limits, at eps/2: a halved eps that the header
    # cannot hold is named as given (2^-126 itself fits, its half does
    # not); at eps = 1e-18, eps/2 takes a 64-bit coordinate fraction
    @pytest.mark.parametrize("eps, match", [
        (1e-300, r"^epsilon 1e-300 does not survive header quantization once halved"),
        (2.0 ** -126, r"^epsilon 1.1754943508222875e-38 does not survive header "
                      "quantization once halved"),
        (1e-18, r"^epsilon 5e-19 with z = 2 and delta = 8: fraction widths \(63, 64\)"),
    ], ids=["below-the-header", "half-below-the-header", "too-wide"])
    def test_block_header_limits_checked_before_any_point(self, eps, match):
        with pytest.raises(InvalidInput, match=match):
            StreamState(delta=8, d=2, k=1, z=Fraction(2), eps=eps, block_size=4, seed=0)

    def test_block_size_must_exceed_k(self):
        with pytest.raises(InvalidInput):
            StreamState(delta=8, d=2, k=4, z=Fraction(2), eps=0.2,
                        block_size=4, seed=0)

    def test_level0_cap_must_be_at_least_two(self):
        with pytest.raises(InvalidInput):
            StreamState(delta=8, d=2, k=1, z=Fraction(2), eps=0.2,
                        block_size=4, seed=0, level0_cap=1)

    def test_constructor_takes_the_parameters_only(self):
        # the running state starts empty and is not a constructor value
        assert [f.name for f in dataclasses.fields(StreamState) if f.init] == [
            "delta", "d", "k", "z", "eps", "block_size", "seed", "method", "level0_cap"]
        with pytest.raises(TypeError, match="points_seen"):
            StreamState(delta=8, d=2, k=1, z=2, eps=0.2, block_size=4, seed=0,
                        points_seen=5)

    def test_deterministic(self):
        data = geometry.random_grid_dataset(500, 3, 64, seed=30)
        a = run_stream(data, 2, 2, 0.2, block_size=100, seed=31, level0_cap=3)
        b = run_stream(data, 2, 2, 0.2, block_size=100, seed=31, level0_cap=3)
        assert [s.to_bytes() for s in a.sketches] \
            == [s.to_bytes() for s in b.sketches]
        assert a.max_resident_bits == b.max_resident_bits

    def test_sensitivity_reduction_path(self):
        data = geometry.random_grid_dataset(1500, 5, 128, seed=32)
        result = run_stream(data, 3, 2, 0.2, block_size=150, seed=33,
                            method="sensitivity", level0_cap=4)
        assert result.reductions >= 1
        # the reduced level-1 sketch actually shrank the union
        level1 = result.sketches[0]
        assert level1.coreset_size < 1500
        for q in geometry.random_center_sets(data, 3, 40, seed=34):
            exact = geometry.cost(data, q, 2)
            assert abs(result.merged.estimate_cost(q) - exact) <= 3 * 0.2 * exact
        again = run_stream(data, 3, 2, 0.2, block_size=150, seed=33,
                           method="sensitivity", level0_cap=4)
        assert [s.to_bytes() for s in again.sketches] \
            == [s.to_bytes() for s in result.sketches]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stream_subsample_names_overflowing_z():
    # a level-0 reduction resamples a weighted union standing for more points
    data = geometry.random_grid_dataset(30, 3, 64, seed=2)
    centers = coreset.approx_centers(data, 1, 3000, seed=0)
    with pytest.raises(InvalidInput, match="z = 3000: the sum of dist"):
        coreset.build_coreset(data, 1, 3000, 0.1, method="sensitivity", seed=0,
                              centers=centers, weights=np.full(30, 2.5),
                              source_n=75)
