import math
import warnings

import numpy as np
import pytest

from hard_instances import (CapacityError, loglog_family_instance,
                            loglog_witness_centers, taylor_bounds_margins,
                            tile_instances)
from kzsketch import coloring, geometry
from kzsketch.anglelab import (COS_STAR, InnerProductMatrix,
                               orthogonal_complement_basis,
                               perturbed_orthogonal_basis, sample_haar_basis)
from kzsketch.coloring import (adversarial_center, center_for_power,
                               cost_gap, find_partial_coloring, odd_grid_side,
                               paired_witness_centers, power_gap_bound,
                               round_and_scale, scale_center,
                               separation_witness)
from kzsketch.errors import InvalidInput
from kzsketch.geometry import CenterSet, GridDataset, RealDataset


def taylor_bounds_check(x: float, z: float) -> bool:
    """Both sides of the Taylor sandwich for one (x, z); z = 2 is the
    equality edge of either branch."""
    lower, upper = taylor_bounds_margins(x, z)
    return bool((lower >= -1e-12).all() and (upper >= -1e-12).all())


def orthogonal_pair(d, n, seed):
    p = sample_haar_basis(d, n, seed)
    return p, orthogonal_complement_basis(p, n)


class TestFindPartialColoring:
    def test_zero_matrix_full_coloring(self):
        col = find_partial_coloring(np.zeros((100, 100)), max_restarts=50, seed=0)
        assert col.guarantee_met
        assert col.zero_count == 0
        assert col.discrepancy <= 1e-12
        assert np.isin(col.zeta, (-1, 1)).all()

    def test_identity_matrix_cannot_be_guaranteed(self):
        col = find_partial_coloring(np.eye(64), max_restarts=300, seed=1)
        assert not col.guarantee_met
        # any nonzero coloring has a unit entry in U zeta
        if col.zero_count < 64:
            assert col.discrepancy >= 1.0 - 1e-12

    def test_near_orthogonal_pair_guaranteed(self):
        p = sample_haar_basis(400, 100, seed=2)
        q = perturbed_orthogonal_basis(p, COS_STAR / 2, seed=3)
        u = InnerProductMatrix.from_bases(p, q)
        col = find_partial_coloring(u, max_restarts=10_000, seed=4)
        assert col.guarantee_met
        assert col.restarts_used <= 10_000
        # verified by direct multiplication
        assert np.abs(u.u @ col.zeta.astype(float)).max() <= 0.5

    def test_reported_stats_match_recomputation(self):
        rng = np.random.default_rng(5)
        u = rng.normal(scale=0.05, size=(40, 40))
        col = find_partial_coloring(u, max_restarts=200, seed=6)
        assert col.discrepancy == pytest.approx(
            float(np.abs(u @ col.zeta.astype(float)).max()), abs=1e-12)
        assert col.zero_count == int((col.zeta == 0).sum())

    def test_respects_restart_budget(self):
        col = find_partial_coloring(np.eye(10), max_restarts=37, seed=7)
        assert col.restarts_used <= 37

    @staticmethod
    def spy(monkeypatch, name: str) -> list:
        """Record each call of ``coloring.<name>`` as (arguments, result)."""
        real, calls = getattr(coloring, name), []

        def record(*args):
            calls.append((args, real(*args)))
            return calls[-1][1]
        monkeypatch.setattr(coloring, name, record)
        return calls

    def test_flips_lower_the_best_restart(self, monkeypatch):
        # all 300 random full colorings of this U stay above 1/2; single flips
        # from the best of them reach it
        n = 10
        u = np.random.default_rng(6).normal(scale=0.8 / math.sqrt(n), size=(n, n))
        calls = self.spy(monkeypatch, "_greedy_flips")
        col = find_partial_coloring(u, max_restarts=300, seed=0)
        [((_, start), flipped)] = calls

        def disc(zeta):
            return float(np.abs(u @ zeta.astype(float)).max())
        assert col.restarts_used == 300
        assert disc(start) > 0.5 >= disc(flipped) == col.discrepancy
        assert np.array_equal(col.zeta, flipped) and col.guarantee_met
        assert col.zero_count == 0 and np.isin(col.zeta, (-1, 1)).all()
        # the descent stops where no single flip lowers the discrepancy
        for j in range(n):
            other = flipped.copy()
            other[j] = -other[j]
            assert disc(other) >= col.discrepancy

    def test_returns_a_pairing_candidate(self, monkeypatch):
        # no full coloring of this U meets 1/2, neither at the 300 restarts nor
        # after the flips; a halved same-bucket pair, one zero of 4, does
        n = 4
        u = np.random.default_rng(0).normal(scale=0.65 / math.sqrt(n), size=(n, n))
        flips = self.spy(monkeypatch, "_greedy_flips")
        pairs = self.spy(monkeypatch, "_pairing_candidates")
        col = find_partial_coloring(u, max_restarts=300, seed=0)
        [(_, flipped)] = flips
        [(_, candidates)] = pairs
        assert np.abs(u @ flipped.astype(float)).max() > 0.5
        assert any(np.array_equal(col.zeta, cand) for cand in candidates)
        assert (col.restarts_used, col.zero_count) == (300, 1) and col.guarantee_met
        assert col.discrepancy == float(np.abs(u @ col.zeta.astype(float)).max()) <= 0.5

    def test_pairing_candidates_are_half_bounded(self):
        # every halved same-bucket pair satisfies ||U zeta||_inf <= 1/2 by
        # construction; five heavy rows limit the rounding classes to 2^5,
        # so 600 samples must collide
        from kzsketch.coloring import _pairing_candidates
        rng = np.random.default_rng(31)
        n = 64
        u = np.zeros((n, n))
        u[:5, :5] = 0.6 * np.eye(5)
        samples = (rng.integers(0, 2, size=(n, 600)) * 2 - 1).astype(float)
        cands = _pairing_candidates(u, samples)
        assert cands, "sampling produced no shared rounding classes"
        for zeta in cands:
            assert np.isin(zeta, (-1, 0, 1)).all()
            assert np.abs(u @ zeta.astype(float)).max() <= 0.5 + 1e-12


class TestAdversarialCenter:
    def test_unit_norm_always(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            p, q = orthogonal_pair(64, 20, seed)
            zeta = rng.choice([-1, 0, 1], size=20, p=[0.45, 0.1, 0.45])
            if (zeta == 0).all():
                zeta[0] = 1
            c = adversarial_center(q, p, zeta)
            assert abs(np.linalg.norm(c) - 1.0) <= 1e-10

    def test_orthogonal_all_ones_gap(self):
        n = 25
        p, q = orthogonal_pair(80, n, seed=9)
        c = adversarial_center(q, p, np.ones(n))
        gap = cost_gap(p, q, c, 2)
        assert gap == pytest.approx(2 * math.sqrt(n), abs=1e-6)

    def test_guaranteed_coloring_gives_half_sqrt_n(self):
        p = sample_haar_basis(300, 100, seed=10)
        q = perturbed_orthogonal_basis(p, COS_STAR / 2, seed=11)
        col = find_partial_coloring(InnerProductMatrix.from_bases(p, q),
                                    max_restarts=10_000, seed=12)
        assert col.guarantee_met
        c = adversarial_center(q, p, col.zeta)
        assert cost_gap(p, q, c, 2) >= 0.5 * math.sqrt(100) - 1e-6

    def test_needs_room_for_completion(self):
        p, q = orthogonal_pair(40, 20, seed=13)
        with pytest.raises(InvalidInput):
            adversarial_center(q, p, np.ones(20))


class TestCostGap:
    def test_same_subspace_zero_gap(self):
        p = sample_haar_basis(32, 8, seed=14)
        c = adversarial_center(p, p, np.ones(8))
        assert cost_gap(p, p, c, 2) == pytest.approx(0.0, abs=1e-9)

    def test_matches_projection_identity(self):
        p, q = orthogonal_pair(60, 15, seed=15)
        rng = np.random.default_rng(16)
        c = rng.normal(size=60)
        c /= np.linalg.norm(c)
        gap = cost_gap(p, q, c, 2)
        want = 2 * (np.abs(q.matrix.T @ c).sum() - np.abs(p.matrix.T @ c).sum())
        assert gap == pytest.approx(want, abs=1e-8)

    def test_rejects_non_unit_center(self):
        p, q = orthogonal_pair(30, 5, seed=17)
        with pytest.raises(InvalidInput):
            cost_gap(p, q, np.full(30, 0.5), 2)


class TestCenterForPower:
    def test_z2_matches_bound(self):
        n = 100
        p, q = orthogonal_pair(256, n, seed=18)
        c_hat = adversarial_center(q, p, np.ones(n))
        c = center_for_power(q, p, c_hat)
        assert abs(np.linalg.norm(c) - 1.0) <= 1e-10
        gap = -cost_gap(q, p, c, 2)
        lead, add = power_gap_bound(2, n)
        assert add == 0.0
        assert gap >= lead - add - 1e-9

    @pytest.mark.parametrize("z", [1, 1.5, 3])
    def test_general_z_meets_branch_bound(self, z):
        n = 100
        p, q = orthogonal_pair(256, n, seed=19)
        c_hat = adversarial_center(q, p, np.ones(n))
        c = center_for_power(q, p, c_hat)
        gap = -cost_gap(q, p, c, z)
        lead, add = power_gap_bound(z, n)
        assert gap >= lead - add - 1e-9

    def test_precondition_enforced(self):
        p, q = orthogonal_pair(256, 100, seed=20)
        bad = adversarial_center(p, q, np.ones(100))  # aligned with P, not Q
        with pytest.raises(InvalidInput):
            center_for_power(q, p, bad)


class TestTaylorBounds:
    def test_x_zero_is_equality(self):
        assert taylor_bounds_check(0.0, 1.3)
        lower, upper = taylor_bounds_margins(0.0, 1.3)
        assert lower == pytest.approx(0.0, abs=1e-15)
        assert upper == pytest.approx(0.0, abs=1e-15)

    def test_z_two_collapses_to_equality(self):
        for x in np.linspace(0, 0.5, 23):
            assert taylor_bounds_check(float(x), 2.0)

    def test_hand_worked_z1(self):
        # z=1, x=0.5: 0.625 <= sqrt(0.5) ~= 0.7071 <= 0.75
        lower, upper = taylor_bounds_margins(0.5, 1.0)
        assert math.sqrt(0.5) == pytest.approx(0.70710678, abs=1e-8)
        assert float(lower) == pytest.approx(math.sqrt(0.5) - 0.625, abs=1e-12)
        assert float(upper) == pytest.approx(0.75 - math.sqrt(0.5), abs=1e-12)
        assert taylor_bounds_check(0.5, 1.0)

    def test_domain_errors(self):
        with pytest.raises(InvalidInput):
            taylor_bounds_check(0.6, 1.0)
        with pytest.raises(InvalidInput):
            taylor_bounds_check(-0.1, 1.0)
        with pytest.raises(InvalidInput):
            taylor_bounds_check(0.1, 0.0)


class TestRoundAndScale:
    def test_origin_maps_to_center(self):
        res = round_and_scale(RealDataset(np.zeros((1, 4))), 21)
        assert (res.dataset.points == 11).all()

    def test_boundary_point_clamps(self):
        p = np.zeros((1, 3))
        p[0, 0] = 1.0
        res = round_and_scale(RealDataset(p), 21)
        assert res.dataset.points[0, 0] == 21
        assert res.dataset.points[0, 1] == 11

    def test_perturbation_budget(self):
        rng = np.random.default_rng(21)
        d, eps = 16, 0.2
        delta = odd_grid_side(d, eps)
        pts = rng.normal(size=(40, d))
        pts /= np.maximum(1.0, np.linalg.norm(pts, axis=1))[:, None]
        res = round_and_scale(RealDataset(pts), delta)
        c = rng.normal(size=d)
        c /= np.linalg.norm(c)
        budget = 2 * delta * math.sqrt(d) + d
        assert budget <= delta * delta * eps / 4
        for center in (scale_center(c, delta), scale_center(-c, delta)):
            hat = ((res.hat_points - center) ** 2).sum(axis=1)
            tilde = ((res.dataset.points - center) ** 2).sum(axis=1)
            assert np.abs(hat - tilde).max() <= budget

    def test_displacement_within_two_sqrt_d(self):
        rng = np.random.default_rng(22)
        pts = rng.normal(size=(30, 9))
        pts /= np.maximum(1.0, np.linalg.norm(pts, axis=1))[:, None]
        res = round_and_scale(RealDataset(pts), 101)
        assert res.max_displacement <= 2 * math.sqrt(9)
        # each step alone stays within sqrt(d): upward rounding, then clamp
        unclamped = np.ceil((101 / 2.0) * pts) + 51
        round_step = np.linalg.norm(res.hat_points - unclamped, axis=1)
        clamp_step = np.linalg.norm(unclamped - res.dataset.points, axis=1)
        assert round_step.max() <= math.sqrt(9)
        assert clamp_step.max() <= math.sqrt(9)

    def test_rejects_even_delta_and_big_points(self):
        with pytest.raises(InvalidInput):
            round_and_scale(RealDataset(np.zeros((1, 2))), 20)
        with pytest.raises(InvalidInput):
            round_and_scale(RealDataset(np.full((1, 4), 0.9)), 21)

    def test_odd_grid_side_formulas(self):
        assert odd_grid_side(256, 0.05, 2) == 3201
        d21 = odd_grid_side(64, 0.1, 1)
        assert d21 % 2 == 1
        assert d21 >= 3072 * math.sqrt(2) * 8 / 0.1


def small_rounded_pair(d, n, eps, seed):
    p, q = orthogonal_pair(d, n, seed)
    delta = odd_grid_side(d, eps)
    rp = round_and_scale(RealDataset(p.matrix.T), delta)
    rq = round_and_scale(RealDataset(q.matrix.T), delta)
    return p, q, rp, rq, delta


class TestSeparationWitness:
    def test_identical_datasets_never_separated(self):
        data = geometry.random_grid_dataset(20, 3, 50, seed=23)
        cen = CenterSet(np.full((2, 3), 25.0))
        wit = separation_witness(data, data, cen, 2, 0.1)
        assert not wit.separated

    def test_zero_cost_side_always_separates(self):
        pts_p = np.array([[1, 1], [5, 5]])
        pts_q = np.array([[1, 1], [9, 9]])
        cen = CenterSet(pts_p.astype(float))
        wit = separation_witness(GridDataset(pts_p, 10), GridDataset(pts_q, 10),
                                 cen, 2, 0.3)
        assert wit.cost_p == 0.0 and wit.cost_q > 0.0
        assert wit.separated

    def test_band_boundary_counts_as_separated(self):
        # cost ratio exactly (1 - 3 eps) with eps = 1/6
        pts_p = np.array([[1, 1], [2, 1]])
        pts_q = np.array([[1, 1], [3, 1]])
        cen = CenterSet(np.array([[1.0, 1.0]]))
        wit = separation_witness(GridDataset(pts_p, 4), GridDataset(pts_q, 4),
                                 cen, 2, 1 / 6)
        assert wit.cost_p == 1.0 and wit.cost_q == 4.0
        assert wit.separated  # 1.0 = (1 - 1/2) * 4 / 2 ... boundary 2.0 > 1.0
        wit2 = separation_witness(GridDataset(pts_q, 4), GridDataset(pts_p, 4),
                                  CenterSet(np.array([[1.0, 1.0], [3.0, 1.0]])),
                                  2, 1 / 6)
        assert wit2.cost_p == 0.0 and wit2.separated

    @pytest.mark.parametrize("swap", [False, True])
    def test_overflowing_cost_is_an_error_naming_z(self, swap):
        # 999^300 passes float64: an inf cost on either side would make
        # (1 - 3 eps) inf < cost false and so read as separated
        near = GridDataset(np.array([[1], [2]]), 1000)
        far = GridDataset(np.array([[1], [1000]]), 1000)
        p, q = (far, near) if swap else (near, far)
        cen = CenterSet(np.array([[1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="z = 300: a witness cost overflows"):
                separation_witness(p, q, cen, 300, 0.1)
            assert separation_witness(p, q, cen, 100, 0.1).separated

    def test_end_to_end_orthogonal_pipeline(self):
        eps = 0.05
        p, q, rp, rq, delta = small_rounded_pair(256, 100, eps, seed=24)
        zeta = np.ones(100, dtype=np.int8)
        centers = paired_witness_centers(q, zeta)
        scaled = CenterSet(np.stack([scale_center(c, delta)
                                     for c in centers.centers]))
        wit = separation_witness(rp.dataset, rq.dataset, scaled, 2, eps)
        assert wit.separated


class TestPairedWitnessCenters:
    def test_unit_norms_and_projections(self):
        p, q = orthogonal_pair(64, 16, seed=25)
        cen = paired_witness_centers(q, np.ones(16))
        assert np.linalg.norm(cen.centers, axis=1) == pytest.approx(1.0, abs=1e-12)
        proj = q.matrix.T @ cen.centers.T
        own = np.concatenate([proj[:8, 0], proj[8:, 1]])
        assert own == pytest.approx(1 / math.sqrt(8), abs=1e-12)

    def test_needs_support(self):
        q = sample_haar_basis(8, 4, seed=26)
        with pytest.raises(InvalidInput):
            paired_witness_centers(q, np.array([0, 0, 0, 1]))


class TestTiling:
    def make_copy_pair(self, d, n, eps, seed):
        p, q = orthogonal_pair(d, n, seed)
        delta = odd_grid_side(d, eps)
        rp = round_and_scale(RealDataset(p.matrix.T), delta)
        rq = round_and_scale(RealDataset(q.matrix.T), delta)
        zeta = np.ones(n)
        c = adversarial_center(q, p, zeta)
        pair_centers = (scale_center(c, delta), scale_center(-c, delta))
        return (rp.dataset, rq.dataset), pair_centers, delta

    def test_single_copy_layout(self):
        (pair, centers, dt) = self.make_copy_pair(32, 8, 0.2, seed=27)
        tiled = tile_instances([pair], 2, dt)
        # ceil(k^(1/d)) = ceil(2^(1/32)) = 2 cells per axis
        assert tiled.delta == 4 * 2 * dt
        assert tiled.num_copies == 1
        assert tiled.offsets.shape == (1, 32)

    def test_two_copies_no_cross_assignment_and_additive_gap(self):
        d, n, eps = 32, 8, 0.2
        pair0, cen0, dt = self.make_copy_pair(d, n, eps, seed=28)
        pair1, cen1, _ = self.make_copy_pair(d, n, eps, seed=29)
        tiled = tile_instances([pair0, pair1], 4, dt)
        centers = tiled.center_set([cen0, cen1])
        dataset_p = tiled.assemble([0, 0])
        dataset_q = tiled.assemble([1, 1])
        # exhaustive cross-copy check
        for data in (dataset_p, dataset_q):
            assign = geometry.nearest_assignment(data, centers)
            copy_of_point = np.repeat(np.arange(2), n)
            copy_of_center = assign // 2
            assert (copy_of_center == copy_of_point).all()
        # gap additivity
        total_gap = (geometry.cost(dataset_p, centers, 2)
                     - geometry.cost(dataset_q, centers, 2))
        per_copy = 0.0
        for (dp, dq), cen in [(pair0, cen0), (pair1, cen1)]:
            local = CenterSet(np.stack(cen))
            per_copy += (geometry.cost(dp, local, 2)
                         - geometry.cost(dq, local, 2))
        assert total_gap == pytest.approx(per_copy, abs=1e-6)

    def test_capacity_validation(self):
        pts = GridDataset(np.array([[1, 1]]), 2)
        with pytest.raises(InvalidInput):
            tile_instances([(pts, pts)], 3, 2)
        with pytest.raises(InvalidInput):
            tile_instances([(pts, pts)], 4, 2)  # needs 2 pairs


class TestLogLogFamily:
    anchors = np.array([[10, 10, 10], [40, 10, 10]])

    def test_point_count_is_n(self):
        data = loglog_family_instance(4, 64, self.anchors, [2, 3], delta=64)
        assert data.n == 64

    def test_equal_choices_identical_datasets(self):
        a = loglog_family_instance(4, 64, self.anchors, [1, 4], delta=64)
        b = loglog_family_instance(4, 64, self.anchors, [1, 4], delta=64)
        assert np.array_equal(a.points, b.points)

    def test_witness_ratio_and_separation(self):
        i, j = 2, 3
        p = loglog_family_instance(4, 64, self.anchors, [i, 1], delta=64)
        q = loglog_family_instance(4, 64, self.anchors, [j, 1], delta=64)
        centers = loglog_witness_centers(self.anchors, moved_anchor=0)
        wit = separation_witness(p, q, centers, 2, 1 / 6)
        assert wit.cost_p == 2 ** i and wit.cost_q == 2 ** j
        assert wit.cost_p <= 0.5 * wit.cost_q
        assert wit.separated

    def test_spacing_enforced(self):
        close = np.array([[10, 10, 10], [15, 10, 10]])
        with pytest.raises(CapacityError):
            loglog_family_instance(4, 64, close, [1, 1], delta=64)

    def test_choice_range_enforced(self):
        with pytest.raises(InvalidInput):
            loglog_family_instance(4, 64, self.anchors, [5, 1], delta=64)

    def test_random_choices_deterministic_per_seed(self):
        a = loglog_family_instance(4, 64, self.anchors, None, seed=9, delta=64)
        b = loglog_family_instance(4, 64, self.anchors, None, seed=9, delta=64)
        assert np.array_equal(a.points, b.points)
        assert a.n == 64
