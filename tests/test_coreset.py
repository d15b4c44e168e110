import itertools

import numpy as np
import pytest

from kzsketch import geometry
from kzsketch.coreset import (WeightedCoreset, approx_centers, build_coreset,
                              weight_sum_check)
from kzsketch.errors import InvalidInput
from kzsketch.geometry import CenterSet, GridDataset, cost


def exhaustive_opt(points, k, z):
    """Minimum cost over all k-subsets of the dataset (center candidates
    restricted to data points, matching what the seeding can reach)."""
    best = np.inf
    pts = np.asarray(points, dtype=float)
    for combo in itertools.combinations(range(len(pts)), k):
        best = min(best, cost(geometry.RealDataset(pts),
                              CenterSet(pts[list(combo)]), z))
    return best


class TestApproxCenters:
    def test_k_distinct_points_recovered_exactly(self):
        pts = np.array([[1, 1], [50, 50], [100, 1]])
        data = GridDataset(pts, 100)
        ac = approx_centers(data, 3, 2, seed=0)
        assert sorted(map(tuple, ac.centers)) == sorted(map(tuple, pts))
        assert cost(data, ac.as_center_set(), 2) == 0.0
        assert not ac.has_repeats

    def test_single_point_repeats(self):
        data = GridDataset(np.array([[7, 7]]), 10)
        ac = approx_centers(data, 3, 2, seed=1)
        assert ac.centers.shape == (3, 2)
        assert (ac.centers == 7).all()
        assert ac.has_repeats
        assert cost(data, ac.as_center_set(), 2) == 0.0

    def test_centers_are_dataset_members(self):
        data = geometry.random_grid_dataset(200, 4, 64, seed=3)
        ac = approx_centers(data, 5, 1, seed=4)
        rows = {tuple(p) for p in data.points}
        assert all(tuple(c) in rows for c in ac.centers)

    def test_constant_factor_on_small_instance(self):
        # exhaustive search over all 3-subsets of a 12-point sub-instance
        data = geometry.random_grid_dataset(200, 4, 64, seed=5)
        sub = GridDataset(data.points[:12], 64)
        opt = exhaustive_opt(sub.points, 3, 2)
        ac = approx_centers(sub, 3, 2, seed=6)
        assert cost(sub, ac.as_center_set(), 2) <= 25 * opt

    def test_deterministic_per_seed(self):
        data = geometry.random_grid_dataset(100, 3, 32, seed=7)
        a = approx_centers(data, 4, 2, seed=8)
        b = approx_centers(data, 4, 2, seed=8)
        assert np.array_equal(a.centers, b.centers)
        c = approx_centers(data, 4, 2, seed=9)
        assert not np.array_equal(a.indices, c.indices)


class TestBuildCoreset:
    def test_identity_is_exact(self):
        data = geometry.random_grid_dataset(50, 3, 16, seed=10)
        cs = build_coreset(data, 2, 2, 0.3, method="identity")
        assert (cs.weights == 1.0).all()
        assert cs.weights.sum() == data.n
        cen = CenterSet(np.full((2, 3), 8.0))
        assert cs.cost(cen, 2) == cost(data, cen, 2)

    def test_sensitivity_weight_sums(self):
        data = geometry.random_grid_dataset(500, 8, 256, seed=11)
        for seed in range(20):
            cs = build_coreset(data, 4, 2, 0.2, method="sensitivity", seed=seed)
            assert weight_sum_check(cs), f"seed {seed}: sum {cs.weights.sum()}"

    def test_sensitivity_cost_accuracy(self):
        data = geometry.random_grid_dataset(2000, 16, 1024, seed=12)
        cs = build_coreset(data, 4, 2, 0.2, method="sensitivity", seed=13)
        queries = geometry.random_center_sets(data, 4, 100, seed=14)
        for q in queries:
            exact = cost(data, q, 2)
            est = cs.cost(q, 2)
            assert abs(est - exact) <= 0.2 * exact

    def test_sensitivity_unbiased(self):
        data = geometry.random_grid_dataset(400, 6, 128, seed=15)
        query = geometry.random_center_sets(data, 3, 1, seed=16)[0]
        exact = cost(data, query, 2)
        estimates = np.array([
            build_coreset(data, 3, 2, 0.3, method="sensitivity", seed=s).cost(query, 2)
            for s in range(200, 400)])
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - exact) <= 2 * se

    def test_bad_method_and_eps(self):
        data = geometry.random_grid_dataset(10, 2, 8, seed=17)
        with pytest.raises(InvalidInput):
            build_coreset(data, 2, 2, 0.0, method="identity")
        with pytest.raises(InvalidInput):
            build_coreset(data, 2, 2, 0.1, method="magic")


class TestWeightSumCheck:
    def test_identity_passes(self):
        data = geometry.random_grid_dataset(30, 2, 8, seed=18)
        assert weight_sum_check(build_coreset(data, 2, 2, 0.1, method="identity"))

    def test_doubled_weights_fail(self):
        data = geometry.random_grid_dataset(30, 2, 8, seed=19)
        cs = build_coreset(data, 2, 2, 0.1, method="identity")
        doubled = WeightedCoreset(cs.points, 2 * np.asarray(cs.weights),
                                  cs.source_n, 0.1)
        assert not weight_sum_check(doubled)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInput):
            WeightedCoreset(np.array([[1, 1]]), np.array([-0.5]), 1, 0.1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflowingPower:
    # grid points at least 1 apart: dist^3000 overflows float64
    data = geometry.random_grid_dataset(50, 3, 64, seed=1)

    def test_seeding_names_z(self):
        with pytest.raises(InvalidInput, match="z = 3000: the sum of dist"):
            approx_centers(self.data, 3, 3000, seed=0)

    def test_sensitivity_names_z(self):
        # one center: the seeding draws no dist^z-weighted sample
        centers = approx_centers(self.data, 1, 3000, seed=0)
        with pytest.raises(InvalidInput, match="z = 3000: the sum of dist"):
            build_coreset(self.data, 1, 3000, 0.2, centers=centers)
