import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import nearest_reference
from hard_instances import weight_sum_check
from kzsketch import coreset, geometry
from kzsketch.coreset import (WeightedCoreset, _group_order, approx_centers,
                              build_coreset, sensitivity_coreset)
from kzsketch.errors import DimensionMismatch, InvalidInput
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
        assert cost(data, CenterSet(ac.centers), 2) == 0.0
        assert not ac.has_repeats

    def test_single_point_repeats(self):
        data = GridDataset(np.array([[7, 7]]), 10)
        ac = approx_centers(data, 3, 2, seed=1)
        assert ac.centers.shape == (3, 2)
        assert (ac.centers == 7).all()
        assert ac.has_repeats
        assert cost(data, CenterSet(ac.centers), 2) == 0.0

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
        assert cost(sub, CenterSet(ac.centers), 2) <= 25 * opt

    def test_deterministic_per_seed(self):
        data = geometry.random_grid_dataset(100, 3, 32, seed=7)
        a = approx_centers(data, 4, 2, seed=8)
        b = approx_centers(data, 4, 2, seed=8)
        assert np.array_equal(a.centers, b.centers)
        c = approx_centers(data, 4, 2, seed=9)
        assert not np.array_equal(a.indices, c.indices)

    @pytest.mark.parametrize("n, d, k, half", [
        (3000, 2, 8, True),     # many ties among the dataset rows
        (3000, 4, 8, True),
        (500, 16, 3, False),    # one mean per chunk
        (7, 1, 20, False),      # chunks of 7, 7 and 6 means against 7 rows
    ])
    def test_snap_matches_reference(self, monkeypatch, n, d, k, half):
        # the snap's one kernel call: k cluster means as the points against
        # the dataset's prepared rows as the centers gives the nearest row
        # per mean, ties to the lowest index. _GRID_VALUES puts the means in
        # 3 chunks, so a chunk has fewer means than there are dataset rows
        # (one argmin over the rows) or, in the last case, as many (the
        # running minimum) and then fewer. The means on either side of each
        # chunk edge lie halfway between two dataset rows, an exact tie
        rng = np.random.default_rng(n + d + k)
        fpts = rng.integers(1, 5, size=(n, d)).astype(np.float64)
        centers = rng.integers(1, 5, size=(k, d)) + (0.5 if half else rng.random((k, d)))
        step = -(-k // 3)
        monkeypatch.setattr(geometry, "_GRID_VALUES", step * (n + d))
        low, high = n // 2, n - 1
        fpts[low] = fpts[high] + np.eye(d)[0]
        edges = [i for lo in range(step, k, step) for i in (lo - 1, lo)]
        centers[edges] = fpts[high] + 0.5 * np.eye(d)[0]
        dist = ((centers[edges, None, :] - fpts[None]) ** 2).sum(axis=2)
        assert (dist[:, low] == dist.min(axis=1)).all()
        assert (dist[:, high] == dist.min(axis=1)).all()
        want = nearest_reference.nearest(centers, fpts)
        chunks, grid_chunk = [], geometry._grid_chunk
        monkeypatch.setattr(geometry, "_grid_chunk",
                            lambda *a: chunks.append(a) or grid_chunk(*a))
        got = geometry._nearest(centers, geometry._Rows(fpts))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert len(chunks) == 3

    @pytest.mark.parametrize("z", [Fraction(2), Fraction(1), Fraction(3, 2)])
    def test_peak_memory_below_two_float_copies(self, z):
        # the prepared float copy of the points is the one dataset-sized
        # array: the seeding, the sweep and the snap share it, so no second
        # copy (the snap preparing the dataset again) fits under the pin
        n, d = 20_000, 16
        data = geometry.random_grid_dataset(n, d, 1024, seed=20)
        tracemalloc.start()
        try:
            approx_centers(data, 8, z, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * d * 8

    def test_peak_memory_with_many_centers(self):
        # the snap of 64 means against the 20000 dataset rows is one kernel
        # call, whose temporaries stay within one chunk of _GRID_VALUES
        # values (its (k, rows) matrix plus the candidate marks) however
        # many centers there are; next to it live the float copy and a few
        # per-row arrays of the seeding (norms, distances, powers, the
        # nearest seed, the sweep's order)
        n, d = 20_000, 16
        data = geometry.random_grid_dataset(n, d, 1024, seed=20)
        tracemalloc.start()
        try:
            approx_centers(data, 64, Fraction(3, 2), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 + 8 * n * 8 + 1.25 * 8 * geometry._GRID_VALUES


def reference_sample(rng, prob, size):
    """Inverse-CDF draws in the order the uniforms come."""
    cdf = np.cumsum(prob)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(size), side="right")


def reference_approx_centers(dataset, k, z, seed):
    """approx_centers as a separate pass per step: dist^z seeding through
    min_powered_distances, then nearest_assignment over the seeds, the
    cluster means and the snap, by the scalar reference kernel."""
    rng = coreset._rng(seed)
    fpts = dataset.points.astype(np.float64)
    n = dataset.n
    chosen = [reference_sample(rng, np.full(n, 1.0 / n), 1)[0]]
    with np.errstate(over="ignore"):
        min_pow = geometry.min_powered_distances(fpts, fpts[chosen], z)
        for _ in range(1, k):
            total = coreset.dz_total(min_pow, z)
            prob = np.full(n, 1.0 / n) if total <= 0 else min_pow / total
            chosen.append(reference_sample(rng, prob, 1)[0])
            new_pow = geometry.min_powered_distances(fpts, fpts[chosen[-1:]], z)
            np.minimum(min_pow, new_pow, out=min_pow)
    centers = fpts[chosen]
    assign = geometry.nearest_assignment(fpts, centers)
    for j in range(k):
        if (assign == j).any():
            centers[j] = fpts[assign == j].mean(axis=0)
    snapped = nearest_reference.nearest(centers, fpts)[1]
    return snapped, k > n or len(np.unique(snapped)) < k


def reference_sensitivity(dataset, k, z, eps, seed, centers, weights=None):
    """sensitivity_coreset with its draws in the order the uniforms come."""
    n, d = dataset.n, dataset.d
    w = np.ones(n) if weights is None else weights
    rng = coreset._rng(seed)
    with np.errstate(over="ignore"):
        mass = w * geometry.min_powered_distances(
            dataset.points.astype(np.float64), centers.centers.astype(np.float64), z)
        total = coreset.dz_total(mass, z)
    sens = (mass / total if total > 0 else 0.0) + w / w.sum()
    prob = sens / sens.sum()
    m = min(n, int(math.ceil(4.0 * k * eps ** -2 * (d + math.log2(100.0)))))
    uniq, counts = np.unique(reference_sample(rng, prob, m), return_counts=True)
    return dataset.points[uniq], w[uniq] * counts / (m * prob[uniq])


# tie-heavy inputs: (dataset, k)
TIE_CASES = {
    "delta3_grid": (GridDataset(np.random.default_rng(1).integers(1, 4, size=(400, 3)), 3), 6),
    "all_duplicates": (GridDataset(np.full((60, 2), 2), 3), 4),
    "k_above_distinct": (GridDataset(np.random.default_rng(2).integers(1, 3, size=(50, 1)), 3), 5),
}
TIE_ZS = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]


@pytest.mark.parametrize("k", [1, 8, 256, 257, 70_000])
def test_group_order_is_the_stable_sort(k):
    # narrowed to uint8, uint16 or uint32 by k, the order stays that of the
    # int64 indices, ties in row order
    assign = np.random.default_rng(k).integers(0, k, size=5000)
    assign[:3] = k - 1
    assert np.array_equal(_group_order(assign, k), np.argsort(assign, kind="stable"))


@pytest.mark.parametrize("case", ["one", "all-equal", "distinct", "runs", "sampled"])
def test_sorted_counts_are_uniques(case):
    # run heads and lengths of ascending draws are np.unique's values and
    # counts, dtypes included; "sampled" draws as the sensitivity pass does
    rng = np.random.default_rng(len(case))
    prob = rng.random(300) ** 8
    draws = {
        "one": lambda: np.array([5]),
        "all-equal": lambda: np.full(100, 3),
        "distinct": lambda: np.arange(7, 50),
        "runs": lambda: np.sort(rng.integers(0, 40, size=500)),
        "sampled": lambda: coreset._inverse_cdf_sample(rng, prob / prob.sum(), 20_000),
    }[case]()
    got, want = coreset._sorted_counts(draws), np.unique(draws, return_counts=True)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


class TestSeedingKeepsAssignment:
    """The seeding's running nearest seed replaces a separate assignment
    pass, and sorted draws replace draws in uniform order; both leave every
    output as the one-pass-per-step reference gives it."""

    @pytest.mark.parametrize("z", TIE_ZS, ids=str)
    @pytest.mark.parametrize("case", TIE_CASES)
    def test_approx_centers_matches_reference(self, case, z):
        data, k = TIE_CASES[case]
        for seed in range(10):
            ac = approx_centers(data, k, z, seed)
            indices, has_repeats = reference_approx_centers(data, k, z, seed)
            assert np.array_equal(ac.indices, indices), f"seed {seed}"
            assert np.array_equal(ac.centers, data.points[indices])
            assert ac.has_repeats == has_repeats

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("z", TIE_ZS, ids=str)
    @pytest.mark.parametrize("case", TIE_CASES)
    def test_sensitivity_matches_reference(self, case, z, weighted):
        data, k = TIE_CASES[case]
        for seed in range(10):
            w = np.random.default_rng(seed).uniform(0.5, 2.0, data.n) if weighted else None
            centers = approx_centers(data, k, z, seed)
            cs = sensitivity_coreset(data, k, z, 0.3, seed, centers=centers, weights=w)
            pts, new_w = reference_sensitivity(data, k, z, 0.3, seed, centers, w)
            assert np.array_equal(cs.points, pts), f"seed {seed}"
            assert np.array_equal(cs.weights, new_w), f"seed {seed}"

    # 4 max|p|^2 against 2^52, the bound of each seed's grid pass:
    # at it (2^24 with d = 4), just above it, below 2^56, and far above it.
    # The rows sit within 8 of the grid's top, so a seed's distances are
    # small next to the norms and an expanded form that rounds moves draws
    @pytest.mark.parametrize("delta", [2 ** 24, 2 ** 24 + 1, 2 ** 26 - 1, 2 ** 40])
    @pytest.mark.parametrize("z", TIE_ZS, ids=str)
    def test_seeding_either_side_of_the_gemv_bound(self, z, delta):
        pts = delta - np.random.default_rng(delta % 97).integers(0, 8, size=(300, 4))
        pts[0] = delta
        data = GridDataset(pts, delta)
        for seed in range(5):
            ac = approx_centers(data, 5, z, seed)
            indices, has_repeats = reference_approx_centers(data, 5, z, seed)
            assert np.array_equal(ac.indices, indices), f"seed {seed}"
            assert ac.has_repeats == has_repeats

    @pytest.mark.parametrize("scale", [40, 62])
    def test_large_coordinates_match_reference(self, scale):
        # coordinates where an int64 sum of squares wraps: the kernel's
        # norms and grid rows must leave every output as the float
        # reference gives it
        rng = np.random.default_rng(scale)
        data = GridDataset(np.vstack([np.full((20, 3), 2 ** scale),
                                      2 ** scale - rng.integers(0, 2 ** 20, size=(200, 3)),
                                      rng.integers(1, 100, size=(200, 3))]), 2 ** scale)
        for z in TIE_ZS:
            for seed in range(3):
                centers = approx_centers(data, 4, z, seed)
                indices, has_repeats = reference_approx_centers(data, 4, z, seed)
                assert np.array_equal(centers.indices, indices), f"z {z}, seed {seed}"
                assert centers.has_repeats == has_repeats
                cs = sensitivity_coreset(data, 4, z, 0.3, seed, centers=centers)
                pts, new_w = reference_sensitivity(data, 4, z, 0.3, seed, centers)
                assert np.array_equal(cs.points, pts), f"z {z}, seed {seed}"
                assert np.array_equal(cs.weights, new_w), f"z {z}, seed {seed}"

    @pytest.mark.parametrize("delta", [64, 2 ** 40])
    @pytest.mark.parametrize("n, d, k", [(3000, 4, 8), (500, 16, 3), (7, 1, 20)])
    def test_one_pass_per_seed_and_one_kernel_call_for_the_snap(self, monkeypatch,
                                                                n, d, k, delta):
        # each seed is one one-center kernel call with no index on the
        # dataset's prepared rows, then the snap is one call: inside the
        # grid bound (delta = 64) every seed's call is the grid pass, beyond
        # it (2^40) none is, each chunk's grid decision says which. The
        # snap's centers are the seeding's prepared rows themselves, so the
        # dataset is not prepared or scanned again
        calls, args, passes, decisions = [], [], [], []
        kernel, grid_chunk = geometry._nearest, geometry._grid_chunk

        def spy(*a):
            decisions.append(bool(grid_chunk(*a)))
            return decisions[-1]

        def counted(p, c, **kw):
            rows = len(c.points if isinstance(c, geometry._Rows) else c)
            calls.append((rows, kw))
            args.append((p, c))
            decisions.clear()
            out = kernel(p, c, **kw)
            if rows == 1 and isinstance(p, geometry._Rows) and decisions and all(decisions):
                passes.append(c)
            return out

        monkeypatch.setattr(geometry, "_grid_chunk", spy)
        monkeypatch.setattr(geometry, "_nearest", counted)
        approx_centers(geometry.random_grid_dataset(n, d, delta, seed=n), k, 2, seed=0)
        assert len(calls) == k + 1
        assert calls[:k] == [(1, {"index": False})] * k
        assert calls[k] == (n, {})
        assert len(passes) == (k if delta == 64 else 0)
        seeding = args[0][0]
        assert all(p is seeding for p, _ in args[:k])
        assert args[k][1] is seeding and seeding._integral is True

    @pytest.mark.parametrize("z", TIE_ZS, ids=str)
    def test_integral_means_snap_like_the_reference(self, z):
        # rows drawn from 8 distinct grid points: every cluster mean is one
        # of them, so the snap hands the kernel's grid pass 8 integral rows
        # against the 2000 dataset rows as its centers
        rng = np.random.default_rng(17)
        sites = rng.integers(1, 1025, size=(8, 16))
        assert len(np.unique(sites, axis=0)) == 8
        data = GridDataset(sites[rng.integers(0, 8, size=2000)], 1024)
        for seed in range(4):
            ac = approx_centers(data, 8, z, seed)
            indices, has_repeats = reference_approx_centers(data, 8, z, seed)
            assert np.array_equal(ac.indices, indices), f"seed {seed}"
            assert not has_repeats and not ac.has_repeats
            assert len(np.unique(data.points[indices], axis=0)) == 8

    @pytest.mark.parametrize("k", [256, 257])
    def test_seeding_with_a_wide_index(self, k):
        # the nearest seed is kept in uint8 up to k = 256 and in uint16 from
        # 257, where the last seed's own row moves to index 256
        data = geometry.random_grid_dataset(1200, 4, 1024, seed=k)
        _, assign = coreset._seed_dz(geometry._Rows(data), k, 2, coreset._rng(0))
        assert assign.dtype == np.min_scalar_type(k - 1) and assign.max() == k - 1
        for z in (Fraction(3, 2), Fraction(2)):
            for seed in range(2):
                ac = approx_centers(data, k, z, seed)
                indices, has_repeats = reference_approx_centers(data, k, z, seed)
                assert np.array_equal(ac.indices, indices), f"z {z}, seed {seed}"
                assert ac.has_repeats == has_repeats


class TestBuildCoreset:
    @pytest.mark.parametrize("method", ["identity", "sensitivity"])
    @pytest.mark.parametrize("weights, error, match", [
        (np.zeros(50), InvalidInput, "positive, finite sum, got 0.0"),
        (np.r_[np.nan, np.ones(49)], InvalidInput, "finite and nonnegative"),
        (np.r_[-1.0, np.ones(49)], InvalidInput, "finite and nonnegative"),
        (np.ones(49), DimensionMismatch, "49 weights for 50 points"),
        (np.ones((50, 1)), DimensionMismatch, r"\(50, 1\) weights for 50 points"),
    ], ids=["all-zero", "nan", "negative", "49-weights", "column"])
    def test_weights_checked_before_any_work(self, monkeypatch, method, weights,
                                             error, match):
        data = geometry.random_grid_dataset(50, 3, 16, seed=10)
        monkeypatch.setattr(geometry, "_nearest",
                            lambda *a: pytest.fail("work began before the weights' check"))
        with pytest.raises(error, match=match):
            build_coreset(data, 2, 2, 0.3, method=method, weights=weights)

    def test_identity_is_exact(self):
        data = geometry.random_grid_dataset(50, 3, 16, seed=10)
        cs = build_coreset(data, 2, 2, 0.3, method="identity")
        assert (cs.weights == 1.0).all()
        assert cs.weights.sum() == data.n
        cen = CenterSet(np.full((2, 3), 8.0))
        assert geometry.weighted_cost(cs.weights, cs.points, cen, 2) == cost(data, cen, 2)

    def test_sensitivity_weight_sums(self):
        data = geometry.random_grid_dataset(500, 8, 256, seed=11)
        for seed in range(20):
            cs = build_coreset(data, 4, 2, 0.2, method="sensitivity", seed=seed)
            assert weight_sum_check(cs, 0.2), f"seed {seed}: sum {cs.weights.sum()}"

    def test_sensitivity_cost_accuracy(self):
        data = geometry.random_grid_dataset(2000, 16, 1024, seed=12)
        cs = build_coreset(data, 4, 2, 0.2, method="sensitivity", seed=13)
        queries = geometry.random_center_sets(data, 4, 100, seed=14)
        for q in queries:
            exact = cost(data, q, 2)
            est = geometry.weighted_cost(cs.weights, cs.points, q, 2)
            assert abs(est - exact) <= 0.2 * exact

    def test_sensitivity_unbiased(self):
        data = geometry.random_grid_dataset(400, 6, 128, seed=15)
        query = geometry.random_center_sets(data, 3, 1, seed=16)[0]
        exact = cost(data, query, 2)
        coresets = [build_coreset(data, 3, 2, 0.3, method="sensitivity", seed=s)
                    for s in range(200, 400)]
        estimates = np.array([geometry.weighted_cost(cs.weights, cs.points, query, 2)
                              for cs in coresets])
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - exact) <= 2 * se

    def test_bad_method_and_eps(self):
        data = geometry.random_grid_dataset(10, 2, 8, seed=17)
        with pytest.raises(InvalidInput):
            build_coreset(data, 2, 2, 0.0, method="identity")
        with pytest.raises(InvalidInput):
            build_coreset(data, 2, 2, 0.1, method="magic")


@pytest.mark.parametrize("call, error, match", [
    (lambda: WeightedCoreset(np.ones((3, 2)), np.ones(2), 3), InvalidInput,
     r"coreset needs an \(m, d\) point array and m weights"),
    (lambda: WeightedCoreset(np.ones((3, 2)), np.ones(3), 2), InvalidInput,
     "coreset cannot be larger than its source dataset"),
    (lambda: approx_centers(GridDataset(np.zeros((0, 2), dtype=np.int64), 8), 1, 2, seed=0),
     InvalidInput, "dataset must contain at least one point"),
    *[(lambda v=v: WeightedCoreset([[v, 2.0]], [1.0], 1), InvalidInput,
       "grid coordinates must be integers that fit int64")
      for v in (1.5, np.nan, np.inf, -np.inf)],
], ids=["weights-for-other-points", "larger-than-source", "empty-dataset",
        "fractional-point", "nan-point", "inf-point", "-inf-point"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_input_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_coreset_owns_its_arrays():
    # the caller's point and weight arrays stay writable, given directly or
    # as an identity coreset's weights, and a later write to them changes
    # no coreset
    pts, w = np.array([[1, 2], [3, 4]]), np.array([1.0, 2.0])
    made = [WeightedCoreset(pts, w, 2),
            build_coreset(GridDataset(pts, 8), 2, 2, 0.5, method="identity", weights=w)]
    pts[0, 0], w[0] = 5, 9.0
    assert pts.flags.writeable and w.flags.writeable
    for cs in made:
        assert cs.points.tolist() == [[1, 2], [3, 4]] and cs.weights.tolist() == [1.0, 2.0]
        assert not cs.points.flags.writeable and not cs.weights.flags.writeable


class TestWeightSumCheck:
    def test_identity_passes(self):
        data = geometry.random_grid_dataset(30, 2, 8, seed=18)
        assert weight_sum_check(build_coreset(data, 2, 2, 0.1, method="identity"), 0.1)

    def test_doubled_weights_fail(self):
        data = geometry.random_grid_dataset(30, 2, 8, seed=19)
        cs = build_coreset(data, 2, 2, 0.1, method="identity")
        doubled = WeightedCoreset(cs.points, 2 * np.asarray(cs.weights), cs.source_n)
        assert not weight_sum_check(doubled, 0.1)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInput):
            WeightedCoreset(np.array([[1, 1]]), np.array([-0.5]), 1)


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
