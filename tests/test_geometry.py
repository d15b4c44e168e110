import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzsketch import geometry
from kzsketch.errors import DimensionMismatch, InvalidInput
from kzsketch.geometry import (CenterSet, GridDataset, ProblemConfig,
                               RealDataset, ZLike, as_z, cost,
                               nearest_assignment, powered_distances,
                               weighted_cost)


def brute_cost(points, centers, z):
    """Naive per-point min-distance loop, the oracle for cost()."""
    total = 0.0
    for p in np.asarray(points, dtype=float):
        best = min(math.dist(p, c) for c in np.asarray(centers, dtype=float))
        total += best ** z
    return total


e1 = np.array([1.0, 0.0])
e2 = np.array([0.0, 1.0])


class TestCost:
    def test_two_basis_vectors_against_pm_e1(self):
        # closed form 2n - 2 sum |<p_i, c>| = 4 - 2
        value = cost(RealDataset(np.stack([e1, e2])),
                     CenterSet(np.stack([e1, -e1])), 2)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_zero_when_centers_cover_points(self):
        pts = np.array([[1, 5], [3, 3], [7, 2]], dtype=float)
        cen = np.vstack([pts, [[9, 9]]])
        for z in (1, 1.5, 2, 3):
            assert cost(RealDataset(pts), CenterSet(cen), z) == 0.0

    def test_matches_bruteforce_on_grid(self):
        rng = np.random.default_rng(7)
        pts = rng.integers(1, 9, size=(10, 3))
        cen = rng.integers(1, 9, size=(2, 3)).astype(float)
        got = cost(GridDataset(pts, 8), CenterSet(cen), 1)
        assert got == pytest.approx(brute_cost(pts, cen, 1), rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(40, 5))
        cen = rng.normal(size=(3, 5))
        perm = rng.permutation(40)
        a = cost(RealDataset(pts), CenterSet(cen), 2)
        b = cost(RealDataset(pts[perm]), CenterSet(cen), 2)
        assert a == pytest.approx(b, rel=1e-12)

    def test_adding_centers_never_increases(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(30, 4))
        cen = rng.normal(size=(3, 4))
        extra = np.vstack([cen, rng.normal(size=(2, 4))])
        for z in (1, 2, 2.5):
            assert (cost(RealDataset(pts), CenterSet(extra), z)
                    <= cost(RealDataset(pts), CenterSet(cen), z) + 1e-12)

    def test_orthonormal_closed_form(self):
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rng.normal(size=(32, 12)))
        for trial in range(5):
            c = rng.normal(size=32)
            c /= np.linalg.norm(c)
            got = cost(RealDataset(q.T), CenterSet(np.stack([c, -c])), 2)
            want = 2 * 12 - 2 * np.abs(q.T @ c).sum()
            assert got == pytest.approx(want, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cost(RealDataset(np.zeros((3, 2))), CenterSet(np.zeros((1, 3))), 2)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            RealDataset(np.array([[np.nan, 0.0]]))
        with pytest.raises(InvalidInput):
            CenterSet(np.array([[np.inf, 0.0]]))


class TestWeightedCost:
    def test_identity_weights_equal_cost_exactly(self):
        rng = np.random.default_rng(19)
        pts = rng.integers(1, 100, size=(50, 4))
        cen = rng.normal(50, 20, size=(3, 4))
        data = GridDataset(pts, 100)
        for z in (1, 2):
            assert weighted_cost(np.ones(50), data, CenterSet(cen), z) \
                == cost(data, CenterSet(cen), z)

    def test_single_point_on_center(self):
        p = np.array([[2.0, 3.0]])
        assert weighted_cost([3.0], RealDataset(p), CenterSet(p), 2) == 0.0

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(20, 3))
        w = rng.uniform(0, 5, size=20)
        cen = rng.normal(size=(4, 3))
        naive = sum(wi * min(math.dist(p, c) for c in cen) ** 2
                    for wi, p in zip(w, pts))
        got = weighted_cost(w, RealDataset(pts), CenterSet(cen), 2)
        assert got == pytest.approx(naive, rel=1e-12)

    # a distance beyond float64 is inf, and a zero weight times inf is
    # still a contribution of 0, not NaN
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("points, centers, want", [
        ([[100.0, 100.0], [0.0, 0.0]], [[0.0, 0.0]], 0.0),
        ([[1.0, 1.0], [2.0, 2.0]], [[1e200, 1e200]], math.inf),
        ([[1e200, 1e200], [2.0, 2.0]], [[1.0, 1.0]], 2.0),
    ], ids=["finite", "others-overflow", "others-finite"])
    def test_zero_weights_contribute_nothing(self, points, centers, want):
        got = weighted_cost([0.0, 1.0], RealDataset(points), CenterSet(centers), 2)
        assert got == want

    @given(scale=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_linear_in_weights(self, scale):
        rng = np.random.default_rng(29)
        pts = rng.normal(size=(15, 3))
        w = rng.uniform(0.1, 2.0, size=15)
        cen = CenterSet(rng.normal(size=(2, 3)))
        base = weighted_cost(w, RealDataset(pts), cen, 2)
        scaled = weighted_cost(scale * w, RealDataset(pts), cen, 2)
        assert scaled == pytest.approx(scale * base, rel=1e-9, abs=1e-9)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInput):
            weighted_cost([-1.0], RealDataset(np.zeros((1, 2))),
                          CenterSet(np.ones((1, 2))), 2)


class TestNearestAssignment:
    def test_tie_breaks_to_lowest_index(self):
        got = nearest_assignment(np.stack([e1, e2]), np.stack([e1, -e1]))
        assert got.tolist() == [0, 0]

    def test_singleton_center(self):
        rng = np.random.default_rng(31)
        pts = rng.normal(size=(20, 3))
        assert nearest_assignment(pts, pts[:1]).tolist() == [0] * 20

    def test_matches_bruteforce_with_tie_rule(self):
        rng = np.random.default_rng(37)
        pts = rng.integers(0, 4, size=(50, 2)).astype(float)
        cen = rng.integers(0, 4, size=(4, 2)).astype(float)
        got = nearest_assignment(pts, cen)
        for i, p in enumerate(pts):
            dists = [math.dist(p, c) for c in cen]
            best = min(dists)
            want = min(j for j, dj in enumerate(dists) if dj == best)
            assert got[i] == want


class TestIntegerInput:
    """An int64 point array is prepared as its float64 copy inside the
    kernel; every public function gives what it gives on ``astype(float64)``,
    bit for bit, also above 2^53 where the cast rounds."""

    @pytest.mark.parametrize("scale", [0, 20, 26, 40, 55, 62])
    def test_same_as_float_cast(self, scale):
        rng = np.random.default_rng(scale)
        pts = 2 ** scale + rng.integers(-1000, 1000, size=(1500, 3))
        fpts = pts.astype(np.float64)
        assert (scale > 53) == (fpts.astype(np.int64) != pts).any()
        w = rng.uniform(0.5, 2.0, pts.shape[0])
        for cen in (fpts[:1], fpts[:5], fpts[:5] + 0.5,
                    fpts[:5] + rng.normal(0.0, 300.0, size=(5, 3))):
            assert np.array_equal(nearest_assignment(pts, cen), nearest_assignment(fpts, cen))
            for z in (1, Fraction(3, 2), 2, 3):
                assert np.array_equal(geometry.min_powered_distances(pts, cen, z),
                                      geometry.min_powered_distances(fpts, cen, z))
                assert cost(pts, cen, z) == cost(fpts, cen, z)
                assert weighted_cost(w, pts, cen, z) == weighted_cost(w, fpts, cen, z)


def relaxed_triangle_margins(p1, p2, p3, z: ZLike, eps: float):
    """Slack of the two relaxed triangle inequalities, batched.

    Each input is a vector or an (m, d) batch. Returns ``(m1, m2)`` where
    positive entries mean the corresponding inequality holds:

        m1 = (1+eps)^(z-1) D13 + ((1+eps)/eps)^(z-1) D23 - D12
        m2 = eps * D13 + ((z+eps)/eps)^(z-1) D23 - |D12 - D13|

    with Dij the z-th power distance between pi and pj.
    """
    if eps <= 0:
        raise InvalidInput("eps must be positive")
    zf = float(as_z(z))
    a = np.atleast_2d(np.asarray(p1, dtype=np.float64))
    b = np.atleast_2d(np.asarray(p2, dtype=np.float64))
    c = np.atleast_2d(np.asarray(p3, dtype=np.float64))
    d12 = powered_distances(((a - b) ** 2).sum(axis=1), z)
    d13 = powered_distances(((a - c) ** 2).sum(axis=1), z)
    d23 = powered_distances(((b - c) ** 2).sum(axis=1), z)
    m1 = (1 + eps) ** (zf - 1) * d13 + ((1 + eps) / eps) ** (zf - 1) * d23 - d12
    m2 = eps * d13 + ((zf + eps) / eps) ** (zf - 1) * d23 - np.abs(d12 - d13)
    return m1, m2


def check_relaxed_triangle(p1, p2, p3, z: ZLike, eps: float) -> bool:
    """Whether both relaxed triangle inequalities hold for one triple."""
    m1, m2 = relaxed_triangle_margins(p1, p2, p3, z, eps)
    tol = 1e-9 * max(1.0, float(np.abs(m1).max()), float(np.abs(m2).max()))
    return bool((m1 >= -tol).all() and (m2 >= -tol).all())


class TestRelaxedTriangle:
    def test_collinear_equal_endpoints(self):
        p = np.array([0.0, 0.0])
        q = np.array([3.0, 4.0])
        assert check_relaxed_triangle(p, q, q, 2, 0.25)

    def test_degenerate_triple(self):
        p = np.zeros(4)
        assert check_relaxed_triangle(p, p, p, 3, 0.1)

    @pytest.mark.parametrize("z", [1, 1.5, 2, 3])
    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.5])
    def test_holds_on_random_triples(self, z, eps):
        rng = np.random.default_rng(int(10 * z) * 100 + int(100 * eps))
        m = 100_000
        p1 = rng.normal(size=(m, 8))
        p2 = rng.normal(size=(m, 8))
        p3 = rng.normal(size=(m, 8))
        m1, m2 = relaxed_triangle_margins(p1, p2, p3, z, eps)
        scale = max(1.0, np.abs(m1).max(), np.abs(m2).max())
        assert (m1 >= -1e-9 * scale).all()
        assert (m2 >= -1e-9 * scale).all()


class TestContainers:
    def test_config_validation(self):
        with pytest.raises(InvalidInput):
            ProblemConfig(n=1, d=1, k=1, z=2, delta=1, epsilon=0.1)
        with pytest.raises(InvalidInput):
            ProblemConfig(n=1, d=1, k=1, z=2, delta=4, epsilon=1.2)
        with pytest.raises(InvalidInput):
            ProblemConfig(n=1, d=1, k=1, z=0.5, delta=4, epsilon=0.1)
        cfg = ProblemConfig(n=4, d=2, k=2, z="3/2", delta=8, epsilon=0.5)
        assert (cfg.z.numerator, cfg.z.denominator) == (3, 2)

    def test_grid_range_enforced(self):
        with pytest.raises(InvalidInput):
            GridDataset(np.array([[0, 1]]), 4)
        with pytest.raises(InvalidInput):
            GridDataset(np.array([[1, 5]]), 4)

    @pytest.mark.parametrize("coords", [[[1.5, 2.7]], [[np.nan, 2.0]],
                                        [[np.inf, 2.0]], [[1e30, 2.0]]],
                             ids=["fraction", "nan", "inf", "beyond-int64"])
    def test_grid_rejects_non_integral_coordinates(self, coords):
        # neither truncated nor cast to -2^63 for the range check
        with pytest.raises(InvalidInput, match="grid coordinates must be integers"):
            GridDataset(np.array(coords), 10)

    def test_grid_keeps_integral_floats_and_integer_input(self):
        assert GridDataset(np.array([[1.0, 10.0]]), 10).points.tolist() == [[1, 10]]
        pts = np.array([[3, 4]], dtype=np.int64)
        assert GridDataset(pts, 10).points.dtype == np.int64
        assert GridDataset(np.array([[3, 4]], dtype=np.uint8), 10).points.tolist() \
            == [[3, 4]]

    @pytest.mark.parametrize("given", ["array", "view", "subclass"])
    @pytest.mark.parametrize("prepared", [False, True])
    def test_dataset_owns_its_points(self, given, prepared):
        # the caller's writable array (a view of it, or the base-class view
        # that numpy takes of a subclass) stays writable, and a later write
        # to it changes neither the dataset nor its prepared rows, whether
        # the rows were prepared before the write or after it
        base = np.array([[1, 2], [3, 4], [5, 6]])
        caller = {"array": base, "view": base[1:],
                  "subclass": base.view(type("Sub", (np.ndarray,), {}))}[given]
        data = GridDataset(caller, 8)
        want = caller.tolist()
        if prepared:
            data._rows
        caller[0, 0] = 7
        assert caller.flags.writeable and base[-1, 0] == 5
        assert data.points.tolist() == want and not data.points.flags.writeable
        assert data._rows.points.tolist() == want

    def test_dataset_takes_a_read_only_array_as_it_is(self):
        # the library hands over its own arrays read-only, so they are not copied
        pts = geometry._freeze(np.array([[1, 2], [3, 4]]))
        assert GridDataset(pts, 8).points is pts

    def test_dataset_file_round_trip(self, tmp_path):
        data = geometry.random_grid_dataset(37, 5, 300, seed=5)
        path = tmp_path / "points.kzds"
        geometry.save_dataset(data, path)
        back = geometry.load_dataset(path)
        assert back.delta == 300
        assert np.array_equal(back.points, data.points)

    def test_oversized_header_rejected_before_reading(self, tmp_path):
        path = tmp_path / "huge.kzds"
        path.write_bytes(geometry.DATASET_MAGIC
                         + struct.pack("<HQIQ", 1, 2 ** 40, 1, 1024))
        assert path.stat().st_size == 26
        with pytest.raises(InvalidInput, match="truncated dataset payload"):
            geometry.load_dataset(path)

    @pytest.mark.parametrize("delta, bound", [(10, 10), (2 ** 64 - 1, 2 ** 63 - 1)])
    def test_coordinate_beyond_int64_named_as_stored(self, tmp_path, delta, bound):
        # read unsigned: the int64 cast would report 2^63 + 5 as -2^63 + 5
        path = tmp_path / "big.kzds"
        path.write_bytes(geometry.DATASET_MAGIC + struct.pack("<HQIQ", 1, 2, 1, delta)
                         + np.array([2 ** 63 + 5, 3], dtype="<u8").tobytes())
        with pytest.raises(InvalidInput, match=fr"^grid coordinates must lie in "
                           fr"\[1, {bound}\]; found range \[3, 9223372036854775813\]$"):
            geometry.load_dataset(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "short.kzds"
        path.write_bytes(geometry.DATASET_MAGIC + b"\x01\x00")
        with pytest.raises(InvalidInput, match="truncated dataset header"):
            geometry.load_dataset(path)

    def test_csv_import(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("1,2,3\n4,5,6\n")
        data = geometry.load_dataset_csv(path)
        assert data.n == 2 and data.d == 3
        assert data.delta == 6
        assert np.array_equal(data.points, [[1, 2, 3], [4, 5, 6]])
