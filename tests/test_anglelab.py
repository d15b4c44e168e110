import itertools
import math
import struct

import numpy as np
import pytest

from kzsketch import anglelab
from kzsketch.anglelab import (COS_STAR, THETA_STAR, InnerProductMatrix,
                               OrthonormalBasis, angle_statistics, null_space,
                               orthogonal_complement_basis,
                               perturbed_orthogonal_basis, principal_angles,
                               row_norm_profile, sample_haar_basis,
                               small_angle_index)
from kzsketch.errors import DimensionMismatch, InvalidInput

# Monte-Carlo oracle values, frozen from a standalone SVD run made before
# this module was written (200 Haar pairs at d=256, n=8; 1000 pairs at
# d=512, n=8).
SIGMA1_MEAN_ORACLE = 0.303999
SIGMA1_SE_ORACLE = 0.002249
THETA1_FIRST_PCT_FLOOR = 1.25


def figure_fixture():
    x = OrthonormalBasis(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    y = OrthonormalBasis(np.array([
        [1.0, 0.0],
        [0.0, math.cos(math.pi / 3)],
        [0.0, math.sin(math.pi / 3)],
    ]))
    return x, y


class TestHaarSampling:
    def test_orthonormality(self):
        b = sample_haar_basis(200, 40, seed=0)
        assert np.abs(b.matrix.T @ b.matrix - np.eye(40)).max() <= 1e-10

    def test_square_case_is_orthogonal_matrix(self):
        b = sample_haar_basis(24, 24, seed=1)
        assert abs(abs(np.linalg.det(b.matrix)) - 1.0) <= 1e-8

    def test_deterministic_per_seed(self):
        a = sample_haar_basis(16, 4, seed=2)
        b = sample_haar_basis(16, 4, seed=2)
        assert np.array_equal(a.matrix, b.matrix)

    def test_sigma1_matches_frozen_oracle(self):
        vals = []
        for t in range(200):
            p = sample_haar_basis(256, 8, seed=1000 + 2 * t)
            q = sample_haar_basis(256, 8, seed=1001 + 2 * t)
            vals.append(principal_angles(p, q).sigmas[0])
        vals = np.asarray(vals)
        se = math.hypot(vals.std(ddof=1) / math.sqrt(len(vals)), SIGMA1_SE_ORACLE)
        assert abs(vals.mean() - SIGMA1_MEAN_ORACLE) <= 3 * se


class TestPrincipalAngles:
    def test_identical_subspaces(self):
        p = sample_haar_basis(64, 10, seed=3)
        pa = principal_angles(p, p)
        assert pa.thetas.max() <= 1e-7

    def test_figure_fixture(self):
        x, y = figure_fixture()
        pa = principal_angles(x, y)
        assert pa.thetas[0] == pytest.approx(0.0, abs=1e-9)
        assert pa.thetas[1] == pytest.approx(math.pi / 3, abs=1e-9)

    def test_orthogonal_spans(self):
        p = sample_haar_basis(50, 12, seed=4)
        q = orthogonal_complement_basis(p, 12)
        pa = principal_angles(p, q)
        assert np.abs(pa.thetas - math.pi / 2).max() <= 1e-7

    def test_symmetry(self):
        p = sample_haar_basis(40, 6, seed=5)
        q = sample_haar_basis(40, 6, seed=6)
        a = principal_angles(p, q).thetas
        b = principal_angles(q, p).thetas
        assert np.abs(a - b).max() <= 1e-10

    def test_invariance_under_rotations(self):
        rng = np.random.default_rng(7)
        p = sample_haar_basis(30, 5, seed=8)
        q = sample_haar_basis(30, 5, seed=9)
        ref = principal_angles(p, q).thetas
        worst = 0.0
        for _ in range(100):
            a, _ = np.linalg.qr(rng.normal(size=(30, 30)))
            r1, _ = np.linalg.qr(rng.normal(size=(5, 5)))
            r2, _ = np.linalg.qr(rng.normal(size=(5, 5)))
            got = principal_angles(OrthonormalBasis(a @ p.matrix @ r1),
                                   OrthonormalBasis(a @ q.matrix @ r2)).thetas
            worst = max(worst, float(np.abs(got - ref).max()))
        assert worst <= 1e-8

    def test_sigma_squares_sum_to_frobenius(self):
        p = sample_haar_basis(48, 9, seed=10)
        q = sample_haar_basis(48, 9, seed=11)
        u = InnerProductMatrix.from_bases(p, q)
        pa = principal_angles(p, q)
        assert (pa.sigmas ** 2).sum() == pytest.approx(
            np.linalg.norm(u.u, "fro") ** 2, abs=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            principal_angles(sample_haar_basis(10, 2, 0), sample_haar_basis(12, 2, 0))


class TestRowNormProfile:
    def test_zero_matrix_passes(self):
        k, ok = row_norm_profile(np.zeros((100, 100)))
        assert ok and len(k) == 100

    def test_identity_fails(self):
        k, ok = row_norm_profile(np.eye(50))
        assert not ok and len(k) == 0

    def test_sigma_bounded_pair_passes(self):
        p = sample_haar_basis(120, 40, seed=12)
        q = perturbed_orthogonal_basis(p, COS_STAR / 2, seed=13)
        u = InnerProductMatrix.from_bases(p, q)
        # all sigma <= cos_star, so the Frobenius mass keeps every row small
        assert np.linalg.svd(u.u, compute_uv=False)[0] <= COS_STAR
        k, ok = row_norm_profile(u)
        assert ok and len(k) == 40


def family_angles(members):
    """theta_{ceil(a n)} of every unordered pair of family members."""
    idx = small_angle_index(members[0].n)
    return [principal_angles(p, q).kth_smallest(idx)
            for p, q in itertools.combinations(members, 2)]


class TestVerifyFamily:
    def test_mutually_orthogonal_family_passes(self):
        base = sample_haar_basis(40, 4, seed=14)
        comp = orthogonal_complement_basis(base)
        members = [base] + [
            OrthonormalBasis(comp.matrix[:, 4 * i:4 * (i + 1)]) for i in range(3)]
        angles = family_angles(members)
        assert min(angles) >= math.pi / 2 - 1e-6 and len(angles) == 6

    def test_duplicate_member_fails(self):
        p = sample_haar_basis(20, 3, seed=15)
        assert sum(a < THETA_STAR for a in family_angles([p, p])) == 1

    def test_haar_family_matches_frozen_oracle(self):
        # oracle: P(theta_1 >= pi/6) at d=1024, n=4 is 1.0 (500-pair MC run)
        members = [sample_haar_basis(1024, 4, seed=100 + i) for i in range(50)]
        assert min(family_angles(members)) >= math.pi / 6


class TestAngleStatistics:
    def test_full_space_pairs_have_zero_angle(self):
        stats = angle_statistics(6, 6, trials=5, seed=16)
        assert stats["theta_min"]["max"] <= 1e-7

    def test_forced_complement_is_right_angle(self):
        p = sample_haar_basis(16, 8, seed=17)
        q = orthogonal_complement_basis(p, 8)
        assert principal_angles(p, q).thetas[0] == pytest.approx(math.pi / 2,
                                                                 abs=1e-7)

    def test_first_percentile_against_frozen_floor(self):
        stats = angle_statistics(512, 8, trials=100, seed=18)
        assert stats["theta_min"]["quantiles"]["0.01"] >= THETA1_FIRST_PCT_FLOOR


class TestNullSpace:
    # the (n, d) shapes the benchmark's lowerbound commands run
    SHAPES = ((8, 32), (100, 256), (4, 16))

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_matches_scipy_bit_for_bit(self, n, d):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        p = sample_haar_basis(d, n, seed=0)
        for q in (orthogonal_complement_basis(p, n), sample_haar_basis(d, n, seed=1)):
            for a in (p.matrix.T, np.hstack([p.matrix, q.matrix]).T):
                assert np.array_equal(null_space(a), scipy_linalg.null_space(a))

    def test_rank_deficient_and_full_rank(self):
        a = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
        ns = null_space(a)
        assert ns.shape == (3, 2)
        assert np.abs(a @ ns).max() <= 1e-12
        assert np.abs(ns.T @ ns - np.eye(2)).max() <= 1e-12
        assert null_space(np.eye(3)).shape == (3, 0)


class TestContainersAndIO:
    def test_non_orthonormal_rejected(self):
        with pytest.raises(InvalidInput):
            OrthonormalBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(InvalidInput):
            OrthonormalBasis(np.ones((2, 3)))

    def test_thresholds_defaults(self):
        assert THETA_STAR == pytest.approx(math.acos(1e-3 / (4 * math.sqrt(2))))
        assert small_angle_index(100) == 1
        assert small_angle_index(10 ** 9) == math.ceil(1e-6 / 32 * 10 ** 9)

    def test_basis_file_round_trip(self, tmp_path):
        b = sample_haar_basis(12, 5, seed=23)
        path = tmp_path / "basis.kzob"
        anglelab.save_basis(b, path)
        back = anglelab.load_basis(path)
        assert np.array_equal(back.matrix, b.matrix)

    def test_oversized_header_rejected_before_reading(self, tmp_path):
        path = tmp_path / "huge.kzob"
        path.write_bytes(anglelab.BASIS_MAGIC + struct.pack("<HII", 1, 2 ** 20, 2 ** 20))
        with pytest.raises(InvalidInput, match="truncated basis payload"):
            anglelab.load_basis(path)
