"""The distance kernel, ``geometry._nearest``, against the scalar
per-center reference in ``nearest_reference``: both outputs, each row's
squared distance to its nearest center and that center's index, must be
equal bit for bit, ties, overflow and underflow included. The inputs reach
every path of the kernel (its docstring states them): integral rows against
integral centers on both sides of the grid bound and straddling it, rows
that are not integral, and rows with hundreds of tied or duplicate
candidates. The scalar reference is itself checked against the per-pair
direct form.

Every comparison also runs the kernel on prepared rows (``_Rows``, the form
a sketch's decoded points take), built from the float64 copy of the points
that the reference computes on, alone and against centers prepared as
``_Rows`` too (the form of the snap of ``approx_centers``): they must give
the same outputs as the reference and as the unprepared call. So must a
``GridDataset``, whose kept rows the kernel takes as points and as centers,
and rows that carry a column operand (``_Rows.cols``), as a decoded
exact-coordinate sketch's rows do."""

import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nearest_reference as ref
from kzsketch import codec, geometry
from kzsketch.coreset import WeightedCoreset
from kzsketch.geometry import GridDataset, ProblemConfig

# (point, center) pairs per example, so the scalar reference stays fast
MAX_PAIRS = 12_000

# magnitudes where |p|^2 and 2 p.c overflow (>= 1e155) or underflow
# (<= 1e-155) in the expanded form, next to ordinary ones
SCALES = [1.0, 1e-300, 1e-200, 1e-160, 1e-155, 1e155, 1e160, 1e200, 1e300]


def operand_rows(points) -> geometry._Rows:
    """``points`` prepared with their column operand, as ``Sketch.decode``
    prepares an exact-coordinate sketch's: the (d + 1, n) float64 array of
    the coordinates transposed, then a row of ones, read-only."""
    pts = np.asarray(points)
    rows = geometry._Rows(pts)
    rows.cols = geometry._freeze(np.vstack([pts.T.astype(np.float64), np.ones((1, len(pts)))]))
    return rows


def assert_same_as_reference(points, centers, want=None):
    """``want``, when given, is the reference's output on these inputs."""
    with warnings.catch_warnings():
        # squares that overflow warn in both kernels alike
        warnings.simplefilter("ignore", RuntimeWarning)
        if want is None:
            want = ref.nearest(points, centers)
        got = geometry._nearest(points, centers)
        rows = geometry._Rows(np.asarray(points).astype(np.float64))
        prepared = geometry._nearest(rows, centers)
        both = geometry._nearest(rows, geometry._Rows(centers))
        operand = operand_rows(np.asarray(points).astype(np.float64))
        folded = geometry._nearest(operand, centers)
        no_index = [geometry._nearest(p, centers, index=False)
                    for p in (points, rows, operand)]
    for out in (got, prepared, both, folded):
        assert np.array_equal(out[0], want[0])
        assert np.array_equal(out[1], want[1])
    for dist, index in no_index:
        assert np.array_equal(dist, want[0]) and index is None


@st.composite
def kernel_inputs(draw):
    """Points and centers of one of six kinds, at one magnitude.

    ``gauss``: independent Gaussians. ``grid``: coordinates in {0, 1, 2, 3},
    so exact ties are common. ``rows``: centers copied from data rows, half
    of them duplicated. ``near``: near-duplicates at scale 1e6, far below
    the expanded form's resolution. ``int``: int64 grid points, as
    ``GridDataset`` holds them, with centers on data rows. ``frac``: such
    grid points plus Gaussian jitter, with integral centers on the grid
    points, so the rows are not grid rows although the centers are."""
    k = draw(st.integers(1, 64))
    n = min(draw(st.integers(1, 2000)), max(1, MAX_PAIRS // k))
    d = draw(st.integers(1, 512))
    kind = draw(st.sampled_from(["gauss", "grid", "rows", "near", "int", "frac"]))
    scale = draw(st.sampled_from(SCALES) | st.builds(lambda e: 10.0 ** e,
                                                     st.integers(-300, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "gauss":
        pts, cen = rng.normal(size=(n, d)), rng.normal(size=(k, d))
    elif kind == "grid":
        pts = rng.integers(0, 4, size=(n, d)).astype(np.float64)
        cen = rng.integers(0, 4, size=(k, d)).astype(np.float64)
    elif kind == "rows":
        pts = rng.normal(size=(n, d))
        cen = pts[rng.integers(0, n, size=k)]
        cen[k // 2:] = cen[:k - k // 2]
    elif kind == "near":
        pts = 1e6 + 1e-3 * rng.normal(size=(n, d))
        cen = pts[rng.integers(0, n, size=k)] + 1e-9 * rng.normal(size=(k, d))
    else:
        pts = rng.integers(1, 1025, size=(n, d))
        cen = pts[rng.integers(0, n, size=k)].astype(np.float64)
        return (pts if kind == "int" else pts + rng.normal(size=(n, d))), cen
    return pts * scale, cen * scale


@given(kernel_inputs())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_scalar_reference(case):
    assert_same_as_reference(*case)


def chunk_rows(monkeypatch, n, k, d, chunks):
    """Set ``_GRID_VALUES`` so that ``_nearest`` takes n rows of d values
    against k centers in chunks of ``ceil(n / chunks)`` rows, and return
    that chunk size."""
    step = -(-n // chunks)
    monkeypatch.setattr(geometry, "_GRID_VALUES", step * (k + d))
    return step


@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_rows_across_blocks(monkeypatch, offset):
    # three chunks, with ties between duplicate centers, against integral
    # centers (the grid pass) and half-integral ones (the filter): the rows
    # on either side of each chunk edge tie between centers 0 and 2
    rng = np.random.default_rng(3)
    pts = rng.integers(0, 4, size=(2051, 3)).astype(np.float64)
    cen = np.vstack([pts[:2], pts[:1]]) + offset
    step = chunk_rows(monkeypatch, len(pts), 3, 3, 3)
    edges = [step - 1, step, 2 * step - 1, 2 * step]
    pts[edges] = pts[0]
    dist = ((pts[edges, None, :] - cen[None]) ** 2).sum(axis=2)
    assert (dist[:, 0] == dist[:, 2]).all() and (dist[:, 0] <= dist[:, 1]).all()
    assert_same_as_reference(pts, cen)
    assert grid_decisions(pts, cen, monkeypatch) == [offset == 0.0] * 3


@pytest.mark.parametrize("values", [2 ** 19, 1, 3 * 2002])
def test_filter_with_fewer_rows_than_centers(monkeypatch, values):
    # the snap's shape off the grid: 8 fractional rows, as cluster means,
    # against 2000 integral rows on {0, ..., 3}^2 as the centers. Eight of
    # the 16 grid points repeat about 250 times each, the other eight occur
    # once. The half-integral rows tie among the corners of their cell, the
    # rows jittered around a lone grid point have one candidate. In one
    # chunk, in chunks of one row and in chunks of 3
    rng = np.random.default_rng(21)
    sites = rng.permutation(np.stack(np.meshgrid(range(4), range(4)), -1).reshape(16, 2))
    cen = np.vstack([sites[rng.integers(0, 8, size=1992)], sites[8:]])
    rng.shuffle(cen)
    pts = np.vstack([rng.integers(0, 3, size=(4, 2)) + 0.5,
                     sites[8:12] + rng.normal(scale=0.1, size=(4, 2))])
    dist = ((pts[:, None, :] - cen[None]) ** 2).sum(axis=2)
    ties = (dist == dist.min(axis=1, keepdims=True)).sum(axis=1)
    assert (ties[:4] > 1).all() and (ties[4:] == 1).all()
    monkeypatch.setattr(geometry, "_GRID_VALUES", values)
    assert_same_as_reference(pts, cen)
    for centers in (cen, geometry._Rows(cen)):
        assert not any(grid_decisions(pts, centers, monkeypatch))


@pytest.mark.parametrize("lone", [False, True])
@pytest.mark.parametrize("k", [255, 256, 257, 65_537])
def test_candidate_counts_past_the_mask_dtypes(monkeypatch, k, lone):
    # the filter counts each row's candidates in min_scalar_type(k) and sums
    # j over them in the index dtype, min_scalar_type(k - 1), which is only
    # a lone candidate's index. Centers on the eight corners of the unit
    # cube, each repeated, with or without a quarter of lone integral
    # centers away from it: the rows at the cube's center have every corner
    # copy as a candidate (all k without lone centers), so counts reach 255
    # and more, and index sums wrap to values beyond k; rows near a corner tie among
    # its copies, rows near a lone center have one candidate. In one chunk
    # and in several; at k = 65537 a few rows, so that k is e's contiguous
    # axis
    rng = np.random.default_rng(k)
    corners = np.stack(np.meshgrid(*[[0, 1]] * 3), -1).reshape(8, 3)
    sites = np.stack(np.meshgrid(*[range(3, 67)] * 3), -1).reshape(-1, 3)
    sites = sites[rng.choice(len(sites), size=k // 4 if lone else 0, replace=False)]
    cen = np.vstack([corners[np.arange(k - len(sites)) % 8], sites])
    rng.shuffle(cen)
    few = k > 2 ** 16
    third = 1 if few else 100
    near = sites if lone else corners
    pts = np.vstack([np.full((third, 3), 0.5), corners[rng.integers(0, 8, size=third)],
                     near[rng.integers(0, len(near), size=third)]])
    pts[third:] += rng.normal(0, 0.1, size=(2 * third, 3))
    want = ref.nearest(pts, cen)
    dist = ((pts[:, None, :] - cen[None]) ** 2).sum(axis=2)
    ties = (dist == want[0][:, None]).sum(axis=1)
    assert ties.max() == k - len(sites) and (ties == 1).any() == lone
    for chunks in {1, third, 3 * third}:
        chunk_rows(monkeypatch, len(pts), k, 3, chunks)
        assert_same_as_reference(pts, cen, want)


@pytest.mark.parametrize("lone", [False, True])
@pytest.mark.parametrize("k", [255, 256, 257, 65_537])
def test_grid_ties_past_the_mask_dtypes(monkeypatch, k, lone):
    # the grid pass takes the same mask with T = 0, so its candidates are
    # the exact ties of each row's minimum, and a row with several takes
    # the lowest. Integral centers on the corners of the cube {0, 2}^3,
    # each repeated, with or without a quarter of lone integral centers
    # away from it, against integral rows: the rows at the cube's center
    # tie among every corner copy (all k without lone centers), so counts
    # reach 255 and more and index sums wrap; rows on a corner tie among
    # its copies, rows on a lone center have one candidate. In one chunk
    # and in several, every chunk on the grid; at k = 65537 a few rows, so
    # that k is e's contiguous axis
    rng = np.random.default_rng(k)
    corners = 2 * np.stack(np.meshgrid(*[[0, 1]] * 3), -1).reshape(8, 3)
    sites = np.stack(np.meshgrid(*[range(3, 67)] * 3), -1).reshape(-1, 3)
    sites = sites[rng.choice(len(sites), size=k // 4 if lone else 0, replace=False)]
    cen = np.vstack([corners[np.arange(k - len(sites)) % 8], sites]).astype(np.float64)
    rng.shuffle(cen)
    third = 1 if k > 2 ** 16 else 100
    near = sites if lone else corners
    pts = np.vstack([np.ones((third, 3), np.int64), corners[rng.integers(0, 8, size=third)],
                     near[rng.integers(0, len(near), size=third)]])
    want = ref.nearest(pts, cen)
    dist = ((pts[:, None, :] - cen[None]) ** 2).sum(axis=2)
    ties = (dist == want[0][:, None]).sum(axis=1)
    assert ties.max() == k - len(sites) and (ties == 1).any() == lone
    for chunks in {1, third, 3 * third}:
        chunk_rows(monkeypatch, len(pts), k, 3, chunks)
        assert_same_as_reference(pts, cen, want)
        assert all(grid_decisions(pts, cen, monkeypatch))


def test_rows_straddling_the_grid_bound_across_chunks(monkeypatch):
    # 1-D rows in [1, 1000) with a run at 2^27 inside the second of four
    # chunks, against integral centers below 1000: the grid test is taken
    # per chunk, on its own largest row, so only that chunk filters and
    # the other three take the grid pass; against half-integral centers
    # every chunk filters
    rng = np.random.default_rng(23)
    pts = rng.integers(1, 1000, size=(2000, 1))
    pts[600:700] = 2 ** 27 + rng.integers(0, 1000, size=(100, 1))
    cen = rng.integers(1, 1000, size=(6, 1)).astype(np.float64)
    chunk_rows(monkeypatch, len(pts), 6, 1, 4)
    for centers, decisions in ((cen, [True, False, True, True]), (cen + 0.5, [False] * 4)):
        assert_same_as_reference(pts, centers)
        assert grid_decisions(pts, centers, monkeypatch) == decisions


def test_filter_memory_stays_within_a_chunk(monkeypatch):
    # jittered centers over 200000 prepared rows: each filtered chunk's
    # temporaries (its (k, rows) matrix, which the direct form's blocks
    # reuse, and the candidate marks) are about _GRID_VALUES values, so the traced
    # peak is the outputs plus that, however many chunks there are. The
    # grid pass with the index builds the same marks, so the bound holds
    # for integral centers too, at k = 8 and at k = 300. So it does for
    # rows that carry the column operand, whose grid chunks fold |c|^2 into
    # the GEMM
    n, d = 200_000, 16
    rng = np.random.default_rng(24)
    grid = rng.integers(1, 1025, size=(n, d))
    plain, operand = geometry._Rows(grid), operand_rows(grid)
    del grid
    jittered = plain.points[:8] + rng.normal(size=(8, d))
    chunk = 8 * geometry._GRID_VALUES
    for rows, (cen, index) in itertools.product(
            (plain, operand), ((jittered, True), (jittered, False),
                               (plain.points[:8], True), (plain.points[:300], True))):
        width = np.min_scalar_type(len(cen) - 1).itemsize
        outputs = n * (8 + width + 8) if index else n * 8
        tracemalloc.start()
        try:
            geometry._nearest(rows, cen, index=index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < outputs + 1.25 * chunk, (len(cen), index, peak / (outputs + 1.25 * chunk))


@pytest.mark.parametrize("d", [1, 8, 9, 128, 129, 300])
def test_reference_values_equal_the_pair_form(d):
    # the reference takes a point's direct values against all centers in
    # one call; each must be the per-pair ((p - c) ** 2).sum() bit for bit,
    # across numpy's unrolled and pairwise summation lengths, with squares
    # that overflow to inf or underflow to subnormals and 0, at one
    # magnitude or mixed within a row
    rng = np.random.default_rng(d)
    scales = [1.0, 1e-160, 1e-200, 1e154, 1e160, 1e300]
    values = []
    for scale in scales + [np.array(scales)[rng.integers(0, len(scales), size=(1, d))]]:
        pts, cen = rng.normal(size=(6, d)) * scale, rng.normal(size=(7, d)) * scale
        with np.errstate(over="ignore", under="ignore"):
            for p in pts:
                got = ref.direct_values(p, cen)
                want = np.array([float(((p - c) ** 2).sum()) for c in cen])
                assert got.tobytes() == want.tobytes()
                values.append(got)
    values = np.concatenate(values)
    assert np.isinf(values).any() and ((0 < values) & (values < 2.0 ** -1022)).any()
    assert (values == 0).any()


@pytest.mark.parametrize("scale", [1e-162, 1e-160, 1e-158])
def test_ties_among_subnormal_distances(scale):
    # small-integer grids whose squared distances are subnormal: the
    # expanded form's underflow errors hide exact ties of the direct form,
    # which the bound's absolute term must catch
    rng = np.random.default_rng(6)
    pts = rng.integers(-20, 21, size=(1500, 2)) * scale
    cen = rng.integers(-20, 21, size=(8, 2)) * scale
    assert_same_as_reference(pts, cen)


@pytest.mark.parametrize("k", [2, 7])
def test_rows_whose_expanded_form_is_nan(k):
    # points and centers near 1e160, about 1e150 apart: p.c and |c|^2
    # overflow, so every e_j is -inf + inf = NaN and no center is a
    # candidate, while the direct form stays finite; each row goes to the
    # scan over every center
    rng = np.random.default_rng(k)
    pts = 1e160 + 1e150 * rng.normal(size=(300, 3))
    cen = 1e160 + 1e150 * rng.normal(size=(k, 3))
    want = ref.nearest(pts, cen)
    assert np.isfinite(want[0]).all() and (want[1] > 0).any()
    assert_same_as_reference(pts, cen)


def test_tie_heavy_grid():
    # a fifth of the rows tie and resolve over their candidate pairs only
    rng = np.random.default_rng(7)
    pts = rng.integers(1, 5, size=(20_000, 4))
    cen = rng.integers(1, 5, size=(8, 4)).astype(np.float64)
    assert_same_as_reference(pts, cen)


def test_tie_rows_across_pair_chunks():
    # 3000 centers in five duplicated groups: every row has at least 600
    # candidates, so a row's pairs straddle the chunks of _BLOCK pairs
    rng = np.random.default_rng(8)
    cen = np.repeat(rng.integers(0, 3, size=(5, 2)), 600, axis=0).astype(np.float64)
    pts = rng.integers(0, 3, size=(6, 2))
    assert_same_as_reference(pts, cen)


# grid rows: the GEMM value is exact only below the bound; at 2^26 and above
# an integer point's expanded form rounds, so a bound set too high, centers
# that are not integral or norms that wrap all show as a mismatch
GRID_SCALES = [0, 10, 20, 24, 25, 26, 27, 30, 40, 53, 62]


def grid_centers(rng, base, k, d, kind):
    """k centers near ``base``: integral, half-integral or real."""
    cen = base + rng.integers(-50, 51, size=(k, d)).astype(np.float64)
    if kind == "half":
        cen += 0.5
    elif kind == "real":
        cen += rng.random((k, d))
    return cen


@pytest.mark.parametrize("kind", ["integral", "half", "real"])
@pytest.mark.parametrize("k", [1, 7])
@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
@pytest.mark.parametrize("scale", GRID_SCALES)
def test_grid_points_near_each_other(scale, dtype, k, kind):
    # points and centers at the same magnitude, d from 1 to 3
    rng = np.random.default_rng(scale)
    d = 1 + scale % 3
    base = 2 ** scale + 50
    pts = (base + rng.integers(-50, 51, size=(600, d))).astype(dtype)
    assert_same_as_reference(pts, grid_centers(rng, float(base), k, d, kind))


@pytest.mark.parametrize("kind", ["integral", "half", "real"])
@pytest.mark.parametrize("scale", [25, 26, 27, 30, 62])
def test_grid_points_and_centers_far_apart(scale, kind):
    # large points with small centers and small points with large centers,
    # of either sign: the norms themselves pass 2^53 before the distances do
    rng = np.random.default_rng(scale)
    big = 2 ** scale + rng.integers(0, 2 ** 20, size=(300, 2))
    pts = np.vstack([big, -big, rng.integers(-60, 61, size=(300, 2))])
    assert_same_as_reference(pts, grid_centers(rng, 0.0, 5, 2, kind))
    assert_same_as_reference(pts[600:], np.vstack(
        [grid_centers(rng, 2.0 ** scale, 3, 2, kind), grid_centers(rng, 0.0, 2, 2, kind)]))


def test_grid_block_across_the_bound(monkeypatch):
    # one chunk: rows on both sides of (|p| + max|c|)^2 = 2^52, rows far
    # beyond it and small rows, against integral centers up to 2^10; the
    # grid test is on the chunk's largest row norm, so the chunk filters as
    # a whole, while its rows with (|p| + 2^10)^2 <= 2^52 take the grid pass
    rng = np.random.default_rng(9)
    edge = 2 ** 26 - 2 ** 10
    pts = np.concatenate([np.arange(edge - 200, edge + 200),
                          2 ** 27 + rng.integers(-300, 300, size=200),
                          rng.integers(-2 ** 10, 2 ** 10, size=200)])[:, None]
    rng.shuffle(pts)
    assert pts.shape[0] <= geometry._GRID_VALUES // (6 + 1)
    cen = rng.integers(-2 ** 10, 2 ** 10 + 1, size=(6, 1)).astype(np.float64)
    cen[0] = 2 ** 10
    assert_same_as_reference(pts, cen)
    assert_same_as_reference(pts, cen + 0.5)
    inside = pts[np.abs(pts[:, 0]) <= edge]
    assert len(inside) == 401
    assert not took_grid_pass(pts, cen, monkeypatch)
    assert took_grid_pass(inside, cen, monkeypatch)


@pytest.mark.parametrize("scale", [40, 62])
def test_grid_dataset_with_large_coordinates(scale):
    # exact powers of two square to multiples of 2^64, so an int64 sum of
    # squares would wrap to 0 and make such rows look small; small rows in
    # the same dataset are grid rows against the small centers
    rng = np.random.default_rng(scale)
    pts = np.vstack([np.full((50, 3), 2 ** scale),
                     2 ** scale - rng.integers(0, 2 ** 20, size=(300, 3)),
                     rng.integers(1, 100, size=(300, 3))])
    data = GridDataset(pts, 2 ** scale)
    fpts = pts.astype(np.float64)
    small = rng.integers(1, 100, size=(4, 3)).astype(np.float64)
    rows, data_rows = geometry._Rows(fpts), geometry._Rows(data)
    assert data_rows.integral and np.array_equal(data_rows.sq, rows.sq)
    for cen in (small, np.vstack([small, fpts[[0, 60]]]), fpts[[0]], small[[0]]):
        want = ref.nearest(pts, cen)
        for got in (geometry._nearest(data, cen), geometry._nearest(rows, cen),
                    geometry._nearest(data_rows, cen)):
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        assert np.array_equal(geometry.nearest_assignment(data, cen), want[1])


@pytest.mark.parametrize("scale", [1.0, 1e200])
@pytest.mark.parametrize("grid", [False, True])
def test_one_center_takes_the_direct_form_alone(monkeypatch, scale, grid):
    # one center is every row's lone candidate, so no row is filtered or
    # scanned, not even one whose expanded form overflows to NaN
    def scan(*args):
        raise AssertionError("a one-center row went to the scan")

    monkeypatch.setattr(geometry, "_scan", scan)
    rng = np.random.default_rng(11)
    if grid:
        pts = rng.integers(-2 ** 62, 2 ** 62, size=(1500, 4))
        cen = pts[[7]].astype(np.float64)
    else:
        pts = scale * rng.normal(size=(1500, 4))
        cen = scale * rng.normal(size=(1, 4))
    assert_same_as_reference(pts, cen)


@pytest.mark.parametrize("chunks", [1, 3, 7])
def test_integral_rows_take_the_grid_pass_prepared_or_not(monkeypatch, chunks):
    # rows that tie between duplicate integral centers, as float, int64 and
    # uint64 arrays, as a GridDataset and as the prepared rows of each: all
    # are integral, so every chunk takes the grid pass, with no filter or
    # scan. The rows on either side of each chunk edge tie. Against
    # half-integral centers, with the same ties, every chunk filters
    rng = np.random.default_rng(12)
    pts = rng.integers(1, 5, size=(3067, 3))
    cen = np.vstack([pts[:3], pts[:2]]).astype(np.float64)
    step = chunk_rows(monkeypatch, len(pts), 5, 3, chunks)
    for lo in range(step, len(pts), step):
        pts[[lo - 1, lo]] = pts[0]
    want = ref.nearest(pts, cen)
    assert (want[1] < 2).any()
    with monkeypatch.context() as m:
        m.setattr(geometry, "_scan", lambda *args: pytest.fail("a grid row was scanned"))
        inputs = [pts.astype(np.float64), pts, pts.astype(np.uint64), GridDataset(pts, 4)]
        for points in inputs + [geometry._Rows(p) for p in inputs]:
            got = geometry._nearest(points, cen)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert grid_decisions(points, cen, monkeypatch) == [True] * chunks
    assert_same_as_reference(pts, cen + 0.5)
    assert grid_decisions(pts, cen + 0.5, monkeypatch) == [False] * chunks


def test_prepared_rows_check_finiteness_once():
    rows = geometry._Rows(np.array([[1.0, 2.0], [3.5, -4.0]]))
    assert not rows.integral
    assert rows.sq.tolist() == [5.0, 28.25]
    for bad in (np.inf, np.nan):
        with pytest.raises(geometry.InvalidInput):
            geometry._Rows(np.array([[1.0, bad]]))


def test_grid_dataset_keeps_read_only_integral_rows(monkeypatch):
    # prepared once, on first use, from the int64 points: integral by their
    # type with no scan, read-only, and the same rows on every later use
    monkeypatch.setattr(np, "floor", lambda *a: pytest.fail("the rows were scanned"))
    pts = np.random.default_rng(14).integers(1, 2 ** 40, size=(300, 5))
    data = GridDataset(pts, 2 ** 40)
    rows = data._rows
    assert rows._integral is True and rows.integral and rows is data._rows
    assert not rows.points.flags.writeable and not rows.sq.flags.writeable
    assert np.array_equal(rows.points, pts.astype(np.float64))
    assert np.array_equal(rows.sq, geometry._Rows(pts.astype(np.float64)).sq)


@pytest.mark.parametrize("k", [1, 5, 40])
@pytest.mark.parametrize("delta", [64, 2 ** 40])
def test_grid_dataset_as_points_and_as_centers(k, delta):
    # a GridDataset hands the kernel the rows it keeps, as the points and
    # as the centers, against integral, half-integral and jittered other
    # sides, inside the grid bound (delta = 64) and beyond it (2^40), with
    # duplicate centers when there are several: the reference's outputs
    # bit for bit, on the first call and on later ones
    rng = np.random.default_rng(k + delta % 89)
    data = GridDataset(rng.integers(1, delta + 1, size=(700, 3)), delta)
    X = rng.integers(1, delta + 1, size=(k, 3))
    X[k // 2:] = X[:k - k // 2]
    fX, fpts = X.astype(np.float64), data.points.astype(np.float64)
    for cen in (fX, fX + 0.5, fX + rng.normal(size=fX.shape)):
        want = ref.nearest(data.points, cen)
        for _ in range(2):
            got = geometry._nearest(data, cen)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            dist, index = geometry._nearest(data, cen, index=False)
            assert np.array_equal(dist, want[0]) and index is None
    centers = GridDataset(X, delta)
    for points in (data, fpts + 0.5, fpts + rng.normal(size=fpts.shape)):
        want = ref.nearest(geometry._points_of(points), X)
        for _ in range(2):
            got = geometry._nearest(points, centers)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_float_rows_are_scanned_for_integrality_only_against_integral_centers(
        monkeypatch):
    # the integrality of float rows decides only between the grid pass and
    # the block loop, and only integral centers can take the pass: against
    # jittered centers the rows are never scanned, and integral float rows
    # against integral centers are scanned once and take the pass
    rng = np.random.default_rng(13)
    pts = rng.integers(1, 1025, size=(3000, 4)).astype(np.float64)
    jittered = pts[:5] + rng.normal(scale=0.25, size=(5, 4))
    for points in (pts, pts + 0.5):
        rows, want = geometry._Rows(points), ref.nearest(points, jittered)
        got = geometry._nearest(rows, jittered)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert np.array_equal(geometry._nearest(rows, jittered, index=False)[0], want[0])
        assert rows._integral is None
    rows = geometry._Rows(pts)
    assert took_grid_pass(rows, pts[:5], monkeypatch)
    assert rows._integral is True
    half = geometry._Rows(pts + 0.5)
    assert not took_grid_pass(half, pts[:5], monkeypatch)
    assert half._integral is False


@pytest.mark.parametrize("kind", ["integral", "half", "jittered"])
@pytest.mark.parametrize("k", [1, 40])
@pytest.mark.parametrize("delta", [64, 2 ** 40])
def test_prepared_centers(monkeypatch, kind, k, delta):
    # dataset rows as the centers, the snap's form: integer rows inside the
    # grid bound (delta = 64) or beyond it (2^40), half of them duplicated
    # when there are many, against integral, half-integral or jittered
    # points. Prepared from int64 they are integral by type, from float64
    # their integrality is read lazily; each must take the path and give
    # the values of the bare array
    rng = np.random.default_rng(k + delta % 97)
    X = rng.integers(1, delta + 1, size=(k, 3))
    X[k // 2:] = X[:k - k // 2]
    pts = rng.integers(1, delta + 1, size=(500, 3)).astype(np.float64)
    pts += {"integral": 0.0, "half": 0.5, "jittered": rng.normal(size=pts.shape)}[kind]
    want = ref.nearest(pts, X)
    lazy, typed = geometry._Rows(X.astype(np.float64)), geometry._Rows(X)
    assert lazy._integral is None and typed._integral is True
    for cen in (X, typed, lazy):
        for points in (pts, geometry._Rows(pts)):
            got = geometry._nearest(points, cen)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            dist, index = geometry._nearest(points, cen, index=False)
            assert np.array_equal(dist, want[0]) and index is None
        assert took_grid_pass(pts, cen, monkeypatch) == (kind == "integral" and delta == 64)
    assert lazy._integral is True


def test_unprepared_centers_are_checked_for_finiteness():
    pts = np.ones((4, 2))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(geometry.InvalidInput, match="finite"):
            geometry._nearest(pts, np.array([[1.0, 1.0], [bad, 0.0]]))


def grid_decisions(points, centers, monkeypatch):
    """The grid decision of each chunk of ``_nearest`` on ``points`` (any
    input it takes) against ``centers``, in row order."""
    decisions, grid_chunk = [], geometry._grid_chunk

    def spy(*args):
        decisions.append(bool(grid_chunk(*args)))
        return decisions[-1]

    with monkeypatch.context() as m:
        m.setattr(geometry, "_grid_chunk", spy)
        geometry._nearest(points, centers)
    return decisions


def took_grid_pass(points, centers, monkeypatch):
    """Whether every chunk of ``_nearest`` on ``points`` against ``centers``
    takes the grid pass. One center off the grid takes the direct form, and
    its chunks decide against the grid as a filtered chunk does."""
    decisions = grid_decisions(points, centers, monkeypatch)
    return bool(decisions) and all(decisions)


def assert_grid_pass_exact(points, center_sets, monkeypatch, grid_pass):
    """``_nearest`` on ``points``, on their prepared rows and on rows that
    carry their column operand against the reference, both outputs bit for
    bit and with and without the index, each of ``center_sets`` (lists of
    row indices) taking its turn as the centers, as a seed or the
    sensitivity pass has them. The grid pass
    must run when ``grid_pass`` holds, and must not otherwise."""
    rows = geometry._Rows(np.asarray(points).astype(np.float64))
    for idx in center_sets:
        cen = rows.points[list(idx)]
        want = ref.nearest(points, cen)
        for p in (points, rows, operand_rows(points)):
            got = geometry._nearest(p, cen)
            assert got[1].dtype == np.int64
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            dist, index = geometry._nearest(p, cen, index=False)
            assert np.array_equal(dist, want[0]) and index is None
            assert took_grid_pass(p, cen, monkeypatch) == grid_pass


def rows_at_the_grid_bound(d):
    """The top row against itself has (|p| + |c|)^2 = 2^52: the largest
    rows the grid pass takes, next to small ones and ones just below the
    top."""
    top = 2 ** 25 // math.isqrt(d)
    rng = np.random.default_rng(d)
    pts = np.vstack([np.full((1, d), top), top - rng.integers(0, 3, size=(40, d)),
                     rng.integers(1, top + 1, size=(40, d)), np.ones((1, d), np.int64)])
    assert 4 * np.einsum("ij,ij->i", pts.astype(np.float64), pts).max() == 2.0 ** 52
    return pts


def rows_just_above_the_grid_bound():
    """(|p| + |c|)^2 passes 2^52 for the top rows, so every call takes the
    block loop; next to them are rows near 2^27, whose expanded form rounds
    away from the direct one, so only the bound keeps the grid pass out."""
    rng = np.random.default_rng(27)
    pts = np.concatenate([[2 ** 25, 2 ** 25 + 1, 2 ** 25 - 1, 1],
                          2 ** 27 + 2 * rng.integers(0, 2 ** 20, size=40) + 1])[:, None]
    assert 4.0 * (2 ** 25 + 1) ** 2 > 2.0 ** 52
    fpts = pts.astype(np.float64)
    expanded = fpts[:, 0] ** 2 - 2.0 * fpts[:, 0] + 1.0
    assert not np.array_equal(expanded, ref.nearest(pts, fpts[[3]])[0])
    return pts


def spread_sets(n, k):
    """n center sets of k rows each: the top row (row 0), then row i and
    every seventh row after it, wrapping around."""
    return [[0, *((i + 7 * t) % n for t in range(k - 1))] for i in range(n)]


@pytest.mark.parametrize("d", [1, 4, 16])
def test_one_center_at_the_grid_bound(d, monkeypatch):
    pts = rows_at_the_grid_bound(d)
    assert_grid_pass_exact(pts, [[i] for i in range(len(pts))], monkeypatch, True)


def test_one_center_just_above_the_grid_bound(monkeypatch):
    pts = rows_just_above_the_grid_bound()
    assert_grid_pass_exact(pts, [[i] for i in range(len(pts))], monkeypatch, False)


@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("d", [1, 4, 16])
def test_centers_at_the_grid_bound(d, k, monkeypatch):
    pts = rows_at_the_grid_bound(d)
    assert_grid_pass_exact(pts, spread_sets(len(pts), k), monkeypatch, True)


@pytest.mark.parametrize("k", [2, 5])
def test_centers_just_above_the_grid_bound(k, monkeypatch):
    pts = rows_just_above_the_grid_bound()
    # with only the row at 1 as centers, too: the large rows alone pass
    # the bound
    sets = spread_sets(len(pts), k) + [[3] * k]
    assert_grid_pass_exact(pts, sets, monkeypatch, False)


def test_one_center_on_a_d16_grid(monkeypatch):
    # the shape the benchmark's compress workload seeds on, Delta = 2^10
    rng = np.random.default_rng(16)
    pts = rng.integers(1, 2 ** 10 + 1, size=(2000, 16))
    pts[0] = 2 ** 10
    assert_grid_pass_exact(pts, [[0], *([i] for i in rng.integers(0, 2000, size=5))],
                           monkeypatch, True)


@pytest.mark.parametrize("d", [1, 4, 16])
def test_fractional_rows_against_integral_centers(d, monkeypatch):
    # the first rows are integral grid points and serve as the centers; the
    # rest are grid points plus Gaussian jitter, so the rows as a whole are
    # not integral and no call takes the grid pass, whose expanded form
    # would round away from the direct one on most of them
    rng = np.random.default_rng(40 + d)
    grid = rng.integers(1, 2 ** 10 + 1, size=(600, d))
    pts = grid + rng.normal(size=grid.shape)
    pts[:9] = grid[:9]
    assert_grid_pass_exact(pts, [[0], range(4), range(9)], monkeypatch, False)


@pytest.mark.parametrize("k", [2, 8, 32, 255, 256, 257])
def test_grid_pass_for_any_number_of_centers(k, monkeypatch):
    # the pass keeps its index in uint8 up to k = 256 and in uint16 from
    # 257; the last center is the strict nearest of its own row, so an
    # index too narrow for k - 1 shows
    rng = np.random.default_rng(k)
    n = max(k + 10, 6000 // k)
    pts = rng.integers(1, 2 ** 10 + 1, size=(n, 3))
    idx = rng.choice(n, size=k, replace=False)
    assert (ref.nearest(pts, pts[idx])[1] == k - 1).any()
    assert_grid_pass_exact(pts, [idx], monkeypatch, True)


@pytest.mark.parametrize("k", [2, 9, 300])
def test_grid_pass_ties_go_to_the_lowest_index(k, monkeypatch):
    # coordinates in {0, ..., 3}: most rows are equally far from several
    # centers, and every center appears twice, in shuffled places
    rng = np.random.default_rng(k)
    pts = rng.integers(0, 4, size=(max(60, 6000 // k), 2))
    idx = np.repeat(rng.integers(0, len(pts), size=(k + 1) // 2), 2)[:k]
    rng.shuffle(idx)
    dist = ((pts[:, None, :] - pts[idx][None]) ** 2).sum(axis=2)
    assert ((dist == dist.min(axis=1, keepdims=True)).sum(axis=1) > 1).mean() > 0.5
    assert_grid_pass_exact(pts, [idx], monkeypatch, True)


@pytest.mark.parametrize("n", [6, 7, 8, 17])
@pytest.mark.parametrize("k", [1, 5])
def test_grid_pass_across_chunks(monkeypatch, k, n):
    # chunks of 7 rows: n at one chunk less one row, one chunk, one more
    # row, and two chunks and three rows; then chunks of one row, when the
    # bound is below k
    rng = np.random.default_rng(n + k)
    pts = rng.integers(0, 4, size=(n, 2))
    sets = [rng.integers(0, n, size=k) for _ in range(3)]
    for values in (7 * k, k - 1):
        monkeypatch.setattr(geometry, "_GRID_VALUES", values)
        assert_grid_pass_exact(pts, sets, monkeypatch, True)


@pytest.mark.parametrize("k", [200, 300])
def test_grid_pass_with_fewer_rows_than_centers(k, monkeypatch):
    # a few integral rows against hundreds of integral centers, the snap's
    # shape when every cluster mean is integral, where each chunk has fewer
    # rows than centers. Coordinates in
    # {0, ..., 3} make most rows tie between duplicate centers. Chunks of
    # 8 rows, of one row and of 3, then 400 rows in chunks of 250 and 150,
    # so a chunk at or above k is followed by one below it
    rng = np.random.default_rng(k)
    cen = rng.integers(0, 4, size=(k, 2)).astype(np.float64)
    pts = rng.integers(0, 4, size=(400, 2))
    dist = ((pts[:8, None, :] - cen[None]) ** 2).sum(axis=2)
    assert ((dist == dist.min(axis=1, keepdims=True)).sum(axis=1) > 1).all()
    for rows, values in ((pts[:8], 2 ** 19), (pts[:8], 1), (pts[:8], 3 * k),
                         (pts, 250 * k)):
        monkeypatch.setattr(geometry, "_GRID_VALUES", values)
        assert_same_as_reference(rows, cen)
        assert took_grid_pass(rows, cen, monkeypatch)


def test_powers_of_zero_and_inf():
    # 0 of either sign is log 0 = -inf and exp(-inf) = 0, with no warning;
    # other values are the masked form's, bit for bit
    x = np.array([0.0, -0.0, np.inf, 2.0, 5e-324, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = geometry.powered_distances(x, Fraction(3, 2))
    assert got[:3].tolist() == [0.0, 0.0, np.inf] and not np.signbit(got).any()
    rng = np.random.default_rng(32)
    x = np.r_[0.0, rng.integers(0, 2 ** 20, size=1001) * 2.0 ** rng.integers(-40, 40, size=1001)]
    for z in (Fraction(3, 2), Fraction(3), Fraction(5, 3)):
        want = np.zeros_like(x)
        want[x > 0] = np.exp(float(z) / 2 * np.log(x[x > 0]))
        assert np.array_equal(geometry.powered_distances(x, z), want)


class AdversarialGemm:
    """numpy for ``geometry``, but with the worst GEMM that the filter
    proof of ``_nearest`` covers: every entry of a ``matmul`` product, a
    d-term dot product of a row x and a column y, moves by ``gamma_d |x|
    |y| + d eta``, the most that any summation order can err by (with
    ``eta = 2^-1075`` per product that underflows). It moves against the
    direct form's nearest center of each row, found by the scalar
    reference: that center's entry up, every other entry down. Every other
    name is numpy's."""

    def __init__(self, centers):
        self.centers = np.ascontiguousarray(centers, dtype=np.float64)

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, out=None):
        k = len(self.centers)
        product = np.matmul(a, b)
        # the kernel's two layouts: -2 C P^T, or -2 P C^T with fewer rows than centers
        if a.shape[0] == k and np.array_equal(a, -2.0 * self.centers):
            pts, along_rows = b.T, True
        else:
            pts, along_rows = a / -2.0, False
        _, nearest = ref.nearest(pts, self.centers)
        d, u = a.shape[1], 2.0 ** -53
        with np.errstate(under="ignore"):
            move = (d * u / (1 - d * u) * np.linalg.norm(a, axis=1)[:, None]
                    * np.linalg.norm(b, axis=0)[None, :] + d * 2.0 ** -1075)
        sign = -np.ones(product.shape)
        rows = np.arange(len(nearest))
        sign[(nearest, rows) if along_rows else (rows, nearest)] = 1.0
        product += sign * move
        if out is None:
            return product
        out[...] = product
        return out


@pytest.mark.parametrize("chunks", [1, 43])
@pytest.mark.parametrize("index", [True, False])
@pytest.mark.parametrize("scale", [1e-160, 1e-100, 1.0, 1e6, 1e150])
def test_filter_against_an_adversarial_gemm(monkeypatch, scale, index, chunks):
    # rows within 1e-15 scale of the midpoint of two centers, where the
    # expanded form cannot tell them apart, from squared distances that are
    # subnormal to squares near 1e303; with 43 chunks of 7 rows the product
    # takes the (rows, k) layout against 8 and 32 centers
    rng = np.random.default_rng([round(math.log10(scale)) + 200, index, chunks])
    for d, k in itertools.product((2, 8, 16, 64), (3, 8, 32)):
        cen = rng.normal(size=(k, d)) * scale
        i, j = rng.choice(k, size=2, replace=False)
        pts = (cen[i] + cen[j]) / 2 + rng.normal(size=(300, d)) * 1e-15 * scale
        with np.errstate(under="ignore"):
            want = ref.nearest(pts, cen)
        chunk_rows(monkeypatch, len(pts), k, d, chunks)
        with monkeypatch.context() as m, np.errstate(under="ignore"):
            m.setattr(geometry, "np", AdversarialGemm(cen))
            got = geometry._nearest(pts, cen, index=index)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1]) if index else got[1] is None


class GemmSpy:
    """numpy for ``geometry``, with the inner dimension of each ``matmul``
    recorded in ``widths``: d + 1 where the kernel folds |c|^2 into its
    product, d where it adds |c|^2 apart. Every other name is numpy's."""

    def __init__(self):
        self.widths = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, out=None):
        self.widths.append(a.shape[1])
        return np.matmul(a, b, out=out)


class ReorderedGemm(GemmSpy):
    """A :class:`GemmSpy` whose ``matmul`` sums each dot product of its
    operands in another order than numpy's: from the last term to the
    first, or pairwise, each half summed before the two halves are added.
    On the grid pass every product and every partial sum, |c|^2 folded in
    or not, is an integer of magnitude at most 2^53, exact in any order, so
    no order may change an output."""

    def __init__(self, order: str):
        super().__init__()
        self.order = order

    def matmul(self, a, b, out=None):
        self.widths.append(a.shape[1])
        product = self.summed(a[:, :, None] * b[None, :, :])
        if out is None:
            return product
        out[...] = product
        return out

    def summed(self, terms):
        """The sum of ``terms`` over its axis 1, in this stand-in's order."""
        if self.order == "reversed":
            total = terms[:, -1].copy()
            for j in range(terms.shape[1] - 2, -1, -1):
                total += terms[:, j]
            return total
        if terms.shape[1] == 1:
            return terms[:, 0].copy()
        half = terms.shape[1] // 2
        return self.summed(terms[:, :half]) + self.summed(terms[:, half:])


@pytest.mark.parametrize("chunks", [1, 7])
@pytest.mark.parametrize("index", [True, False])
@pytest.mark.parametrize("order", ["reversed", "pairwise"])
def test_grid_pass_in_any_summation_order(monkeypatch, order, index, chunks):
    # integral rows and centers on {0..3}^d, at the origin and shifted by
    # 2^20, where the products reach 2^40 and the grid bound still holds;
    # centers 0 and 1 coincide, so many rows tie. With 7 chunks of 43 rows
    # the product takes the (rows, k) layout against 64 centers. The same
    # rows with their column operand fold |c|^2 into a (k, d + 1) by
    # (d + 1, rows) product wherever a chunk has at least k rows
    rng = np.random.default_rng([index, chunks])
    gemm = ReorderedGemm(order)
    x, y = rng.normal(size=(5, 64)), rng.normal(size=(64, 5))
    assert not np.array_equal(gemm.matmul(x, y), x @ y)
    for d, k, base in itertools.product((1, 3, 16, 64), (2, 8, 64), (0, 2 ** 20)):
        cen = base + rng.integers(0, 4, size=(k, d)).astype(np.float64)
        cen[1] = cen[0]
        pts = base + rng.integers(0, 4, size=(300, d))
        want = ref.nearest(pts, cen)
        step = chunk_rows(monkeypatch, len(pts), k, d, chunks)
        sizes = [len(pts[lo:lo + step]) for lo in range(0, len(pts), step)]
        for points in (pts, operand_rows(pts)):
            gemm.widths.clear()
            with monkeypatch.context() as m:
                m.setattr(geometry, "np", gemm)
                got = geometry._nearest(points, cen, index=index)
            assert gemm.widths == [d + (points is not pts and k <= r) for r in sizes]
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1]) if index else got[1] is None


@pytest.mark.parametrize("past", [0, 1])
def test_operand_rows_on_the_grid_corners_at_d16(past, monkeypatch):
    # corners of [1, top]^16 as a decoded sketch's rows, with top = 2^23:
    # the all-top corner against itself has (|p| + |c|)^2 = 2^52, the grid
    # bound with equality, so every call takes the grid pass, |c|^2 folded
    # in; most rows tie among equal centers. One step past it, top = 2^23 +
    # 1, the bound fails and every chunk must filter
    d, top = 16, 2 ** 23 + past
    rng = np.random.default_rng(16 + past)
    pts = np.where(rng.random((200, d)) < 0.5, 1, top)
    pts[0], pts[1] = top, 1
    assert (4 * (pts[0].astype(np.float64) ** 2).sum() > 2.0 ** 52) == bool(past)
    sets = [[0], [0, 1], *spread_sets(len(pts), 5)[:20], list(range(40))]
    assert_grid_pass_exact(pts, sets, monkeypatch, not past)


@pytest.mark.parametrize("kind", ["integral", "half", "jittered"])
@pytest.mark.parametrize("k", [3, 40])
@pytest.mark.parametrize("chunks", [1, 4])
def test_operand_rows_across_chunks(monkeypatch, kind, k, chunks):
    # rows with their column operand on {1..4}^5, so that most rows tie,
    # against integral centers (the grid pass, |c|^2 folded in),
    # half-integral ones (the filter, ties) and jittered ones (the filter,
    # lone candidates). 120 rows in one chunk or in four of 30: with 40
    # centers each of the four has more centers than rows, takes the (rows,
    # k) layout and adds |c|^2 apart, with 3 every chunk folds on the grid
    rng = np.random.default_rng([k, chunks])
    pts = rng.integers(1, 5, size=(120, 5))
    cen = pts[rng.integers(0, len(pts), size=k)].astype(np.float64)
    cen += {"integral": 0.0, "half": 0.5, "jittered": rng.normal(scale=0.3, size=cen.shape)}[kind]
    step = chunk_rows(monkeypatch, len(pts), k, 5, chunks)
    assert_same_as_reference(pts, cen)
    gemm = GemmSpy()
    with monkeypatch.context() as m:
        m.setattr(geometry, "np", gemm)
        geometry._nearest(operand_rows(pts), cen)
    assert gemm.widths == [5 + (kind == "integral" and k <= step)] * chunks
    assert grid_decisions(operand_rows(pts), cen, monkeypatch) == [kind == "integral"] * chunks


@pytest.mark.parametrize("k", [1, 5, 20])
@pytest.mark.parametrize("n", [6, 7, 8, 15])
def test_refine_in_blocks(monkeypatch, n, k):
    # refine blocks of 7 rows of d = 9: n at one block less one row, one
    # block, one more row and two blocks and one row. Jittered centers, so
    # every row's value comes from the direct form: one center (no filter),
    # five with centers 0 and 3 equal (lone candidates and ties) and twenty,
    # more than the rows (the (rows, k) layout). One center needs more room
    # for a block than its (k, rows) matrix has
    monkeypatch.setattr(geometry, "_REFINE_VALUES", 7 * 9)
    rng = np.random.default_rng([n, k])
    pts = rng.integers(1, 65, size=(n, 9))
    cen = pts[rng.integers(0, n, size=k)] + rng.normal(size=(k, 9))
    if k > 1:
        cen[3] = cen[0]
    assert_same_as_reference(pts, cen)


@pytest.mark.parametrize("k", [1, 3])
def test_refine_rows_wider_than_a_block(k):
    # d above _REFINE_VALUES: each refine block is a single row, wider than
    # the block's budget
    rng = np.random.default_rng(k)
    d = geometry._REFINE_VALUES + 3
    pts = rng.integers(1, 65, size=(4, d))
    assert_same_as_reference(pts, pts[:k] + rng.normal(size=(k, d)))


@pytest.mark.parametrize("z", [Fraction(2), Fraction(3, 2)])
def test_sketch_rows_take_their_operand_after_the_first_estimate(z):
    # an exact-coordinate sketch's rows get their column operand once the
    # sketch's first estimate has its answer, not at decode: read-only,
    # contiguous, the points transposed and a row of ones. On those rows the
    # kernel's outputs and the estimates are the reference's, for integral
    # queries (|c|^2 folded in) and jittered ones. A quantized sketch's rows
    # never get one
    rng = np.random.default_rng(int(2 * z))
    pts = rng.integers(1, 65, size=(400, 6))
    config = ProblemConfig(n=400, d=6, k=3, z=z, delta=64, epsilon=0.2)
    sk = codec.encode(WeightedCoreset(pts, rng.random(400) + 0.5, 400), pts[:3], config)
    w, points, _ = sk.decode()
    rows = sk._decoded[1]
    assert sk.exact_coordinates and rows.cols is None
    queries = [pts[rng.integers(0, 400, size=5)].astype(np.float64),
               pts[:5] + rng.normal(size=(5, 6))]
    for i, q in enumerate(queries * 2):
        want = ref.nearest(points, q)
        assert (rows.cols is None) == (i == 0)
        assert sk.estimate_cost(q) == float(np.sum(w * geometry.powered_distances(want[0], z)))
        dist, index = geometry._nearest(rows, q)
        assert np.array_equal(dist, want[0]) and np.array_equal(index, want[1])
    assert rows.cols.flags.c_contiguous and not rows.cols.flags.writeable
    assert np.array_equal(rows.cols, np.vstack([points.T, np.ones((1, 400))]))
    config = ProblemConfig(n=400, d=6, k=3, z=z, delta=2 ** 40, epsilon=0.2)
    sk = codec.encode(WeightedCoreset(pts, np.ones(400), 400), pts[:3], config)
    for q in queries:
        sk.estimate_cost(q)
    assert not sk.exact_coordinates and sk._decoded[1].cols is None
