"""The filter-and-refine distance kernel against the scalar per-center
reference in ``nearest_reference``: both outputs must be equal bit for bit,
ties, overflow and underflow included."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nearest_reference as ref
from kzsketch import geometry

# (point, center) pairs per example, so the scalar reference stays fast
MAX_PAIRS = 12_000

# magnitudes where |p|^2 and 2 p.c overflow (>= 1e155) or underflow
# (<= 1e-155) in the expanded form, next to ordinary ones
SCALES = [1.0, 1e-300, 1e-200, 1e-160, 1e-155, 1e155, 1e160, 1e200, 1e300]


def assert_same_as_reference(points, centers):
    with warnings.catch_warnings():
        # squares that overflow warn in both kernels alike
        warnings.simplefilter("ignore", RuntimeWarning)
        want = ref.nearest(points, centers)
        got = geometry._nearest(points, centers)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@st.composite
def kernel_inputs(draw):
    """Points and centers of one of five kinds, at one magnitude.

    ``gauss``: independent Gaussians. ``grid``: coordinates in {0, 1, 2, 3},
    so exact ties are common. ``rows``: centers copied from data rows, half
    of them duplicated. ``near``: near-duplicates at scale 1e6, far below
    the expanded form's resolution. ``int``: int64 grid points, as
    ``GridDataset`` holds them, with centers on data rows."""
    k = draw(st.integers(1, 64))
    n = min(draw(st.integers(1, 2000)), max(1, MAX_PAIRS // k))
    d = draw(st.integers(1, 512))
    kind = draw(st.sampled_from(["gauss", "grid", "rows", "near", "int"]))
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
        return pts, pts[rng.integers(0, n, size=k)].astype(np.float64)
    return pts * scale, cen * scale


@given(kernel_inputs())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_scalar_reference(case):
    assert_same_as_reference(*case)


def test_rows_across_blocks():
    # more rows than one block, with ties between duplicate centers
    rng = np.random.default_rng(3)
    pts = rng.integers(0, 4, size=(2 * geometry._BLOCK + 3, 3)).astype(np.float64)
    cen = np.vstack([pts[:2], pts[:1]])
    assert_same_as_reference(pts, cen)


@pytest.mark.parametrize("scale", [1e-162, 1e-160, 1e-158])
def test_ties_among_subnormal_distances(scale):
    # small-integer grids whose squared distances are subnormal: the
    # expanded form's underflow errors hide exact ties of the direct form,
    # which the bound's absolute term must catch
    rng = np.random.default_rng(6)
    pts = rng.integers(-20, 21, size=(1500, 2)) * scale
    cen = rng.integers(-20, 21, size=(8, 2)) * scale
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
