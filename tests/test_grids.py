"""The multilinear sampler against two oracles: a per-point, per-corner loop and the explicit bilinear formula.

A 3D grid is sampled sparse and its oracle reads the dense twin, where every voxel not stored holds ``background``.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semnav.barrier import CbfParams, build_cbf_field
from semnav.grids import Grid2D, sample_multilinear

from conftest import dense, plain_edf, sparse


def corner_loop(grid, point) -> tuple[float, bool]:
    """Interpolated value and clamp flag at one point, in Python floats, one corner at a time.

    Each axis clamps its index to [0, n - 1] before taking the cell below it. Each corner's term is
    its value times its per-axis weights in axis order, and the terms are summed from the first in
    corner order, the first axis fastest: the sampler's order of operations, so the two agree bit
    for bit.
    """
    base, frac, clamped = [], [], False
    for a, n in enumerate(grid.values.shape):
        i = (float(point[a]) - float(grid.origin[a])) / grid.resolution - 0.5
        clamped = clamped or not 0.0 <= i <= n - 1
        i = min(max(i, 0.0), n - 1.0)
        b = min(math.floor(i), n - 2)
        base.append(b)
        frac.append(i - b)
    value = None
    for corner in itertools.product((0, 1), repeat=len(base)):
        corner = corner[::-1]
        term = float(grid.values[tuple(b + bit for b, bit in zip(base, corner))])
        for bit, f in zip(corner, frac):
            term *= f if bit else 1.0 - f
        value = term if value is None else value + term
    return value, clamped


def bilinear_formula(grid: Grid2D, x, y):
    """The explicit bilinear formula the barrier was sampled with before the multilinear sampler."""
    ix = (np.asarray(x) - grid.origin[0]) / grid.resolution - 0.5
    iy = (np.asarray(y) - grid.origin[1]) / grid.resolution - 0.5
    nx, ny = grid.dims
    clamped = (ix < 0.0) | (ix > nx - 1) | (iy < 0.0) | (iy > ny - 1)
    ix = np.clip(ix, 0.0, nx - 1)
    iy = np.clip(iy, 0.0, ny - 1)
    x0 = np.clip(np.floor(ix).astype(int), 0, nx - 2)
    y0 = np.clip(np.floor(iy).astype(int), 0, ny - 2)
    fx = ix - x0
    fy = iy - y0
    v = (
        grid.values[x0, y0] * (1 - fx) * (1 - fy)
        + grid.values[x0 + 1, y0] * fx * (1 - fy)
        + grid.values[x0, y0 + 1] * (1 - fx) * fy
        + grid.values[x0 + 1, y0 + 1] * fx * fy
    )
    return v, clamped


def random_points(grid, rng, n: int) -> np.ndarray:
    """Points on and well off the grid, plus every cell centre of the grid's corners and edges."""
    lo = grid.origin
    hi = lo + np.array(grid.dims) * grid.resolution
    span = hi - lo
    inside = rng.uniform(lo, hi, size=(n, lo.size))
    around = rng.uniform(lo - span, hi + span, size=(n, lo.size))
    centres = lo + (np.array(list(itertools.product(*[(0, n - 1) for n in grid.dims]))) + 0.5) * grid.resolution
    edges = lo + np.array(list(itertools.product(*[(0.0, n) for n in grid.dims]))) * grid.resolution
    return np.concatenate([inside, around, centres, edges])


def assert_matches_corner_loop(grid, oracle_grid, pts):
    got, clamped = sample_multilinear(grid, pts)
    assert got.shape == clamped.shape == (len(pts),)
    want = [corner_loop(oracle_grid, p) for p in pts]
    assert got.tobytes() == np.array([v for v, _ in want]).tobytes()
    assert clamped.tolist() == [c for _, c in want]
    assert clamped.any() and not clamped.all()


@pytest.mark.parametrize("dims", [(7, 5), (2, 2), (6, 4, 3), (2, 2, 2)])
def test_matches_corner_loop(dims):
    rng = np.random.default_rng(sum(dims))
    values = rng.normal(size=dims)
    origin = np.round(rng.uniform(-2.0, 2.0, size=len(dims)) / 0.05) * 0.05
    if len(dims) == 2:
        grid = oracle_grid = Grid2D(origin=origin, resolution=0.05, values=values)
    else:
        grid = sparse(origin, 0.05, values, np.ones(dims))
        oracle_grid = dense(grid)
        assert oracle_grid.values.tobytes() == values.tobytes()
    assert_matches_corner_loop(grid, oracle_grid, random_points(grid, rng, 300))


@settings(max_examples=40)
@given(st.tuples(st.integers(2, 7), st.integers(2, 7), st.integers(2, 7)), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1))
def test_sparse_grid_matches_corner_loop_on_dense_twin(dims, stored, seed):
    # a random subset of voxels is stored; corners off it read the background, on and off the grid
    rng = np.random.default_rng(seed)
    weights = np.where(rng.uniform(size=dims) < stored, rng.uniform(0.5, 3.0, size=dims), 0.0)
    origin = np.round(rng.uniform(-2.0, 2.0, size=3) / 0.05) * 0.05
    grid = sparse(origin, 0.05, rng.normal(size=dims), weights, background=0.3)
    assert grid.keys.size == np.count_nonzero(weights)
    assert_matches_corner_loop(grid, dense(grid), random_points(grid, rng, 100))


@pytest.mark.parametrize("dims", [(1, 6), (6, 1), (1, 4, 3), (4, 3, 1)])
def test_one_cell_axis_reads_its_cell(dims):
    # both corners of a one-cell axis are that cell: the grid samples as its two-cell copy does
    rng = np.random.default_rng(len(dims))
    values = rng.normal(size=dims)
    axis = dims.index(1)
    origin = np.zeros(len(dims))
    make = (lambda v: Grid2D(origin=origin, resolution=0.05, values=v)) if len(dims) == 2 else (
        lambda v: sparse(origin, 0.05, v, np.ones(v.shape)))
    one, two = make(values), make(np.repeat(values, 2, axis=axis))
    pts = random_points(two, rng, 200)
    got, clamped = sample_multilinear(one, pts)
    want, _ = sample_multilinear(two, pts)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert np.all(clamped[pts[:, axis] > origin[axis] + 0.05])


@settings(max_examples=30)
@given(st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4), st.integers(2, 6), st.integers(2, 6),
       st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_reproduces_affine_fields_inside_the_domain(coef, nx, ny, nz, seed):
    # an affine function of the cell centres is interpolated exactly between them
    res, dims = 0.1, (nx, ny, nz)
    origin = np.array([0.3, -0.2, 0.0])
    centres = np.stack(np.meshgrid(*[(np.arange(n) + 0.5) * res for n in dims], indexing="ij"), axis=-1) + origin
    grid = sparse(origin, res, centres @ coef[:3] + coef[3], np.ones(dims))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(origin + 0.5 * res, origin + (np.array(dims) - 0.5) * res, size=(50, 3))
    got, clamped = sample_multilinear(grid, pts)
    np.testing.assert_allclose(got, pts @ coef[:3] + coef[3], rtol=0.0, atol=1e-12)
    assert not clamped.any()


def test_barrier_grid_matches_bilinear_formula_bitwise():
    # the barrier keeps its bits: the sampler equals the explicit formula on a built CbfField grid
    params = CbfParams()
    values = np.full((64, 48), 1.0)
    values[20:24, 10:40] = 0.0
    values[40, 5:30] = 0.1
    m25 = Grid2D.full((-1.0, -0.5), 0.05, values.shape, 0.0)
    m25.values[:] = values
    field = build_cbf_field(plain_edf(m25, params.theta_zero, params), params)
    rng = np.random.default_rng(3)
    pts = random_points(field.grid, rng, 2000)
    got, clamped = sample_multilinear(field.grid, pts)
    want, want_clamped = bilinear_formula(field.grid, pts[:, 0], pts[:, 1])
    assert np.array_equal(got, want) and np.array_equal(clamped, want_clamped)
    assert np.array_equal(field.query(pts)[0], want)
    assert [field.query_h_checked(x, y) for x, y in pts.tolist()] == list(zip(want.tolist(), want_clamped.tolist()))
