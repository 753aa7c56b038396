"""The grid layer against a dense reference built by loops over node indices.

Each reference visits the nodes of a 1-D or 2-D grid one at a time, in
row-major order, and writes the gradient rows, the boundary nodes, the
cell-origin nodes and the linear field entry by entry, without the
Kronecker products and slices the package uses.
"""

import itertools

import numpy as np
import pytest

from splitbreg.applications import _block_weights, boundary_mask, linear_field
from splitbreg.linops import GridSpec, gradient_operator, interior_gradient_operator

GRIDS = [
    GridSpec((2,)),
    GridSpec((3,)),
    GridSpec((17,), 0.3),
    GridSpec((2, 2)),
    GridSpec((3, 2)),
    GridSpec((2, 5), (4.0, 0.25)),
    GridSpec((5, 7), (0.5, 0.25)),
    GridSpec((9, 2), 0.7),
    GridSpec((12, 7), (0.5, 2.0)),
]


def _grid_id(grid):
    return "x".join(map(str, grid.shape)) + "_h" + "_".join(map(str, grid.spacing))


def _nodes(grid):
    """Node index tuples in row-major order."""
    return list(itertools.product(*(range(n) for n in grid.shape)))


def _flat(grid, idx):
    k = 0
    for i, n in zip(idx, grid.shape):
        k = k * n + i
    return k


def _cell_origins(grid):
    """The nodes that have a forward neighbour along every axis."""
    return [idx for idx in _nodes(grid)
            if all(i < n - 1 for i, n in zip(idx, grid.shape))]


def _reference_gradient(grid, ghost):
    """Row ``ndim * k + axis``: the forward difference along ``axis`` at origin ``k``."""
    origins = _nodes(grid) if ghost else _cell_origins(grid)
    dense = np.zeros((grid.ndim * len(origins), grid.n_nodes))
    for k, idx in enumerate(origins):
        for axis, h in enumerate(grid.spacing):
            row = grid.ndim * k + axis
            dense[row, _flat(grid, idx)] = -1.0 / h
            nxt = list(idx)
            nxt[axis] += 1
            if nxt[axis] < grid.shape[axis]:  # else the ghost value, zero
                dense[row, _flat(grid, nxt)] = 1.0 / h
    return dense


@pytest.mark.parametrize("grid", GRIDS, ids=_grid_id)
@pytest.mark.parametrize("make,ghost", [(gradient_operator, True),
                                        (interior_gradient_operator, False)],
                         ids=["ghost", "interior"])
def test_gradient_matches_the_node_loop(grid, make, ghost):
    L = make(grid)
    expected = _reference_gradient(grid, ghost)
    assert (L.codomain_dim, L.domain_dim) == expected.shape
    assert np.array_equal(L.matrix.toarray(), expected)


@pytest.mark.parametrize("grid", GRIDS, ids=_grid_id)
def test_boundary_mask_matches_the_node_loop(grid):
    expected = np.zeros(grid.n_nodes, dtype=bool)
    for idx in _nodes(grid):
        expected[_flat(grid, idx)] = any(i in (0, n - 1) for i, n in zip(idx, grid.shape))
    assert np.array_equal(boundary_mask(grid), expected)


@pytest.mark.parametrize("grid", GRIDS, ids=_grid_id)
def test_block_weights_sample_the_cell_origins(grid):
    sigma = np.random.default_rng(0).uniform(0.5, 2.0, grid.n_nodes)
    expected = [sigma[_flat(grid, idx)] for idx in _cell_origins(grid)]
    assert np.array_equal(_block_weights(grid, sigma), expected)


@pytest.mark.parametrize("grid", GRIDS, ids=_grid_id)
def test_linear_field_matches_the_node_loop(grid):
    for axis, n in enumerate(grid.shape):
        ramp = np.linspace(0.0, 1.0, n)
        expected = np.zeros(grid.n_nodes)
        for idx in _nodes(grid):
            expected[_flat(grid, idx)] = ramp[idx[axis]]
        assert np.array_equal(linear_field(grid, axis=axis), expected)
