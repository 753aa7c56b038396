"""Kernels and stencils against loop references.

Each kernel has one implementation.  The shrinkage kernels are checked
against loop forms kept below as the reference; the taut-string walk is
itself a loop and is checked against the tube it must stay in.  The
finite-difference stencils are the CSR matrices of
``gradient_operator`` / ``interior_gradient_operator``; under their
former kernel names they are checked entry by entry against loop forms
of the stencil and against the operator's own matrix.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitbreg import kernels
from splitbreg.kernels import _norm
from splitbreg.linops import GridSpec, gradient_operator, interior_gradient_operator


def _soft_threshold_loop(x, thresh):
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        a = abs(x[i]) - thresh[i]
        if a > 0.0:
            out[i] = a if x[i] > 0.0 else -a
        else:
            out[i] = 0.0
    return out


def _block_shrink_loop(y, thresh, block_size):
    n_blocks = y.shape[0] // block_size
    out = np.empty_like(y)
    for b in range(n_blocks):
        s = 0.0
        base = b * block_size
        for j in range(block_size):
            s += y[base + j] * y[base + j]
        nrm = np.sqrt(s)
        if nrm > thresh[b]:
            scale = 1.0 - thresh[b] / nrm
            for j in range(block_size):
                out[base + j] = y[base + j] * scale
        else:
            for j in range(block_size):
                out[base + j] = 0.0
    return out


def _taut_string_in_tube(lo, hi):
    """The walk's string stays in the tube and ends at the pinned endpoint."""
    slopes = kernels.taut_string_slopes(lo, hi)
    string = lo[0] + np.concatenate([[0.0], np.cumsum(slopes)])
    return (np.all(string >= lo - 1e-12) and np.all(string <= hi + 1e-12)
            and abs(string[-1] - lo[-1]) <= 1e-12)


# kernel name -> loop reference (the taut string has no second form)
_KERNEL_LOOPS = {
    "soft_threshold": _soft_threshold_loop,
    "block_shrink": _block_shrink_loop,
    "taut_string_slopes": None,
}


def _grad_dirichlet_1d(u, h):
    n = u.shape[0]
    out = np.empty(n)
    for i in range(n - 1):
        out[i] = (u[i + 1] - u[i]) / h
    out[n - 1] = -u[n - 1] / h
    return out


def _neg_div_dirichlet_1d(v, h):
    n = v.shape[0]
    out = np.empty(n)
    out[0] = -v[0] / h
    for j in range(1, n):
        out[j] = (v[j - 1] - v[j]) / h
    return out


def _grad_interior_1d(u, h):
    return np.array([(u[i + 1] - u[i]) / h for i in range(u.shape[0] - 1)])


def _neg_div_interior_1d(v, h):
    m = v.shape[0]
    out = np.empty(m + 1)
    out[0] = -v[0] / h
    for j in range(1, m):
        out[j] = (v[j - 1] - v[j]) / h
    out[m] = v[m - 1] / h
    return out


def _grad_dirichlet_2d(u, n1, n2, h1, h2):
    out = np.empty(2 * n1 * n2)
    for i in range(n1):
        for j in range(n2):
            idx = i * n2 + j
            out[2 * idx] = (u[idx + n2] - u[idx]) / h1 if i < n1 - 1 else -u[idx] / h1
            out[2 * idx + 1] = (u[idx + 1] - u[idx]) / h2 if j < n2 - 1 else -u[idx] / h2
    return out


def _neg_div_dirichlet_2d(v, n1, n2, h1, h2):
    out = np.empty(n1 * n2)
    for a in range(n1):
        for b in range(n2):
            idx = a * n2 + b
            acc = -v[2 * idx] / h1 - v[2 * idx + 1] / h2
            if a > 0:
                acc += v[2 * (idx - n2)] / h1
            if b > 0:
                acc += v[2 * (idx - 1) + 1] / h2
            out[idx] = acc
    return out


def _grad_interior_2d(u, n1, n2, h1, h2):
    m2 = n2 - 1
    out = np.empty(2 * (n1 - 1) * m2)
    for i in range(n1 - 1):
        for j in range(m2):
            idx, k = i * n2 + j, i * m2 + j
            out[2 * k] = (u[idx + n2] - u[idx]) / h1
            out[2 * k + 1] = (u[idx + 1] - u[idx]) / h2
    return out


def _neg_div_interior_2d(v, n1, n2, h1, h2):
    m2 = n2 - 1
    out = np.zeros(n1 * n2)
    for i in range(n1 - 1):
        for j in range(m2):
            idx, k = i * n2 + j, i * m2 + j
            d1, d2 = v[2 * k] / h1, v[2 * k + 1] / h2
            out[idx] -= d1 + d2
            out[idx + n2] += d1
            out[idx + 1] += d2
    return out


# name -> (loop stencil, operator factory, grid, adjoint side?)
_GRID_1D, _GRID_2D = GridSpec((17,), 0.7), GridSpec((5, 7), (0.5, 0.25))
_STENCILS = {
    "grad_dirichlet_1d": (_grad_dirichlet_1d, gradient_operator, _GRID_1D, False),
    "neg_div_dirichlet_1d": (_neg_div_dirichlet_1d, gradient_operator, _GRID_1D, True),
    "grad_interior_1d": (_grad_interior_1d, interior_gradient_operator, _GRID_1D, False),
    "neg_div_interior_1d": (_neg_div_interior_1d, interior_gradient_operator, _GRID_1D, True),
    "grad_dirichlet_2d": (_grad_dirichlet_2d, gradient_operator, _GRID_2D, False),
    "neg_div_dirichlet_2d": (_neg_div_dirichlet_2d, gradient_operator, _GRID_2D, True),
    "grad_interior_2d": (_grad_interior_2d, interior_gradient_operator, _GRID_2D, False),
    "neg_div_interior_2d": (_neg_div_interior_2d, interior_gradient_operator, _GRID_2D, True),
}


def _stencil_outputs(name, rng):
    """(operator output, loop stencil output, dense matrix product) on one random input."""
    loop, make, grid, adjoint = _STENCILS[name]
    L = make(grid)
    x = rng.standard_normal(L.codomain_dim if adjoint else L.domain_dim)
    dense = L.matrix.toarray()
    args = (*grid.shape, *grid.spacing) if grid.ndim == 2 else grid.spacing
    op = L.adjoint_apply if adjoint else L.apply
    return op(x), loop(x, *args), (dense.T if adjoint else dense) @ x


def _args_for(name, rng):
    if name == "soft_threshold":
        return (rng.standard_normal(64), np.abs(rng.standard_normal(64)))
    if name == "block_shrink":
        return (rng.standard_normal(64), np.abs(rng.standard_normal(32)), 2)
    if name == "taut_string_slopes":
        return _tube(rng.standard_normal(40), 0.3)
    raise AssertionError(name)


def _tube(y, width):
    r = np.concatenate([[0.0], np.cumsum(y)])
    lo, hi = r - width, r + width
    lo[0] = hi[0] = r[0]
    lo[-1] = hi[-1] = r[-1]
    return (lo, hi)


def _edge_args(name):
    """Inputs on the kernels' case boundaries: zeros, ties, zero thresholds."""
    if name == "soft_threshold":
        x = np.array([0.0, -0.0, 1.5, -1.5, 2.0, -2.0, 0.25, -3.0, 1e-300])
        t = np.array([0.0, 0.0, 1.5, 1.5, 0.0, 0.0, 1.0, 2.5, 0.0])
        return [(x, t)]
    if name == "block_shrink":
        y = np.array([0.0, 0.0, 3.0, 4.0, -3.0, 4.0, 1.0, -1.0, 0.0, 2.0, 0.0, 0.0])
        return [(y, np.array([0.0, 5.0, 1.0, 0.5, 0.0, 1.0]), 2),
                (y, np.array([0.0, 5.0, 2.0, 1.0]), 3),
                (y, np.abs(y), 1)]
    # a zero-width tube pins the string to its centre line; width 0.5 on
    # a single step leaves only the pinned endpoints
    return [_tube(np.array([1.0, -2.0, 0.5, 0.5, 3.0]), 0.0), _tube(np.array([2.0]), 0.5)]


@pytest.mark.parametrize("name", sorted(_KERNEL_LOOPS) + sorted(_STENCILS))
def test_loop_and_numpy_paths_agree(name):
    rng = np.random.default_rng(11)
    if name in _STENCILS:
        # the loop stencil against the vectorized path, a sparse matvec
        out, loop_out, _ = _stencil_outputs(name, rng)
        assert np.allclose(out, loop_out, rtol=1e-14, atol=1e-14)
        return
    args = _args_for(name, rng)
    if _KERNEL_LOOPS[name] is None:
        assert _taut_string_in_tube(*args)
        return
    assert np.array_equal(_KERNEL_LOOPS[name](*args), getattr(kernels, name)(*args))


@pytest.mark.parametrize("name", sorted(_KERNEL_LOOPS) + sorted(_STENCILS))
def test_active_path_matches_numpy(name):
    rng = np.random.default_rng(7)
    if name in _STENCILS:
        # the apply/adjoint fields the solvers call match the matrix the
        # u-step factorizes, multiplied out densely
        out, _, dense_out = _stencil_outputs(name, rng)
        assert np.allclose(out, dense_out, rtol=1e-14, atol=1e-14)
        return
    # the one kernel path on its case boundaries
    for args in _edge_args(name):
        if _KERNEL_LOOPS[name] is None:
            assert _taut_string_in_tube(*args)
        else:
            assert np.array_equal(_KERNEL_LOOPS[name](*args), getattr(kernels, name)(*args))


# magnitudes from 1e-300 to 1e300, either sign, and the special values
_MAGNITUDE = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0), st.integers(-300, 299))
_ENTRY = st.one_of(_MAGNITUDE, _MAGNITUDE.map(lambda v: -v),
                   st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))
_THRESH = st.one_of(_MAGNITUDE, st.just(0.0))


@settings(max_examples=500, deadline=None)
@given(pairs=st.lists(st.tuples(_ENTRY, _THRESH), min_size=1, max_size=16))
@example(pairs=[(1.5, 1.5), (-1.5, 1.5), (-0.0, 0.0), (1e300, 1e300), (-1e300, 1e300),
                (np.inf, 0.0), (-np.inf, 1.0), (np.nan, 0.0)])
def test_soft_threshold_is_sign_times_shrunk_magnitude(pairs):
    # three ufuncs against the textbook form: equal up to the sign of a zero
    # (array_equal counts -0.0 == 0.0), with nan where the textbook has nan
    x, t = (np.array(v) for v in zip(*pairs))
    with np.errstate(invalid="ignore", over="ignore"):
        reference = np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
        assert np.array_equal(kernels.soft_threshold(x, t), reference, equal_nan=True)


_SCALE_MAGNITUDE = st.sampled_from([0.0, 1e-170, 3e-170, 1.0, 1e200, 3e200, 1e300])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), block_size=st.integers(1, 4), n_blocks=st.integers(1, 12))
def test_block_shrink_scales_rows_as_the_broadcast_did(data, block_size, n_blocks):
    # 1 minus the ball ratio the dual resolvent scales by, times each block,
    # against the where-form shrink factor broadcast over the block: bit for
    # bit at zero thresholds and radii up to 1e300, zero-norm blocks, entries
    # near 1e-170 (squares underflow) and 1e200 (squares overflow), and
    # infinite and nan entries
    entry = st.one_of(
        *[st.tuples(_SCALE_MAGNITUDE, st.floats(-1.0, 1.0)).map(lambda p: p[0] * p[1])] * 3,
        st.sampled_from([np.inf, -np.inf, np.nan]))
    blocks = np.array(data.draw(st.lists(entry, min_size=n_blocks * block_size,
                                         max_size=n_blocks * block_size)))
    blocks = blocks.reshape(n_blocks, block_size)
    blocks[data.draw(st.lists(st.booleans(), min_size=n_blocks, max_size=n_blocks))] = 0.0
    thresh = np.array(data.draw(st.lists(_SCALE_MAGNITUDE, min_size=n_blocks,
                                         max_size=n_blocks)))
    nrm = kernels._block_norms(blocks)
    shrinks = nrm > thresh
    scale = np.where(shrinks, 1.0 - thresh / np.where(shrinks, nrm, 1.0), 0.0)
    with np.errstate(invalid="ignore"):  # inf * 0 in a block whose norm is nan
        expected = (blocks * scale[:, None]).reshape(-1)
        got = kernels.block_shrink(blocks.reshape(-1), thresh, block_size)
    assert got.tobytes() == expected.tobytes()


# magnitudes from 1e-300 to 1e300, either sign, and zero
_FINITE = st.one_of(_MAGNITUDE, _MAGNITUDE.map(lambda v: -v), st.just(0.0))


@settings(max_examples=400, deadline=None)
@given(entries=st.lists(_FINITE, min_size=1, max_size=10),
       special=st.sampled_from([None, math.inf, -math.inf, math.nan]), at=st.integers(0, 9))
@example(entries=[1e300, -1e300], special=None, at=0)
@example(entries=[1e-300, 1e300], special=math.inf, at=1)
def test_norm_is_the_plain_norm_unless_its_squares_overflow(entries, special, at):
    v = np.array(entries)
    if special is not None:
        v[at % v.size] = special
    with np.errstate(over="ignore"):  # a sum of squares may overflow, as it may in a run
        got, squares = _norm(v), v.dot(v)
    if special is not None:  # inf for an infinite entry, nan for a nan
        assert math.isnan(got) if math.isnan(special) else got == math.inf
    elif math.isfinite(squares):
        assert np.float64(got).tobytes() == np.linalg.norm(v).tobytes()
    else:  # the squares overflow: finite, and the norm to rounding
        assert math.isfinite(got)
        assert got == pytest.approx(math.hypot(*entries), rel=1e-14)


def test_every_norm_in_the_package_goes_through_kernels():
    # a numpy norm elsewhere in src/ reads inf where a finite vector's squares
    # overflow; kernels._norm and kernels._block_norms give its bits elsewhere
    package = Path(kernels.__file__).resolve().parent
    sites = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and ast.unparse(node).endswith("linalg.norm")]
    assert sites == []


def test_grad_dirichlet_1d_stencil():
    # forward differences with a zero ghost past the last node
    u = np.array([1.0, 2.0, 4.0])
    assert np.array_equal(gradient_operator(GridSpec((3,), 1.0)).apply(u), [1.0, 2.0, -4.0])


def test_adjoints_are_exact_transposes():
    cases = [
        (gradient_operator, GridSpec((9,), 0.3), 9, 9),
        (interior_gradient_operator, GridSpec((9,), 0.3), 9, 8),
        (gradient_operator, GridSpec((4, 5), (0.5, 0.25)), 20, 40),
        (interior_gradient_operator, GridSpec((4, 5), (0.5, 0.25)), 20, 24),
    ]
    for make, grid, n_in, n_out in cases:
        L = make(grid)
        a = np.column_stack([L.apply(e) for e in np.eye(n_in)])
        at = np.column_stack([L.adjoint_apply(e) for e in np.eye(n_out)])
        assert a.shape == (n_out, n_in)
        assert np.array_equal(a.T, at)


def test_grad_interior_2d_on_linear_field():
    n1, n2 = 4, 6
    xs = np.linspace(0.0, 1.0, n1)
    field = np.outer(xs, np.ones(n2)).reshape(-1)
    L = interior_gradient_operator(GridSpec((n1, n2), 1.0))
    out = L.apply(field).reshape(-1, 2)
    slope = xs[1] - xs[0]
    assert np.allclose(out[:, 0], slope, atol=1e-15)
    assert np.allclose(out[:, 1], 0.0, atol=1e-15)


def _tv_kkt_defect(y, mu, u, pinned_end):
    """Exact optimality residual for 1-D TV denoising.

    The stationarity condition is u = y - mu * D^T t with t in the unit
    box, the entries of t matching the signs of the nonzero differences
    Du, and (free variant only) mean(y - u) = 0.
    """
    s = np.cumsum(y - u)
    if pinned_end:
        t = -s / mu
        diffs = np.append(u[1:] - u[:-1], -u[-1])
    else:
        t = -s[:-1] / mu
        diffs = u[1:] - u[:-1]
    defect = max(0.0, float(np.max(np.abs(t))) - 1.0)
    active = np.abs(diffs) > 1e-9
    if np.any(active):
        defect = max(defect, float(np.max(np.abs(t[active] - np.sign(diffs[active])))))
    if not pinned_end:
        defect = max(defect, abs(float(s[-1])))
    return defect


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("mu", [0.05, 0.3, 2.0])
def test_taut_string_satisfies_kkt(seed, mu):
    from splitbreg.oracles import taut_string_denoise

    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 80))
    y = np.cumsum(rng.standard_normal(n)) * 0.5
    u = taut_string_denoise(y, mu)
    assert _tv_kkt_defect(y, mu, u, pinned_end=False) < 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_taut_string_dirichlet_satisfies_kkt(seed):
    from splitbreg.oracles import taut_string_dirichlet

    rng = np.random.default_rng(seed + 100)
    y = rng.standard_normal(30)
    mu = 0.2
    u = taut_string_dirichlet(y, mu)
    assert _tv_kkt_defect(y, mu, u, pinned_end=True) < 1e-9


def test_taut_string_hand_cases():
    from splitbreg.oracles import taut_string_denoise

    # single bend at the lower tube bound, worked out by hand
    assert np.allclose(taut_string_denoise(np.array([10.0, -10.0]), 1.0), [9.0, -9.0])
    assert np.allclose(taut_string_denoise(np.array([-10.0, 10.0]), 1.0), [-9.0, 9.0])
    # mu = 0 returns the data
    y = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(taut_string_denoise(y, 0.0), y)
    # constant signals are fixed points for any mu
    c = np.full(9, 1.25)
    assert np.allclose(taut_string_denoise(c, 5.0), c)
    # huge mu flattens to the mean
    y2 = np.arange(8.0)
    assert np.allclose(taut_string_denoise(y2, 1e6), np.full(8, y2.mean()))
