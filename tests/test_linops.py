import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitbreg import linops
from splitbreg.linops import (GridSpec, LinearMap, as_vector, check_adjoint,
                              gradient_operator, identity_operator,
                              interior_gradient_operator, load_matrix_csv, matrix_operator,
                              spd_factor)


def test_as_vector_validation():
    with pytest.raises(ValueError, match="finite"):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError, match="dimension"):
        as_vector([1.0, 2.0], dim=3)
    with pytest.raises(ValueError, match="1-D"):
        as_vector(np.zeros((2, 2)))


def test_matrix_operator_examples():
    L = matrix_operator([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(L.apply(np.array([1.0, 0.0])), [1.0, 3.0])
    assert np.array_equal(L.adjoint_apply(np.array([1.0, 0.0])), [1.0, 2.0])
    assert np.linalg.matrix_rank(L.matrix.toarray()) == 2

    eye = matrix_operator(np.eye(3))
    v = np.array([2.0, -1.0, 0.5])
    assert np.array_equal(eye.apply(v), v)

    rank_def = matrix_operator([[1.0, 0.0], [0.0, 0.0]])
    assert np.linalg.matrix_rank(rank_def.matrix.toarray()) == 1


def test_matrix_operator_rejects_bad_input():
    with pytest.raises(ValueError):
        matrix_operator([[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError):
        matrix_operator(np.empty((0, 2)))
    with pytest.raises(ValueError):
        matrix_operator([[1.0, np.inf]])


def test_gradient_operator_1d_example():
    L = gradient_operator(GridSpec((3,), 1.0))
    assert np.array_equal(L.apply(np.array([1.0, 2.0, 4.0])), [1.0, 2.0, -4.0])
    assert np.array_equal(L.apply(np.zeros(3)), np.zeros(3))
    assert np.linalg.matrix_rank(L.matrix.toarray()) == 3


@pytest.mark.parametrize("make,grid", [
    (gradient_operator, GridSpec((9,), 0.4)),
    (gradient_operator, GridSpec((5, 7), (0.5, 0.25))),
    (interior_gradient_operator, GridSpec((9,), 0.4)),
    (interior_gradient_operator, GridSpec((5, 7), (0.5, 0.25))),
])
def test_adjoint_consistency(make, grid):
    L = make(grid)
    assert check_adjoint(L, trials=50, seed=0) <= 1e-12


def test_check_adjoint_flags_wrong_adjoint():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    flipped = a.T.copy()
    flipped[0, 1] = -flipped[0, 1]
    bad = LinearMap(domain_dim=2, codomain_dim=2,
                    apply=lambda v: a @ v, adjoint_apply=lambda v: flipped @ v,
                    matrix=sp.csr_matrix(a))
    assert check_adjoint(bad, trials=50, seed=0) > 1e-6
    assert check_adjoint(identity_operator(4), trials=20, seed=1) == 0.0


def test_check_adjoint_validates_trials():
    with pytest.raises(ValueError):
        check_adjoint(identity_operator(2), trials=0)


def test_dirichlet_gradient_is_injective_on_small_grids():
    for grid in (GridSpec((4,)), GridSpec((3, 5))):
        L = gradient_operator(grid)
        n = L.domain_dim
        dense = np.zeros((L.codomain_dim, n))
        e = np.zeros(n)
        for i in range(n):
            e[i] = 1.0
            dense[:, i] = L.apply(e)
            e[i] = 0.0
        assert np.linalg.matrix_rank(dense) == n


def test_interior_gradient_kills_constants():
    L = interior_gradient_operator(GridSpec((6,)))
    assert np.allclose(L.apply(np.full(6, 3.7)), 0.0)
    assert np.linalg.matrix_rank(L.matrix.toarray()) == 5


def test_normal_operator_is_psd():
    rng = np.random.default_rng(5)
    L = gradient_operator(GridSpec((4, 4)))
    for _ in range(25):
        u = rng.standard_normal(16)
        assert float(np.dot(L.adjoint_apply(L.apply(u)), u)) >= -1e-12


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec((1,))
    with pytest.raises(ValueError):
        GridSpec((4, 4), spacing=-1.0)
    with pytest.raises(ValueError):
        GridSpec((2, 2, 2))
    with pytest.raises(ValueError):
        GridSpec((4, 4), spacing=(1.0,))
    g = GridSpec((3, 4), spacing=2.0)
    assert g.spacing == (2.0, 2.0) and g.n_nodes == 12


def test_csv_round_trip(tmp_path):
    m = np.array([[1.5, -2.0], [0.25, 4.0], [3.0, 1.0]])
    mpath = tmp_path / "m.csv"
    mpath.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in m) + "\n")
    assert np.array_equal(load_matrix_csv(mpath), m)


def test_empty_matrix_csv_is_rejected_without_a_warning(tmp_path):
    # numpy warns on a file with no data; that warning must not reach stderr
    path = tmp_path / "empty.csv"
    path.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-empty"):
            matrix_operator(load_matrix_csv(path))


def test_spd_factor_solves_and_rejects_singular():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((12, 12))
    spd = a @ a.T + 12 * np.eye(12)
    rhs = rng.standard_normal(12)
    x = spd_factor(sp.csr_matrix(spd)).solve(rhs)
    assert np.allclose(x, np.linalg.solve(spd, rhs), rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="gram system is singular"):
        spd_factor(sp.csr_matrix(np.diag([1.0, 0.0])), what="gram system")
    psd = a[:, :5] @ a[:, :5].T  # rank 5 of 12: factors without error, fails the pivot floor
    with pytest.raises(ValueError, match="singular"):
        spd_factor(sp.csr_matrix(psd))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), diagonal=st.booleans(), seed=st.integers(0, 2**16))
@example(n=1, diagonal=False, seed=0)
def test_spd_tridiagonal_factor_matches_dense_solve(n, diagonal, seed):
    # diagonally dominant, so well conditioned: LDL^T and LU agree to roundoff
    rng = np.random.default_rng(seed)
    e = np.zeros(n - 1) if diagonal else rng.standard_normal(n - 1)
    d = rng.uniform(0.1, 2.0, n)
    d[:-1] += np.abs(e)
    d[1:] += np.abs(e)
    a = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    rhs = rng.standard_normal(n)
    factor = spd_factor(sp.csr_matrix(a))
    assert isinstance(factor, linops._TridiagonalFactor)
    expected = np.linalg.solve(a, rhs)
    assert np.linalg.norm(factor.solve(rhs) - expected) <= 1e-12 * np.linalg.norm(expected)


def _gram(L: LinearMap) -> np.ndarray:
    return (L.matrix.T @ L.matrix).toarray()


@pytest.mark.parametrize("system,reason", [
    (np.diag([1.0, 0.0]), ""),
    (_gram(interior_gradient_operator(GridSpec((9,), 0.3))), ""),
    # positive pivots throughout; the last, 2**-51, equals the floor n * eps * max D
    (np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-51]]), ": smallest pivot .* floor"),
], ids=["zero_pivot", "interior_gradient_gram", "pivot_at_floor"])
def test_spd_factor_rejects_singular_tridiagonal(system, reason):
    with pytest.raises(ValueError, match=f"^gram system is singular{reason}"):
        spd_factor(sp.csr_matrix(system), what="gram system")


def test_operator_catalogue_adjoint_budget():
    # every shipped operator passes the 50-probe adjoint check at 1e-12
    ops = [
        identity_operator(7),
        matrix_operator(np.random.default_rng(0).standard_normal((9, 5))),
        gradient_operator(GridSpec((11,), 0.3)),
        gradient_operator(GridSpec((6, 8), (0.5, 2.0))),
        interior_gradient_operator(GridSpec((11,), 0.3)),
        interior_gradient_operator(GridSpec((6, 8), (0.5, 2.0))),
    ]
    for L in ops:
        assert check_adjoint(L, trials=50, seed=3) <= 1e-12


_SHAPES = st.one_of(st.tuples(st.integers(2, 40)),
                    st.tuples(st.integers(2, 12), st.integers(2, 12)))
_SPACING = st.floats(0.05, 20.0)


@settings(max_examples=40, deadline=None)
@given(shape=_SHAPES, h=st.tuples(_SPACING, _SPACING), interior=st.booleans(),
       seed=st.integers(0, 2**16))
def test_grid_operators_adjoint_exact(shape, h, interior, seed):
    grid = GridSpec(shape, h[: len(shape)])
    make = interior_gradient_operator if interior else gradient_operator
    L = make(grid)
    assert L.matrix.shape == (L.codomain_dim, L.domain_dim)
    assert check_adjoint(L, trials=10, seed=seed) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 15), n=st.integers(1, 15), seed=st.integers(0, 2**16))
def test_matrix_and_identity_adjoint_exact(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.6)
    for L in (matrix_operator(a), identity_operator(n)):
        assert check_adjoint(L, trials=10, seed=seed) <= 1e-12


def test_apply_and_adjoint_match_the_matrix_product_bitwise(tmp_path):
    # apply/adjoint_apply call the CSR kernel directly on 1-D float64
    # vectors; that must be the same product scipy's ``@`` computes, bit
    # for bit, and every other input must still take ``@`` and its errors
    rng = np.random.default_rng(7)
    custom = rng.standard_normal((9, 6)) * (rng.random((9, 6)) < 0.5)
    np.savetxt(tmp_path / "m.csv", custom, delimiter=",")
    ops = [
        identity_operator(7),
        matrix_operator(rng.standard_normal((9, 5))),
        matrix_operator(load_matrix_csv(tmp_path / "m.csv")),
        gradient_operator(GridSpec((11,), 0.3)),
        gradient_operator(GridSpec((6, 8), (0.5, 2.0))),
        interior_gradient_operator(GridSpec((11,), 0.3)),
        interior_gradient_operator(GridSpec((6, 8), (0.5, 2.0))),
    ]
    for L in ops:
        for _ in range(5):
            v = rng.standard_normal(L.domain_dim) * 10.0 ** rng.integers(-8, 8)
            w = rng.standard_normal(L.codomain_dim) * 10.0 ** rng.integers(-8, 8)
            assert L.apply(v).tobytes() == (L.matrix @ v).tobytes()
            assert L.adjoint_apply(w).tobytes() == (L.matrix.T @ w).tobytes()
        strided = rng.standard_normal(2 * L.domain_dim)[::2]
        assert L.apply(strided).tobytes() == (L.matrix @ strided).tobytes()
        block = rng.standard_normal((L.domain_dim, 3))
        assert np.array_equal(L.apply(block), L.matrix @ block)
        with pytest.raises(ValueError):
            L.apply(np.zeros(L.domain_dim + 1))
        with pytest.raises(ValueError):
            L.adjoint_apply(np.zeros(L.codomain_dim - 1))
