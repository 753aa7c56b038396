import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu
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


def test_identity_operator_rejects_an_empty_space():
    with pytest.raises(ValueError, match="dimension must be positive"):
        identity_operator(0)


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


def test_grid_spec_accepts_integral_float_node_counts():
    assert GridSpec((16.0,)).shape == (16,)
    assert GridSpec((np.float64(4.0), 3)).shape == (4, 3)


@pytest.mark.parametrize("shape", [(2.5,), (4, 3.5)])
def test_grid_spec_rejects_non_integral_node_counts(shape):
    with pytest.raises(ValueError, match="node counts must be integers"):
        GridSpec(shape)


@pytest.mark.parametrize("spacing", [float("nan"), (1.0, float("nan"))])
def test_grid_spec_rejects_nan_spacing(spacing):
    with pytest.raises(ValueError, match="finite and positive"):
        GridSpec((4, 4), spacing)


@pytest.mark.parametrize("spacing", [float("inf"), (float("inf"), 1.0)])
def test_grid_spec_rejects_infinite_spacing(spacing):
    with pytest.raises(ValueError, match="finite and positive"):
        GridSpec((4, 4), spacing)


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


def _random_tridiagonal(rng: np.random.Generator, n: int, h: float) -> sp.dia_matrix:
    # diagonally dominant, so SPD and well conditioned, scaled like a 1/h^2 stencil
    e = rng.standard_normal(n - 1)
    d = rng.uniform(0.1, 2.0, n)
    d[:-1] += np.abs(e)
    d[1:] += np.abs(e)
    return sp.diags([e, d, e], [-1, 0, 1]) / h**2


def _kronecker_sum(t0, t1, c: float = 0.0) -> sp.csr_matrix:
    n0, n1 = t0.shape[0], t1.shape[0]
    return sp.csr_matrix(sp.kron(t0, sp.identity(n1)) + sp.kron(sp.identity(n0), t1)
                         + c * sp.identity(n0 * n1))


def _splu_solve(system, rhs):
    return splu(sp.csc_matrix(system), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                options={"SymmetricMode": True}).solve(rhs)


@settings(max_examples=60, deadline=None)
@given(n0=st.integers(2, 24), n1=st.integers(2, 24),
       h0=st.floats(0.05, 20.0), h1=st.floats(0.05, 20.0),
       c=st.sampled_from([0.0, 1e-3, 1.0, 50.0]), seed=st.integers(0, 2**16))
@example(n0=2, n1=2, h0=1.0, h1=1.0, c=0.0, seed=0)
def test_spd_kronecker_sum_factor_matches_splu(n0, n1, h0, h1, c, seed):
    rng = np.random.default_rng(seed)
    system = _kronecker_sum(_random_tridiagonal(rng, n0, h0), _random_tridiagonal(rng, n1, h1), c)
    rhs = rng.standard_normal(n0 * n1)
    factor = spd_factor(system)
    assert isinstance(factor, linops._KroneckerSumFactor)
    expected = _splu_solve(system, rhs)
    assert np.linalg.norm(factor.solve(rhs) - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("where", ["diagonal", "axis0_coupling", "axis1_coupling",
                                   "block_wraparound"])
def test_spd_factor_falls_back_to_splu_off_a_kronecker_sum(where):
    # one entry (or its symmetric pair) inside the band breaks the sum: splu
    # must take the system, and still solve it
    rng = np.random.default_rng(11)
    n0, n1 = 5, 7
    system = _kronecker_sum(_random_tridiagonal(rng, n0, 0.5), _random_tridiagonal(rng, n1, 2.0),
                            0.3).tolil()
    k = 2 * n1 + 3
    if where == "diagonal":
        system[k, k] *= 1.0 + 1e-9
    else:
        j = {"axis0_coupling": k + n1, "axis1_coupling": k + 1,
             "block_wraparound": 2 * n1 - 1}[where]
        i = k if where != "block_wraparound" else n1 - 1
        system[i, j] = system[j, i] = system[i, j] + 1e-3
    factor = spd_factor(system)
    assert isinstance(factor, SuperLU)
    rhs = rng.standard_normal(n0 * n1)
    assert np.allclose(factor.solve(rhs), np.linalg.solve(system.toarray(), rhs),
                       rtol=1e-12, atol=1e-12)


def _offsets(system: sp.csc_matrix) -> np.ndarray:
    return system.indices - np.repeat(np.arange(system.shape[1], dtype=system.indices.dtype),
                                      np.diff(system.indptr))


def _rebuild_split(system: sp.csc_matrix):
    """The two structure checks that ``linops._axis_split`` replaced, as its reference.

    A system with nothing stored beyond offset +-1 is the one-axis split
    when its sub- and super-diagonals are equal bit for bit.  Otherwise
    the nonzero entries must sit at offsets 0, +-1 and +-m for one m > 1
    dividing n, and the Kronecker sum of the per-axis tridiagonals read
    back, rebuilt as a sparse matrix, must reproduce the system to within
    4 ulps of its largest entry.
    """
    offsets = _offsets(system)
    n = system.shape[0]
    if not (np.abs(offsets) > 1).any():
        sub, sup = system.diagonal(-1), system.diagonal(1)
        return (np.zeros(1), np.empty(0), system.diagonal(), sup) if np.array_equal(sub, sup) \
            else None
    far = np.unique(np.abs(offsets[(np.abs(offsets) > 1) & (system.data != 0)]))
    if far.size != 1 or n % far[0]:
        return None
    m = int(far[0])
    n0 = n // m
    diag = system.diagonal().reshape(n0, m)
    d1, d0 = diag[0], diag[:, 0] - diag[0, 0]
    e1, e0 = system.diagonal(1)[:m - 1], system.diagonal(m)[::m]
    t0 = sp.diags([e0, d0, e0], [-1, 0, 1])
    t1 = sp.diags([e1, d1, e1], [-1, 0, 1])
    rebuilt = sp.kron(t0, sp.identity(m)) + sp.kron(sp.identity(n0), t1)
    scale = float(abs(system).max())
    if not abs(rebuilt - system).max() <= 4 * np.finfo(float).eps * scale:
        return None
    return d0, e0, d1, e1


_PERTURBATIONS = ["none", "diagonal", "axis1_coupling", "axis0_coupling", "one_sided",
                  "block_wraparound", "stored_zero"]


def _perturbed_kronecker_sum(n0, n1, h0, h1, c, where, ulps, seed) -> sp.csc_matrix:
    """A Kronecker sum (tridiagonal when n0 = 1) with one entry moved by ``ulps`` of its largest.

    ``one_sided`` moves a sub-diagonal entry without its super-diagonal
    pair; ``block_wraparound`` sets the +-1 pair that crosses from one
    block into the next; ``stored_zero`` stores an explicit zero at an
    offset that is neither 0, +-1 nor +-n1.
    """
    rng = np.random.default_rng(seed)
    t0 = _random_tridiagonal(rng, n0, h0).toarray()
    t1 = _random_tridiagonal(rng, n1, h1).toarray()
    a = np.kron(t0, np.eye(n1)) + np.kron(np.eye(n0), t1) + c * np.eye(n0 * n1)
    n = a.shape[0]
    delta = ulps * np.finfo(float).eps * np.abs(a).max()
    k = int(rng.integers(n))
    if where == "diagonal":
        a[k, k] += delta
    elif where in ("axis1_coupling", "one_sided") and n1 > 1:
        k = k // n1 * n1 + k % (n1 - 1)
        a[k + 1, k] += delta
        if where == "axis1_coupling":
            a[k, k + 1] += delta
    elif where == "axis0_coupling" and n0 > 1:
        k %= n - n1
        a[k, k + n1] += delta
        a[k + n1, k] += delta
    elif where == "block_wraparound" and n0 > 1 and n1 > 1:
        k = (k % (n0 - 1) + 1) * n1
        a[k - 1, k] = a[k, k - 1] = delta
    system = sp.csc_matrix(a)
    if where == "stored_zero":
        spare = [(i, j) for i in range(n) for j in range(n) if abs(i - j) not in (0, 1, n1)]
        if spare:
            i, j = spare[k % len(spare)]
            coo = system.tocoo()
            system = sp.csc_matrix((np.append(coo.data, 0.0),
                                    (np.append(coo.row, i), np.append(coo.col, j))), shape=(n, n))
            assert system.nnz == coo.nnz + 1
    return system


@settings(max_examples=300, deadline=None)
@given(n0=st.integers(1, 5), n1=st.integers(1, 7), h0=st.floats(0.05, 20.0),
       h1=st.floats(0.05, 20.0), c=st.sampled_from([0.0, 1e-3, 1.0, 50.0]),
       where=st.sampled_from(_PERTURBATIONS),
       ulps=st.sampled_from([0.5, 1.0, 2.0, 3.0, 3.5, 4.0, 4.5, 5.0, 8.0, 1e6]),
       negative=st.booleans(), seed=st.integers(0, 2**16))
@example(n0=1, n1=1, h0=1.0, h1=1.0, c=0.0, where="none", ulps=1.0, negative=False, seed=0)
@example(n0=3, n1=4, h0=1.0, h1=1.0, c=0.0, where="block_wraparound", ulps=2.0, negative=False,
         seed=0)
@example(n0=3, n1=4, h0=1.0, h1=1.0, c=0.0, where="stored_zero", ulps=1.0, negative=False, seed=0)
@example(n0=1, n1=6, h0=1.0, h1=1.0, c=0.0, where="stored_zero", ulps=1.0, negative=False, seed=0)
def test_axis_split_matches_the_rebuild_check(n0, n1, h0, h1, c, where, ulps, negative, seed):
    # the same accept or reject decision and, when accepted, the same
    # (d0, e0, d1, e1) bits as the rebuild, except for a tridiagonal system
    # whose sub- and super-diagonals differ by at most 4 ulps: the rebuild's
    # tridiagonal check wanted them bit-equal, the reader applies 4 ulps
    system = _perturbed_kronecker_sum(n0, n1, h0, h1, c, where, -ulps if negative else ulps,
                                      seed)
    expected, split = _rebuild_split(system), linops._axis_split(system, _offsets(system))
    if expected is None and split is not None:
        sub, sup = system.diagonal(-1), system.diagonal(1)
        assert split[0].size == 1 and not np.array_equal(sub, sup)
        assert np.abs(sub - sup).max() <= 4 * np.finfo(float).eps * np.abs(system.data).max()
        expected = (np.zeros(1), np.empty(0), system.diagonal(), sup)
    assert (split is None) == (expected is None)
    if split is not None:
        assert [v.tobytes() for v in split] == [v.tobytes() for v in expected]


def test_a_tridiagonal_system_within_four_ulps_of_symmetric_takes_dpttrf():
    # the reader's one decision change: a sub-diagonal a few ulps off the
    # super-diagonal used to send a tridiagonal system to splu
    a = _random_tridiagonal(np.random.default_rng(4), 9, 0.5).toarray()
    a[4, 3] = np.nextafter(np.nextafter(a[4, 3], np.inf), np.inf)
    system = sp.csc_matrix(a)
    assert _rebuild_split(system) is None
    factor = spd_factor(system)
    assert isinstance(factor, linops._TridiagonalFactor)
    rhs = np.random.default_rng(5).standard_normal(9)
    assert np.allclose(factor.solve(rhs), np.linalg.solve(a, rhs), rtol=1e-12, atol=0)
    a[4, 3] *= 1.0 + 1e-9
    assert isinstance(spd_factor(sp.csc_matrix(a)), SuperLU)


def test_spd_factor_of_the_empty_system_is_tridiagonal():
    factor = spd_factor(sp.csr_matrix((0, 0)))
    assert isinstance(factor, linops._TridiagonalFactor)
    assert factor.solve(np.zeros(0)).shape == (0,)


def test_spd_factor_rejects_a_singular_kronecker_sum():
    # Neumann (+) Neumann with no shift: the constants span its null space
    neumann = [_gram(interior_gradient_operator(GridSpec((n,), 0.7))) for n in (6, 4)]
    system = _kronecker_sum(sp.csr_matrix(neumann[0]), sp.csr_matrix(neumann[1]))
    with pytest.raises(ValueError, match="^gram system is singular: smallest eigenvalue"):
        spd_factor(system, what="gram system")


def _spd_of_each_kind(kind: str) -> sp.csr_matrix:
    rng = np.random.default_rng(6)
    if kind == "tridiagonal":
        return sp.csr_matrix(_random_tridiagonal(rng, 9, 0.5))
    if kind == "kronecker_sum":
        return _kronecker_sum(_random_tridiagonal(rng, 5, 0.5), _random_tridiagonal(rng, 7, 2.0))
    a = rng.standard_normal((12, 12))
    return sp.csr_matrix(a @ a.T + 12 * np.eye(12))


@pytest.mark.parametrize("kind,factor_type", [
    ("tridiagonal", linops._TridiagonalFactor), ("kronecker_sum", linops._KroneckerSumFactor),
    ("splu", SuperLU)])
def test_spd_factor_refuses_a_non_finite_entry_before_reading_its_structure(kind, factor_type):
    # an assembly that overflowed holds inf: refused as such, without the
    # structure reader's inf - inf warning or a "singular" verdict
    system = _spd_of_each_kind(kind)
    assert isinstance(spd_factor(system), factor_type)
    system = system.tolil()
    system[4, 4] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^gram system has non-finite entries$"):
            spd_factor(system, what="gram system")


def test_grid_normal_systems_take_their_structural_factor():
    # zero-ghost 2-D gradients give Kronecker sums; the cell-origin selection
    # of the interior gradient does not; 1-D grids stay tridiagonal
    grid2 = GridSpec((6, 5), (0.5, 2.0))
    dirichlet, free = (L.matrix.T @ L.matrix + 0.2 * sp.identity(30)
                       for L in (gradient_operator(grid2), interior_gradient_operator(grid2)))
    assert isinstance(spd_factor(dirichlet), linops._KroneckerSumFactor)
    assert isinstance(spd_factor(free), SuperLU)
    grid1 = GridSpec((9,), 0.3)
    for L in (gradient_operator(grid1), interior_gradient_operator(grid1)):
        assert isinstance(spd_factor(L.matrix.T @ L.matrix + 0.2 * sp.identity(9)),
                          linops._TridiagonalFactor)


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


@pytest.mark.parametrize("kind,factor_type", [
    ("tridiagonal", linops._TridiagonalFactor), ("kronecker_sum", linops._KroneckerSumFactor),
    ("splu", SuperLU)])
@pytest.mark.parametrize("extra", [1, -1], ids=["n_plus_1", "n_minus_1"])
def test_each_factor_refuses_a_right_hand_side_of_another_length(kind, factor_type, extra, capfd):
    # dpttrs would solve the first n entries of a longer rhs and pass the
    # rest through, and print LAPACK's illegal-argument line for a shorter one
    system = _spd_of_each_kind(kind)
    factor = spd_factor(system)
    assert isinstance(factor, factor_type)
    with pytest.raises(ValueError):
        factor.solve(np.ones(system.shape[0] + extra))
    if kind == "tridiagonal":
        assert capfd.readouterr() == ("", "")
        with pytest.raises(ValueError, match=rf"^right-hand side has length {9 + extra}, "
                                             r"system has order 9$"):
            factor.solve(np.ones(9 + extra))
