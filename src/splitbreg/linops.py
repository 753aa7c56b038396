"""Vectors and linear operators with exact adjoints.

Vectors are plain 1-D float64 numpy arrays; :func:`as_vector` validates
them on construction (finite entries, expected length).  Every shipped
operator is a :class:`LinearMap` around one ``scipy.sparse`` CSR matrix:
``apply`` multiplies by it and ``adjoint_apply`` by its cached CSR
transpose, so the adjoint identity ``<L u, v> == <u, L* v>`` holds to
machine precision rather than only up to discretization error.  Both
call scipy's ``csr_matvec`` kernel, bound once to the matrix's index
and data arrays, for a 1-D float64 vector of the right length (the
same call ``a @ v`` makes, without its dispatch); any other input goes
through ``a @ v``, with its errors and its 2-D behaviour.  An
operator carries no rank or injectivity flag; where a solve needs one,
:func:`spd_factor` rejects the singular normal system.  The gradient
stencils are assembled from 1-D difference matrices with ``sp.kron``.
:func:`spd_factor` is the one factorization used for symmetric
positive-definite solves (the u-step and the forward model): a
symmetric tridiagonal system, which every 1-D grid operator and the
identity give, is factored as LDL^T by LAPACK ``dpttrf``; any other is
factored once with ``splu``.  :func:`load_matrix_csv` reads the
custom_matrix CSV.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import SuperLU, splu

__all__ = [
    "as_vector",
    "GridSpec",
    "LinearMap",
    "identity_operator",
    "matrix_operator",
    "gradient_operator",
    "interior_gradient_operator",
    "check_adjoint",
    "spd_factor",
    "load_matrix_csv",
]

_FLOAT64 = np.dtype(np.float64)


def as_vector(data, dim: Optional[int] = None) -> np.ndarray:
    """Validate and return a finite 1-D float64 vector."""
    v = np.asarray(data, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


@dataclass(frozen=True)
class GridSpec:
    """Uniform 1-D or 2-D grid: node counts per axis and spacings."""

    shape: tuple
    spacing: tuple

    def __init__(self, shape, spacing=1.0):
        shape = tuple(int(s) for s in (shape if np.iterable(shape) else (shape,)))
        if not 1 <= len(shape) <= 2:
            raise ValueError("only 1-D and 2-D grids are supported")
        if any(s < 2 for s in shape):
            raise ValueError("grid needs at least 2 nodes per axis")
        if np.iterable(spacing):
            spacing = tuple(float(h) for h in spacing)
        else:
            spacing = (float(spacing),) * len(shape)
        if len(spacing) != len(shape):
            raise ValueError("one spacing per axis required")
        if any(h <= 0 for h in spacing):
            raise ValueError("grid spacing must be positive")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacing", spacing)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Bounded linear operator with an exact adjoint.

    ``apply`` and ``adjoint_apply`` multiply by ``matrix`` and by its
    transpose; nothing else about the operator is recorded.
    """

    domain_dim: int
    codomain_dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint_apply: Callable[[np.ndarray], np.ndarray]
    matrix: sp.csr_matrix


def _matvec(a: sp.csr_matrix) -> Callable[[np.ndarray], np.ndarray]:
    """``v -> a @ v``, calling scipy's CSR kernel directly for a float64 vector.

    A 1-D float64 ndarray of the right length is what ``a @ v`` itself
    hands to ``csr_matvec``, so the result is the same bits; anything else
    (a wrong length, a 2-D block, a list) still goes through ``a @ v`` and
    its errors.
    """
    m, n = a.shape
    indptr, indices, data = a.indptr, a.indices, a.data
    kernel = _sparsetools.csr_matvec

    def matvec(v):
        if v.__class__ is np.ndarray and v.shape == (n,) and v.dtype is _FLOAT64:
            out = np.zeros(m)
            kernel(m, n, indptr, indices, data, v, out)
            return out
        return a @ v

    return matvec


def _csr_map(a) -> LinearMap:
    """LinearMap around a CSR matrix; the adjoint applies its cached transpose."""
    a = sp.csr_matrix(a, dtype=float)
    m, n = a.shape
    return LinearMap(
        domain_dim=n,
        codomain_dim=m,
        apply=_matvec(a),
        adjoint_apply=_matvec(a.T.tocsr()),
        matrix=a,
    )


def identity_operator(dim: int) -> LinearMap:
    dim = int(dim)
    if dim < 1:
        raise ValueError("dimension must be positive")
    return _csr_map(sp.identity(dim))


def matrix_operator(entries) -> LinearMap:
    """Operator from a dense entry array; the adjoint is the exact transpose."""
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("matrix entries must form a non-empty rectangular 2-D array")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return _csr_map(a)


def _forward_difference(n: int, h: float, ghost: bool) -> sp.csr_matrix:
    """1-D forward differences: n x n with a zero ghost past the end, else (n-1) x n."""
    rows = n if ghost else n - 1
    return sp.diags([-1.0 / h, 1.0 / h], [0, 1], shape=(rows, n), format="csr")


def _interleave(components) -> sp.csr_matrix:
    """Stack per-axis difference matrices with each node's components adjacent.

    Row ``k`` of component ``c`` becomes row ``ndim * k + c``.
    """
    stacked = sp.vstack(components, format="csr")
    ndim, rows = len(components), components[0].shape[0]
    return stacked[np.arange(ndim * rows).reshape(ndim, rows).T.reshape(-1)]


def gradient_operator(grid: GridSpec) -> LinearMap:
    """Forward-difference gradient with zero (Dirichlet) ghost values.

    Each node carries one forward difference per axis; differences that
    would reach past the far boundary use a zero ghost value, so the
    operator maps n nodes to n differences per axis and is injective.
    The adjoint is the transpose of the stencil (a backward-difference
    negative divergence).  Per-node difference components are
    interleaved, giving contiguous blocks of size ``grid.ndim``.
    """
    if grid.ndim == 1:
        a = _forward_difference(grid.shape[0], grid.spacing[0], ghost=True)
    else:
        (n1, n2), (h1, h2) = grid.shape, grid.spacing
        a = _interleave([sp.kron(_forward_difference(n1, h1, ghost=True), sp.identity(n2)),
                         sp.kron(sp.identity(n1), _forward_difference(n2, h2, ghost=True))])
    return _csr_map(a)


def interior_gradient_operator(grid: GridSpec) -> LinearMap:
    """Forward differences between adjacent nodes only (no ghost values).

    In 1-D this maps n nodes to n-1 differences; in 2-D the per-node
    difference pair is formed at the (n1-1)(n2-1) cell-origin nodes that
    have both forward neighbours.  Constants lie in the null space, so
    the operator is not injective; it is the natural gradient when the
    boundary values are carried by the unknowns themselves rather than
    by a zero extension.
    """
    if grid.ndim == 1:
        a = _forward_difference(grid.shape[0], grid.spacing[0], ghost=False)
    else:
        (n1, n2), (h1, h2) = grid.shape, grid.spacing
        # the cell-origin nodes drop the last index along each axis
        a = _interleave([sp.kron(_forward_difference(n1, h1, ghost=False), sp.eye(n2 - 1, n2)),
                         sp.kron(sp.eye(n1 - 1, n1), _forward_difference(n2, h2, ghost=False))])
    return _csr_map(a)


def check_adjoint(L: LinearMap, trials: int = 50, seed: int = 0) -> float:
    """Probe ``<L u, v> == <u, L* v>`` with random pairs; return the worst defect.

    Each pair's defect is relative: ``|<Lu,v> - <u,L*v>| / (1 + |<Lu,v>|)``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        u = rng.standard_normal(L.domain_dim)
        v = rng.standard_normal(L.codomain_dim)
        lhs = float(np.dot(L.apply(u), v))
        rhs = float(np.dot(u, L.adjoint_apply(v)))
        defect = abs(lhs - rhs) / (1.0 + abs(lhs))
        worst = max(worst, defect)
    return worst


class _TridiagonalFactor:
    """``A = L D L^T`` of a symmetric positive-definite tridiagonal matrix.

    ``d`` and ``e`` are the ``dpttrf`` output: the pivots and the unit
    lower bidiagonal's sub-diagonal (one unread zero when n = 1).
    """

    def __init__(self, d: np.ndarray, e: np.ndarray):
        self._d, self._e = d, e

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, info = dpttrs(self._d, self._e, rhs)
        if info != 0:
            raise ValueError(f"dpttrs rejected argument {-info}")
        return x


def _pivot_check(pivots: np.ndarray, what: str) -> None:
    floor = pivots.shape[0] * np.finfo(float).eps * float(np.max(pivots, initial=0.0))
    if not np.all(pivots > floor):
        raise ValueError(f"{what} is singular: smallest pivot {float(np.min(pivots)):.3e}, "
                         f"floor {floor:.3e}")


def _tridiagonal_factor(system: sp.spmatrix, what: str) -> Optional[_TridiagonalFactor]:
    """LDL^T through ``dpttrf`` when ``system`` is symmetric with bandwidth <= 1, else None."""
    # the column of each stored entry, read from the CSC pointers
    cols = np.repeat(np.arange(system.shape[1], dtype=system.indices.dtype),
                     np.diff(system.indptr))
    if (np.abs(system.indices - cols) > 1).any():
        return None
    sub = system.diagonal(-1)
    if not np.array_equal(sub, system.diagonal(1)):
        return None
    # f2py rejects an empty off-diagonal; at n = 1 LAPACK reads none
    d, e, info = dpttrf(system.diagonal(), sub if sub.size else np.zeros(1),
                        overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise ValueError(f"{what} is singular (leading minor of order {info} "
                         "is not positive definite)")
    _pivot_check(d, what)
    return _TridiagonalFactor(d, e)


def spd_factor(system, what: str = "system") -> "_TridiagonalFactor | SuperLU":
    """Factor of a symmetric positive-definite matrix; ``.solve(rhs)`` solves with it.

    A symmetric tridiagonal matrix (bandwidth <= 1, diagonal included) is
    factored as ``L D L^T`` by LAPACK ``dpttrf`` and solved by ``dpttrs``.
    Any other is a sparse LU from ``splu``: the fill-reducing ordering is
    symmetric and no off-diagonal pivot is taken, so the factor is a
    Cholesky-like ``P A P^T = L U``.  A semidefinite matrix can still
    factor without error and return solutions of size ~1e15, so every
    pivot (``D``, or the diagonal of ``U``) must exceed
    ``n * eps * max pivot``; otherwise, as on an exactly singular
    matrix, ``ValueError("<what> is singular ...")`` is raised.
    """
    system = sp.csc_matrix(system, dtype=float)
    tridiagonal = _tridiagonal_factor(system, what)
    if tridiagonal is not None:
        return tridiagonal
    try:
        lu = splu(system, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise ValueError(f"{what} is singular ({exc})") from exc
    _pivot_check(lu.U.diagonal(), what)
    return lu


def load_matrix_csv(path) -> np.ndarray:
    """Dense matrix from CSV: one row per line, comma-separated decimals."""
    with warnings.catch_warnings():  # no data: matrix_operator rejects the empty result
        warnings.simplefilter("ignore", UserWarning)
        a = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"non-finite entries in {path}")
    return a
