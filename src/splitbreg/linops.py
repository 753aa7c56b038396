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
:func:`spd_factor` rejects the singular normal system.  Both gradients,
1-D or 2-D, come from one per-axis builder: each axis's component is
the Kronecker product of that axis's 1-D difference matrix with an
identity (zero ghost) or a cell-origin selection (interior) on the
other axis, and the components are interleaved per node.  The builder
is memoized on the grid, so problems on equal grids share one operator
(the last ``_MEMO_SIZE`` stay cached), whose CSR must not be mutated.  A
:class:`GridSpec` holds integral node counts and finite positive
spacings; anything else is rejected.
:func:`spd_factor` is the one factorization used for symmetric
positive-definite solves (the u-step and the forward model), and the
matrix's structure picks its kind.  A system with a non-finite entry
(an assembly that overflowed) is refused before any factor is tried.
One reader, :func:`_axis_split`, reads a Kronecker sum
``T0 (x) I + I (x) T1`` of two tridiagonals from the system's own
diagonals and accepts it only if every stored diagonal matches the one
it implies to within 4 ulps of the largest entry; no matrix is rebuilt.
With one axis the system is tridiagonal, as every 1-D grid operator and
the identity give, and is factored as LDL^T by LAPACK ``dpttrf``; with
two, as the 2-D zero-ghost gradient and the interior nodes of the
cell-origin one give, it is diagonalized by one ``eigh_tridiagonal`` per
axis; any other system is factored once with ``splu``.  :func:`load_matrix_csv` reads the custom_matrix CSV.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
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
_EPS = np.finfo(float).eps
# entries kept by each structural memo (the grid gradients here, the u-step
# factors in ``asb``): enough for a few grids in one process, and bounded
_MEMO_SIZE = 8


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
        shape = tuple(shape) if np.iterable(shape) else (shape,)
        if not all(float(s).is_integer() for s in shape):
            raise ValueError(f"node counts must be integers, got {shape}")
        shape = tuple(int(s) for s in shape)
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
        if not all(0 < h < np.inf for h in spacing):
            raise ValueError(f"grid spacing must be finite and positive, got {spacing}")
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


@lru_cache(maxsize=_MEMO_SIZE)
def _grid_gradient(grid: GridSpec, ghost: bool) -> LinearMap:
    """Per-axis forward differences on a 1-D or 2-D grid, interleaved per node.

    Memoized on the (hashable) grid: equal grids get the same
    :class:`LinearMap`, so problems on one grid share one operator, and
    with it one u-step factor (see ``asb``).  The last ``_MEMO_SIZE``
    operators built stay cached.  A shared operator's CSR must not be
    mutated.

    Component ``axis`` is the Kronecker product, over the axes in order,
    of that axis's :func:`_forward_difference` and, on every other axis,
    ``eye(rows, n)``: the identity with a ghost, else the selection of the
    cell-origin nodes (all but the last index).  Row ``k`` of component
    ``c`` becomes row ``ndim * k + c``, so each node's components are
    adjacent; with one axis that interleave is the identity permutation.
    """
    rows = [n if ghost else n - 1 for n in grid.shape]
    components = [
        reduce(sp.kron, [_forward_difference(n, h, ghost) if ax == axis else sp.eye(r, n)
                         for ax, (n, r) in enumerate(zip(grid.shape, rows))])
        for axis, h in enumerate(grid.spacing)
    ]
    stacked = sp.vstack(components, format="csr")
    return _csr_map(stacked[np.arange(stacked.shape[0]).reshape(grid.ndim, -1).T.reshape(-1)])


def gradient_operator(grid: GridSpec) -> LinearMap:
    """Forward-difference gradient with zero (Dirichlet) ghost values.

    Each node carries one forward difference per axis; differences that
    would reach past the far boundary use a zero ghost value, so the
    operator maps n nodes to n differences per axis and is injective.
    The adjoint is the transpose of the stencil (a backward-difference
    negative divergence).  Per-node difference components are
    interleaved, giving contiguous blocks of size ``grid.ndim``.
    """
    return _grid_gradient(grid, ghost=True)


def interior_gradient_operator(grid: GridSpec) -> LinearMap:
    """Forward differences between adjacent nodes only (no ghost values).

    In 1-D this maps n nodes to n-1 differences; in 2-D the per-node
    difference pair is formed at the (n1-1)(n2-1) cell-origin nodes that
    have both forward neighbours.  Constants lie in the null space, so
    the operator is not injective; it is the natural gradient when the
    boundary values are carried by the unknowns themselves rather than
    by a zero extension.
    """
    return _grid_gradient(grid, ghost=False)


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
        # dpttrs would pass a longer rhs's tail through unsolved
        if len(rhs) != len(self._d):
            raise ValueError(f"right-hand side has length {len(rhs)}, "
                             f"system has order {len(self._d)}")
        return dpttrs(self._d, self._e, rhs)[0]


def _pivot_check(pivots: np.ndarray, what: str, kind: str = "pivot") -> None:
    floor = pivots.shape[0] * _EPS * float(pivots.max(initial=0.0))
    if not (pivots > floor).all():
        raise ValueError(f"{what} is singular: smallest {kind} {float(np.min(pivots)):.3e}, "
                         f"floor {floor:.3e}")


class _KroneckerSumFactor:
    """``A = T0 (x) I + I (x) T1`` through one eigendecomposition per axis.

    With ``T_k = V_k diag(w_k) V_k^T`` and the right-hand side reshaped
    to ``(n0, n1)`` in row-major node order, ``A^-1 R`` is
    ``V0 ((V0^T R V1) / (w0 (+) w1)) V1^T``: four small dense products
    and one division by the eigenvalue sums ``eigsum``.
    """

    def __init__(self, v0: np.ndarray, v1: np.ndarray, eigsum: np.ndarray):
        self._v0, self._v0t = v0, np.ascontiguousarray(v0.T)
        self._v1, self._v1t = v1, np.ascontiguousarray(v1.T)
        self._eigsum = eigsum

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        coeffs = self._v0t @ rhs.reshape(self._eigsum.shape) @ self._v1
        coeffs /= self._eigsum
        return (self._v0 @ coeffs @ self._v1t).reshape(-1)


# a split read back from the system must match it entrywise to this many ulps
# of its largest entry: the assembly may round the diagonal's sums
_KRONECKER_ULPS = 4


def _axis_split(system: sp.csc_matrix, offsets: np.ndarray) -> "tuple | None":
    """``(d0, e0, d1, e1)`` when ``system`` is ``T0 (x) I_m + I_n0 (x) T1``, else None.

    ``T_k`` is the symmetric tridiagonal with diagonal ``d_k`` and
    off-diagonal ``e_k``.  The nonzero entries must sit at offsets 0, +-1
    and +-m for one m > 1 dividing the order n.  With no entry stored
    beyond +-1 the system is tridiagonal: the one-axis case n0 = 1, m = n,
    ``d0 = [0]``.  ``T1`` is read from the first diagonal block and ``T0``
    from the first column of every block, and the split is accepted only
    if each stored diagonal matches the diagonal it implies to within
    ``_KRONECKER_ULPS`` ulps of the largest entry.  With one axis the
    diagonal and super-diagonal are ``T1`` as read, so only the
    sub-diagonal is compared.
    """
    n = system.shape[0]
    far = np.abs(offsets) > 1
    spans = np.unique(np.abs(offsets[far & (system.data != 0)])) if far.any() else [n]
    if len(spans) != 1 or n % max(spans[0], 1):  # n = 0: the empty system is tridiagonal
        return None
    m = int(spans[0])
    diag, up, down = system.diagonal(), system.diagonal(1), system.diagonal(-1)
    d1, e1 = diag[:m], up[:m - 1]
    if m == n:  # one axis: T1 is the diagonal and super-diagonal as read
        d0, e0, pairs = np.zeros(1), np.empty(0), [(down, up)]
    else:
        far_up = system.diagonal(m)
        d0, e0 = diag[::m] - diag[0], far_up[::m]
        coupling = np.tile(np.append(e1, 0.0), n // m)[:-1]
        pairs = [(diag, (d0[:, None] + d1).reshape(-1)), (up, coupling), (down, coupling),
                 (far_up, np.repeat(e0, m)), (system.diagonal(-m), np.repeat(e0, m))]
    for stored, implied in pairs:
        defect = np.abs(stored - implied).max(initial=0.0)
        # an exact match needs no scale; a nan defect fails the bound
        if defect and not defect <= _KRONECKER_ULPS * _EPS * np.abs(system.data).max(initial=0.0):
            return None
    return d0, e0, d1, e1


def spd_factor(system, what: str = "system") -> \
        "_TridiagonalFactor | _KroneckerSumFactor | SuperLU":
    """Factor of a symmetric positive-definite matrix; ``.solve(rhs)`` solves with it.

    The factor is chosen by the matrix's structure, which one reader,
    :func:`_axis_split`, finds and checks against the system's own
    diagonals under one rule (each within ``_KRONECKER_ULPS`` ulps of the
    largest entry):

    - symmetric tridiagonal, the one-axis split: ``L D L^T`` by LAPACK
      ``dpttrf``, solved by ``dpttrs``;
    - a Kronecker sum ``T0 (x) I + I (x) T1`` of two tridiagonals, the
      2-D grid systems with an identity or zero-ghost structure on each
      axis: one ``eigh_tridiagonal`` per axis, solved by four dense
      products;
    - any other: a sparse LU from ``splu``; the fill-reducing ordering is
      symmetric and no off-diagonal pivot is taken, so the factor is a
      Cholesky-like ``P A P^T = L U``.

    A semidefinite matrix can still factor without error and return
    solutions of size ~1e15, so every pivot (``D``, the eigenvalue sums,
    or the diagonal of ``U``) must exceed ``n * eps * max pivot``;
    otherwise, as on an exactly singular matrix,
    ``ValueError("<what> is singular ...")`` is raised.  A matrix with a
    non-finite entry, such as one whose assembly overflowed, is refused
    with ``ValueError("<what> has non-finite entries")`` before any
    structure is read or factor tried.
    """
    system = sp.csc_matrix(system, dtype=float)
    if not np.isfinite(system.data).all():
        raise ValueError(f"{what} has non-finite entries")
    # row minus column of each stored entry, the column read from the CSC pointers
    offsets = system.indices - np.repeat(np.arange(system.shape[1], dtype=system.indices.dtype),
                                         np.diff(system.indptr))
    split = _axis_split(system, offsets)
    if split is None:
        try:
            lu = splu(system, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                      options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise ValueError(f"{what} is singular ({exc})") from exc
        _pivot_check(lu.U.diagonal(), what)
        return lu
    d0, e0, d1, e1 = split
    if d0.size == 1:
        # f2py rejects an empty off-diagonal; at n = 1 LAPACK reads none
        d, e, info = dpttrf(d1, e1 if e1.size else np.zeros(1), overwrite_d=1, overwrite_e=1)
        if info != 0:
            raise ValueError(f"{what} is singular (leading minor of order {info} "
                             "is not positive definite)")
        _pivot_check(d, what)
        return _TridiagonalFactor(d, e)
    w0, v0 = eigh_tridiagonal(d0, e0)
    w1, v1 = eigh_tridiagonal(d1, e1)
    eigsum = w0[:, None] + w1[None, :]
    _pivot_check(eigsum.reshape(-1), what, kind="eigenvalue")
    return _KroneckerSumFactor(v0, v1, eigsum)


def load_matrix_csv(path) -> np.ndarray:
    """Dense matrix from CSV: one row per line, comma-separated decimals."""
    with warnings.catch_warnings():  # no data: matrix_operator rejects the empty result
        warnings.simplefilter("ignore", UserWarning)
        a = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"non-finite entries in {path}")
    return a
