"""Independent reference solvers used to pin expected optima.

None of these share iteration machinery with the splitting solvers:
the 1-D total-variation optimum comes from an exact taut-string
construction, separable shrinkage problems from their closed form,
quadratic-fidelity TV problems from an accelerated projected gradient
method on the dual, and fixed-boundary weighted-gradient problems from
an explicit dual-field stationarity certificate.  The dual method's
step shares the solvers' projection onto the domain of ``f*``; its
answer counts only when its duality gap, ``f*(b)`` included, certifies
it, and no step can bias that gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .asb import SplitProblem
from .diagnostics import dual_value
from .functionals import dual_resolvent
from .linops import LinearMap

__all__ = [
    "taut_string_denoise",
    "taut_string_dirichlet",
    "soft_threshold_optimum",
    "DualSolveResult",
    "tv_dual_solve",
    "interior_stationarity_defect",
]


def taut_string_denoise(y: np.ndarray, mu: float) -> np.ndarray:
    """Exact minimizer of ``0.5 ||u - y||^2 + mu * sum |u_{i+1} - u_i|``.

    Constructs the shortest path through the radius-``mu`` tube around
    the running sums of y (pinned at both ends); its increments are the
    denoised signal.
    """
    return _taut_string(y, mu)


def _taut_string(y: np.ndarray, mu: float, total=None) -> np.ndarray:
    # total, when given, is the exact value of the running sums' end, which
    # cumsum's roundoff would otherwise leave slightly off
    y = np.ascontiguousarray(y, dtype=float)
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if mu == 0.0:
        return y.copy()
    n = y.shape[0]
    r = np.empty(n + 1)
    r[0] = 0.0
    np.cumsum(y, out=r[1:])
    if total is not None:
        r[n] = total
    lo = r - mu
    hi = r + mu
    lo[0] = hi[0] = r[0]
    lo[n] = hi[n] = r[n]
    return kernels.taut_string_slopes(lo, hi)


def taut_string_dirichlet(y: np.ndarray, mu: float) -> np.ndarray:
    """Exact minimizer of ``0.5||u-y||^2 + mu*(sum |u_{i+1}-u_i| + |u_n|)``.

    The extra boundary term treats the signal as continued by a pinned
    zero past its last sample.  Solved by odd reflection: the problem on
    the antisymmetric extension ``(y, 0, -reverse(y))`` has a unique,
    antisymmetric minimizer whose middle sample is exactly zero, and its
    first n samples minimize the pinned objective.  The extension sums to
    0, so its running sums end at exactly 0.0: a string left straight by a
    large ``mu`` is then exactly 0, not the roundoff of the sum.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    extended = np.concatenate([y, [0.0], -y[::-1]])
    u_ext = _taut_string(extended, mu, total=0.0)
    return u_ext[:n]


def soft_threshold_optimum(y: np.ndarray, mu: float) -> np.ndarray:
    """Closed-form minimizer of ``0.5 ||u - y||^2 + mu ||u||_1``."""
    y = np.asarray(y, dtype=float)
    return np.sign(y) * np.maximum(np.abs(y) - float(mu), 0.0)


@dataclass(frozen=True)
class DualSolveResult:
    u: np.ndarray
    b: np.ndarray
    primal_value: float
    gap: float
    iterations: int
    certified: bool  # gap <= gap_tol * (1 + |primal_value|), the stopping test


def _opnorm_sq_bound(L: LinearMap) -> float:
    """Gershgorin bound on ``||L||^2``: the largest absolute row sum of ``L^T L``."""
    return float(np.max(abs(L.matrix.T @ L.matrix).sum(axis=1)))


_DUAL_MAX_ITER = 200_000


def tv_dual_solve(problem: SplitProblem, gap_tol: float = 1e-10,
                  b0: Optional[np.ndarray] = None) -> DualSolveResult:
    """Gap-certified optimum for quadratic-fidelity shrinkage problems.

    Requires ``g`` quadratic and ``f`` of l1 / weighted-l21 type, whose
    conjugate is the indicator of a box or a product of balls.  Runs an
    accelerated projected gradient iteration on the dual (a smooth
    quadratic over that set) with step ``rho / B``: ``B``, the largest
    absolute row sum of ``L^T L``, bounds ``||L||^2`` from above
    (Gershgorin), so the step is at most the inverse of the dual
    gradient's Lipschitz constant ``||L||^2 / rho``.  Each step projects
    with the solvers' own ``dual_resolvent``.  The primal candidate comes
    from the dual gradient.  The iteration stops when the duality gap,
    the primal value minus ``diagnostics.dual_value`` (``f*(b)``
    included, so an iterate off the domain of ``f*`` has an infinite
    gap), falls below ``gap_tol * (1 + |primal|)``, which certifies
    ``primal_value`` to that accuracy by weak duality, or after 200 000
    iterations, returning the gap it reached; ``certified`` says which.
    The gap is measured at the start and every 25 iterations.  The
    iteration starts from ``b0``, projected onto the domain of ``f*``, or
    from 0; a start already certified returns with ``iterations`` 0.  The
    answer rests on the gap alone, which weak duality bounds whatever the
    start and whatever the step.
    """
    if problem.g.label != "quadratic":
        raise ValueError("dual solve needs a quadratic fidelity term")
    L, f = problem.L, problem.f
    if f.label not in ("l1", "weighted_l21"):
        raise ValueError(f"dual solve needs an l1 or weighted_l21 f, not {f.label!r}")
    y = problem.g.params["target"]
    rho = problem.g.params["scale"]

    lip = _opnorm_sq_bound(L) / rho
    step = 1.0 / lip if lip > 0 else 1.0
    ly = L.apply(y)

    def primal_pair(b):
        u = y - L.adjoint_apply(b) / rho
        primal = problem.g.value(u) + f.value(L.apply(u))
        gap = primal - dual_value(problem, b)
        return u, primal, gap, gap <= gap_tol * (1.0 + abs(primal))

    b = np.zeros(f.dim) if b0 is None else dual_resolvent(f, b0, 1.0)
    z = b.copy()
    t_acc = 1.0
    for k in range(_DUAL_MAX_ITER + 1):
        if k:  # k = 0 tests the start itself
            grad = L.apply(L.adjoint_apply(z)) / rho - ly
            b_new = dual_resolvent(f, z - step * grad, 1.0)
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
            z = b_new + ((t_acc - 1.0) / t_new) * (b_new - b)
            b, t_acc = b_new, t_new
        if k % 25 == 0 or k == _DUAL_MAX_ITER:
            u, primal, gap, certified = primal_pair(b)
            if certified:
                break
    return DualSolveResult(u=u, b=b, primal_value=float(primal), gap=float(gap), iterations=k,
                           certified=bool(certified))


def interior_stationarity_defect(problem: SplitProblem, u: np.ndarray) -> float:
    """Certifies a candidate for fixed-boundary weighted-gradient problems.

    Builds the dual field with one ball-boundary element per gradient
    block (requires every block of ``L u`` to be nonzero, where the
    norm's subdifferential is a singleton) and returns the sup norm of
    its discrete divergence on the free coordinates.  A defect of zero
    proves ``u`` minimizes ``f(L u)`` over the affine feasible set, so
    the candidate's energy is the exact optimal value.
    """
    f, g, L = problem.f, problem.g, problem.L
    if f.label != "weighted_l21" or g.label != "indicator_point":
        raise ValueError("certificate applies to fixed-boundary weighted-gradient problems")
    u = np.asarray(u, dtype=float)
    w = f.params["weights"]
    bs = f.params["block_size"]
    img = L.apply(u).reshape(-1, bs)
    nrm = kernels._block_norms(img)
    if np.any(nrm[w > 0] == 0.0):
        return np.inf
    q = img * (w / np.where(nrm > 0, nrm, 1.0))[:, None]
    q[nrm == 0.0] = 0.0
    div = L.adjoint_apply(q.reshape(-1))
    free = ~g.params["mask"]
    if not np.any(free):
        return 0.0
    return float(np.max(np.abs(div[free])))
