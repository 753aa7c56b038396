"""Independent reference solvers used to pin expected optima.

None of these share iteration machinery with the splitting solvers:
the 1-D total-variation optimum comes from an exact taut-string
construction, separable shrinkage problems from their closed form,
quadratic-fidelity TV problems from a gap-certified projected gradient
method on the dual, and fixed-boundary weighted-gradient problems from
an explicit dual-field stationarity certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .asb import SplitProblem
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
    y = np.ascontiguousarray(y, dtype=float)
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if mu == 0.0:
        return y.copy()
    n = y.shape[0]
    r = np.empty(n + 1)
    r[0] = 0.0
    np.cumsum(y, out=r[1:])
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
    first n samples minimize the pinned objective.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    extended = np.concatenate([y, [0.0], -y[::-1]])
    u_ext = taut_string_denoise(extended, mu)
    return u_ext[:n]


def soft_threshold_optimum(y: np.ndarray, mu: float) -> np.ndarray:
    """Closed-form minimizer of ``0.5 ||u - y||^2 + mu ||u||_1``."""
    y = np.ascontiguousarray(y, dtype=float)
    return kernels.soft_threshold(y, np.full(y.shape[0], float(mu)))


@dataclass(frozen=True)
class DualSolveResult:
    u: np.ndarray
    b: np.ndarray
    primal_value: float
    gap: float
    iterations: int


def _project_dual(f, b: np.ndarray) -> np.ndarray:
    """Project onto the domain of f* for the shrinkage-type catalogue."""
    if f.label == "l1":
        w = f.params["weights"]
        return np.clip(b, -w, w)
    if f.label == "weighted_l21":
        w = f.params["weights"]
        bs = f.params["block_size"]
        blocks = b.reshape(-1, bs)
        nrm = np.linalg.norm(blocks, axis=1)
        scale = np.ones_like(nrm)
        over = nrm > w
        scale[over] = w[over] / nrm[over]
        return (blocks * scale[:, None]).reshape(-1)
    raise ValueError(f"no dual projection for functional {f.label!r}")


def _opnorm_sq_bound(L: LinearMap) -> float:
    """Gershgorin bound on ``||L||^2``: the largest absolute row sum of ``L^T L``."""
    return float(np.max(abs(L.matrix.T @ L.matrix).sum(axis=1)))


_DUAL_MAX_ITER = 200_000


def tv_dual_solve(problem: SplitProblem, gap_tol: float = 1e-10) -> DualSolveResult:
    """Gap-certified optimum for quadratic-fidelity shrinkage problems.

    Requires ``g`` quadratic and ``f`` of l1 / weighted-l21 type.  Runs
    an accelerated projected gradient iteration on the dual (a smooth
    quadratic over a product of boxes or balls) with step ``rho / B``:
    ``B``, the largest absolute row sum of ``L^T L``, bounds ``||L||^2``
    from above (Gershgorin), so the step is at most the inverse of the
    dual gradient's Lipschitz constant ``||L||^2 / rho``.  The primal
    candidate comes from the dual gradient.  The iteration stops when the
    measured duality gap falls below ``gap_tol * (1 + |primal|)``, which
    certifies ``primal_value`` to that accuracy by weak duality, or after
    200 000 iterations, returning the gap it reached.
    """
    if problem.g.label != "quadratic":
        raise ValueError("dual solve needs a quadratic fidelity term")
    L, f = problem.L, problem.f
    y = problem.g.params["target"]
    rho = problem.g.params["scale"]

    lip = _opnorm_sq_bound(L) / rho
    step = 1.0 / lip if lip > 0 else 1.0

    def primal_pair(b):
        u = y - L.adjoint_apply(b) / rho
        primal = problem.g.value(u) + f.value(L.apply(u))
        ltb = L.adjoint_apply(b)
        dual = -(float(np.dot(ltb, ltb)) / (2.0 * rho) - float(np.dot(ltb, y)))
        return u, primal, primal - dual

    b = np.zeros(f.dim)
    z = b.copy()
    t_acc = 1.0
    u, primal, gap = primal_pair(b)
    k = 0
    for k in range(1, _DUAL_MAX_ITER + 1):
        grad = L.apply(L.adjoint_apply(z)) / rho - L.apply(y)
        b_new = _project_dual(f, z - step * grad)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        z = b_new + ((t_acc - 1.0) / t_new) * (b_new - b)
        b, t_acc = b_new, t_new
        if k % 25 == 0 or k == _DUAL_MAX_ITER:
            u, primal, gap = primal_pair(b)
            if gap <= gap_tol * (1.0 + abs(primal)):
                break
    return DualSolveResult(u=u, b=b, primal_value=float(primal), gap=float(gap), iterations=k)


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
    nrm = np.linalg.norm(img, axis=1)
    if np.any(nrm[w > 0] == 0.0):
        return np.inf
    q = img * (w / np.where(nrm > 0, nrm, 1.0))[:, None]
    q[nrm == 0.0] = 0.0
    div = L.adjoint_apply(q.reshape(-1))
    free = ~g.params["mask"]
    if not np.any(free):
        return 0.0
    return float(np.max(np.abs(div[free])))
