"""Douglas-Rachford splitting over two resolvent oracles.

The exact recursion advances ``x`` through the firmly nonexpansive map
built from the two resolvents and tracks the shadow point ``p = JB(x)``:

    x_next = JA(2 p - x) + x - p
    p_next = JB(x_next)

The same step optionally perturbs the two resolvent evaluations by
explicit vectors; with zero perturbations it is the exact step, bit for
bit.  Perturbations are injected here as vectors, not as inexact inner
solvers: the alternating-splitting layer is responsible for turning
subproblem tolerances into such vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

__all__ = [
    "ResolventPair",
    "DrsState",
    "StoppingRule",
    "NonFiniteIterateError",
    "drs_step",
    "drs_iterate",
    "DrsRun",
    "fejer_check",
    "FejerReport",
    "inclusion_defect",
]


class NonFiniteIterateError(RuntimeError):
    """An iterate became NaN/Inf; carries the iteration index."""

    def __init__(self, iteration: int, what: str):
        super().__init__(f"non-finite {what} at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True, eq=False)
class ResolventPair:
    """Resolvents ``JA(x, lam)`` and ``JB(x, lam)`` of two maximal monotone maps."""

    JA: Callable[[np.ndarray, float], np.ndarray]
    JB: Callable[[np.ndarray, float], np.ndarray]
    dim: int


@dataclass(frozen=True, eq=False)
class DrsState:
    x: np.ndarray
    p: np.ndarray
    k: int = 0


@dataclass(frozen=True)
class StoppingRule:
    """Relative fixed-point residual stop, shared by both solvers.

    Fires when ``max(||x_{k+1}-x_k||, ||p_{k+1}-p_k||) <= tol*(1+||x_k||)``
    and both increments are finite: an overflowed increment compares
    ``inf <= inf`` against an overflowed ``||x_k||`` and must not count.
    ``tol=None`` disables the residual test (run exactly ``max_iter``
    iterations), which fixed-length comparison experiments rely on.
    """

    tol: Optional[float] = 1e-9
    max_iter: int = 100_000

    def __post_init__(self):
        if self.tol is not None and self.tol < 0:
            raise ValueError("tol must be nonnegative or None")
        if self.max_iter < 0:
            # 0 is allowed: an initialization-only run
            raise ValueError("max_iter must be >= 0")

    def fired(self, x_inc: float, p_inc: float, x_norm: float) -> bool:
        if self.tol is None or not (math.isfinite(x_inc) and math.isfinite(p_inc)):
            return False
        return max(x_inc, p_inc) <= self.tol * (1.0 + x_norm)


def _require_finite(v: np.ndarray, k: int, what: str) -> None:
    if not np.all(np.isfinite(v)):
        raise NonFiniteIterateError(k, what)


def drs_step(
    state: DrsState,
    pair: ResolventPair,
    lam: float,
    alpha_k: Optional[np.ndarray] = None,
    beta_k: Optional[np.ndarray] = None,
) -> DrsState:
    """One Douglas-Rachford update; beta shifts the JB value, alpha the x update.

    The stored ``state.p`` stands in for ``JB(state.x)`` (the exact step
    maintains that identity).  Without perturbations, or with zero ones,
    this is the exact update.  The returned ``p`` is the unperturbed
    shadow ``JB(x_new)``.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    k = state.k + 1
    p_tilde = state.p
    if beta_k is not None and np.any(beta_k != 0.0):
        p_tilde = p_tilde + beta_k
    x_new = state.x + pair.JA(2.0 * p_tilde - state.x, lam) - p_tilde
    if alpha_k is not None and np.any(alpha_k != 0.0):
        x_new = x_new + alpha_k
    _require_finite(x_new, k, "x")
    p_new = pair.JB(x_new, lam)
    _require_finite(p_new, k, "p")
    return DrsState(x=x_new, p=p_new, k=k)


@dataclass
class DrsRun:
    states: List[DrsState]
    x_increments: np.ndarray
    converged: bool

    @property
    def final(self) -> DrsState:
        return self.states[-1]


def drs_iterate(
    pair: ResolventPair,
    x0: np.ndarray,
    p0: Optional[np.ndarray] = None,
    lam: float = 1.0,
    stop: Optional[StoppingRule] = None,
) -> DrsRun:
    """Run the exact recursion until the stopping rule fires."""
    stop = stop or StoppingRule()
    x0 = np.asarray(x0, dtype=float)
    p0 = np.zeros_like(x0) if p0 is None else np.asarray(p0, dtype=float)
    states = [DrsState(x=x0, p=p0, k=0)]
    x_incs = []
    converged = False
    for _ in range(stop.max_iter):
        prev = states[-1]
        nxt = drs_step(prev, pair, lam)
        states.append(nxt)
        xi = float(np.linalg.norm(nxt.x - prev.x))
        pi = float(np.linalg.norm(nxt.p - prev.p))
        x_incs.append(xi)
        if stop.fired(xi, pi, float(np.linalg.norm(prev.x))):
            converged = True
            break
    return DrsRun(states=states, x_increments=np.array(x_incs), converged=converged)


@dataclass(frozen=True)
class FejerReport:
    violations: int
    max_violation: float


def fejer_check(trace: Sequence, x_hat: np.ndarray) -> FejerReport:
    """Quantitative Fejer monotonicity along an exact-mode trace.

    Checks ``||x_{k+1}-xh||^2 + ||x_{k+1}-x_k||^2 <= ||x_k-xh||^2 + 1e-9``
    at every step; ``trace`` is a sequence of states with an ``x`` field
    or of raw x vectors.
    """
    xs = [np.asarray(getattr(s, "x", s), dtype=float) for s in trace]
    if len(xs) < 2:
        raise ValueError("trace must contain at least two iterates")
    x_hat = np.asarray(x_hat, dtype=float)
    violations = 0
    worst = 0.0
    for a, b in zip(xs[:-1], xs[1:]):
        lhs = float(np.dot(b - x_hat, b - x_hat)) + float(np.dot(b - a, b - a))
        rhs = float(np.dot(a - x_hat, a - x_hat))
        gap = lhs - rhs
        worst = max(worst, gap)
        if gap > 1e-9:
            violations += 1
    return FejerReport(violations=violations, max_violation=worst)


def inclusion_defect(pair: ResolventPair, x_hat: np.ndarray, p_hat: np.ndarray, lam: float) -> float:
    """Residual of the optimality inclusion at a converged pair.

    With ``q = (x_hat - p_hat)/lam``, the shadow relation ``p = JB(x)``
    puts ``q`` in ``B(p_hat)`` and the fixed-point equation puts ``-q``
    in ``A(p_hat)``, so ``0 in A(p_hat) + B(p_hat)``.  Both memberships
    are checked through their resolvent identities
    ``JB(p_hat + lam q) == p_hat`` and ``JA(p_hat - lam q) == p_hat``;
    the defect is the larger residual norm.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    p_hat = np.asarray(p_hat, dtype=float)
    q = (x_hat - p_hat) / lam
    da = float(np.linalg.norm(pair.JA(p_hat - lam * q, lam) - p_hat))
    db = float(np.linalg.norm(pair.JB(p_hat + lam * q, lam) - p_hat))
    return max(da, db)
