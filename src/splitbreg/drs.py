"""Douglas-Rachford splitting over two resolvent oracles.

The exact recursion advances ``x`` through the firmly nonexpansive map
built from the two resolvents and tracks the shadow point ``p = JB(x)``:

    x_next = JA(2 p - x) + x - p
    p_next = JB(x_next)

This is the exact reference recursion: run over the resolvents that
:func:`splitbreg.asb.dual_resolvents` builds, it reproduces the
instrumented :func:`splitbreg.asb.run_drs` bit for bit.  The module
holds that recursion, the stopping rule both solvers share, the
non-finite iterate error and the Fejer monotonicity report; every
certificate, the inclusion defect included, is defined in
:mod:`splitbreg.diagnostics`.  The inexact algorithm's errors live in
one place, the approximate ASB sweep
(:func:`splitbreg.asb.asb_iterate_approx`), which Setzer's
correspondence maps to an inexact DRS.  Its increments' norm is
:func:`splitbreg.kernels._norm`, finite for a finite vector even where
its sum of squares overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .kernels import _norm

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


@dataclass(frozen=True, eq=False)
class DrsState:
    x: np.ndarray
    p: np.ndarray
    k: int = 0


@dataclass(frozen=True)
class StoppingRule:
    """Relative fixed-point residual stop, shared by both solvers.

    Fires when ``max(||x_{k+1}-x_k||, ||p_{k+1}-p_k||) <= tol*(1+||x_k||)``
    and both increments are finite: an increment with an infinite entry
    has norm ``inf`` and must not count.  ``fired`` takes ``||x_k||`` as
    given; both drivers hand it :func:`~splitbreg.kernels._norm` of
    ``x_k``, the package's one vector norm, which is finite for every
    finite vector whose norm is below the float maximum (``tol*(1+inf)``
    would pass any finite increment), and take the increments by the
    same norm.
    ``tol=None`` disables the residual test (run exactly ``max_iter``
    iterations), which fixed-length comparison experiments rely on; any
    other ``tol`` must be finite and nonnegative (a nan one would never
    fire, an infinite one fire at the first finite step).
    """

    tol: Optional[float] = 1e-9
    max_iter: int = 100_000

    def __post_init__(self):
        if self.tol is not None and not 0 <= self.tol < math.inf:
            raise ValueError("tol must be finite and nonnegative, or None")
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


def drs_step(state: DrsState, pair: ResolventPair, lam: float) -> DrsState:
    """One exact Douglas-Rachford update.

    The stored ``state.p`` stands in for ``JB(state.x)``; the step
    maintains that identity, returning ``p = JB(x_new)``.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    k = state.k + 1
    x_new = state.x + pair.JA(2.0 * state.p - state.x, lam) - state.p
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
    """Run the exact recursion from the 1-D ``x0``, ``p0`` until the stopping rule fires."""
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
        xi = _norm(nxt.x - prev.x)
        x_incs.append(xi)
        if stop.fired(xi, _norm(nxt.p - prev.p), _norm(prev.x)):
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
    at every step; ``trace`` is a sequence of states or records, each
    with an ``x`` field.
    """
    xs = [np.asarray(s.x, dtype=float) for s in trace]
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

