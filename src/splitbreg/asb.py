"""Alternating split Bregman iteration, exact and approximate.

For ``min g(u) + f(L u)`` with penalty ``lam``, each sweep performs

    1. u-step:  minimize g(u) + (lam/2) ||b + L u - d||^2
    2. d-step:  d = prox_f(b + L u, 1/lam)
    3. update:  b = b + L u - d

Shipped problems restrict g to quadratic / point-indicator / zero, so
the u-step is a sparse symmetric positive-definite linear system in
``L^T L``, factorized once per solver with ``splu`` (see
:func:`splitbreg.linops.spd_factor`) and solved directly at every
sweep.  That keeps the exact algorithm exact, which the runtime
equivalence instrumentation depends on.

The same machinery exposes the two dual-side resolvents, so the
Douglas-Rachford recursion on the dual problem can be run as an
independent twin; under the correspondence ``x = lam (b + d)``,
``p = lam b`` the two runs must agree to roundoff, and every trace
records the observed drift (``setzer_defects``).

The approximate variant perturbs each subproblem result by a vector of
scheduled norm: the u-step error is measured (and injected) in the
image space of L, the d-step error directly.  With a zero schedule the
code path is identical to the exact sweep, bit for bit.

A joint variant that minimizes over (u, d) simultaneously predates the
alternating sweep; it is deliberately not provided here, since the
joint subproblem is as hard as the original and everything this package
verifies concerns the alternating form.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .diagnostics import IterateRecord, RunTrace
from .drs import NonFiniteIterateError, ResolventPair, StoppingRule
from .functionals import ErrorSchedule, ProxFunctional, dual_resolvent
from .linops import LinearMap, spd_factor

__all__ = [
    "SplitProblem",
    "AsbState",
    "SetzerView",
    "initial_state",
    "setzer_view",
    "asb_u_step",
    "asb_d_step",
    "asb_iterate",
    "asb_iterate_approx",
    "dual_resolvents",
    "run_drs",
]

_U_STEP_LABELS = ("quadratic", "indicator_point", "zero")


@dataclass(frozen=True, eq=False)
class SplitProblem:
    """Problem data ``(g, f, L)`` plus the penalty."""

    g: ProxFunctional
    f: ProxFunctional
    L: LinearMap
    lam: float = 1.0

    def __post_init__(self):
        if self.L.domain_dim != self.g.dim:
            raise ValueError(f"g lives on dim {self.g.dim}, L domain is {self.L.domain_dim}")
        if self.L.codomain_dim != self.f.dim:
            raise ValueError(f"f lives on dim {self.f.dim}, L codomain is {self.L.codomain_dim}")
        if not self.lam > 0:
            raise ValueError("lambda must be positive")


@dataclass(frozen=True, eq=False)
class AsbState:
    u: Optional[np.ndarray]
    d: np.ndarray
    b: np.ndarray
    k: int = 0


@dataclass(frozen=True, eq=False)
class SetzerView:
    x: np.ndarray
    p: np.ndarray


def initial_state(problem: SplitProblem, b0=None, d0=None) -> AsbState:
    """Default initialization b0 = d0 = 0; any choice is admissible."""
    m = problem.f.dim
    b = np.zeros(m) if b0 is None else np.array(b0, dtype=float, copy=True)
    d = np.zeros(m) if d0 is None else np.array(d0, dtype=float, copy=True)
    if b.shape != (m,) or d.shape != (m,):
        raise ValueError("b0/d0 must live in the codomain of L")
    return AsbState(u=None, d=d, b=b, k=0)


def setzer_view(state: AsbState, lam: float) -> SetzerView:
    return SetzerView(x=lam * (state.b + state.d), p=lam * state.b)


class _UStepSolver:
    """Minimizes ``g(u) + (lam/2) ||L u + c||^2`` for the supported g.

    One instance per run: the sparse normal matrix ``L^T L`` (restricted
    to the free coordinates for the point indicator, plus ``(rho/lam) I``
    for the quadratic) is factorized once with :func:`spd_factor`, and
    every solve reuses the factor.
    """

    def __init__(self, problem: SplitProblem, lam: Optional[float] = None):
        g, L = problem.g, problem.L
        if g.label not in _U_STEP_LABELS:
            raise ValueError(
                f"u-step needs g in {_U_STEP_LABELS}, got {g.label!r}: "
                "only these make the subproblem an SPD linear solve"
            )
        self.L = L
        self.lam = problem.lam if lam is None else float(lam)
        self.mode = g.label
        a = L.matrix
        self._factor = None

        if self.mode == "quadratic":
            self.rho = float(g.params["scale"])
            self.target = np.asarray(g.params["target"], dtype=float)
            system = a.T @ a + (self.rho / self.lam) * sp.identity(L.domain_dim)
        elif self.mode == "indicator_point":
            mask = np.asarray(g.params["mask"], dtype=bool)
            self.anchor_ext = np.zeros(L.domain_dim)
            self.anchor_ext[mask] = np.asarray(g.params["anchor"], dtype=float)[mask]
            self.free = ~mask
            if not np.any(self.free):
                return  # fully constrained: no system to solve
            a_free = a[:, np.flatnonzero(self.free)]
            system = a_free.T @ a_free
            self._anchor_term = a_free.T @ (a @ self.anchor_ext)
        else:
            system = a.T @ a
        try:
            self._factor = spd_factor(system, what="u-step normal system")
        except ValueError as exc:
            raise ValueError(
                f"{exc}: the normal operator L*L "
                "(restricted to free coordinates, plus any quadratic curvature) "
                "must be invertible for this subproblem to have a unique "
                f"minimizer (operator flags: injective={L.injective}, "
                f"normal_surjective={L.normal_surjective})"
            ) from exc

    def solve(self, b: np.ndarray, d: np.ndarray) -> np.ndarray:
        return self.solve_c(b - d)

    def solve_c(self, c: np.ndarray) -> np.ndarray:
        """argmin_u g(u) + (lam/2) ||L u + c||^2."""
        neg_ltc = -self.L.adjoint_apply(c)
        if self.mode == "quadratic":
            return self._factor.solve((self.rho / self.lam) * self.target + neg_ltc)
        if self.mode == "indicator_point":
            u = self.anchor_ext.copy()
            if self._factor is not None:
                u[self.free] = self._factor.solve(neg_ltc[self.free] - self._anchor_term)
            return u
        return self._factor.solve(neg_ltc)


def asb_u_step(problem: SplitProblem, state: AsbState) -> np.ndarray:
    """Minimizer of step 1 at the current (b, d); one-shot entry point."""
    return _UStepSolver(problem).solve(state.b, state.d)


def asb_d_step(problem: SplitProblem, state: AsbState, u_new: np.ndarray) -> np.ndarray:
    """Unique minimizer of step 2: a prox of f at ``b + L u_new``."""
    return problem.f.prox(state.b + problem.L.apply(u_new), 1.0 / problem.lam)


def _unit_perturbation(rng: np.random.Generator, dim: int) -> np.ndarray:
    w = rng.standard_normal(dim)
    n = float(np.linalg.norm(w))
    if n == 0.0:  # pragma: no cover - probability zero
        w[0] = 1.0
        n = 1.0
    return w / n


def _run_asb(problem: SplitProblem, init: AsbState, stop: StoppingRule,
             schedule: Optional[ErrorSchedule], rng: Optional[np.random.Generator],
             record_stride: int, kind: str) -> RunTrace:
    lam = problem.lam
    L, f, g = problem.L, problem.f, problem.g
    usolver = _UStepSolver(problem)

    b = np.array(init.b, dtype=float, copy=True)
    d = np.array(init.d, dtype=float, copy=True)
    x_sh = lam * (b + d)
    p_sh = lam * b
    records = [IterateRecord(k=0, u=None, d=d.copy(), b=b.copy(), x=x_sh.copy(), p=p_sh.copy())]

    residuals, energies, defects, x_incs, walls = [], [], [], [], []
    alphas, betas = [], []
    x_prev = lam * (b + d)
    p_prev = lam * b
    energy_basis = "iterate"
    converged = False
    k = 0

    for k in range(1, stop.max_iter + 1):
        t0 = time.perf_counter()
        u = usolver.solve(b, d)
        if not np.all(np.isfinite(u)):
            raise NonFiniteIterateError(k, "u")
        Lu = L.apply(u)
        Lu_exact = Lu

        a_k = float(schedule.alpha(k)) if schedule is not None else 0.0
        alpha_actual = 0.0
        if a_k > 0.0:
            if problem.L.injective:
                w = _unit_perturbation(rng, L.domain_dim)
                img = L.apply(w)
                u = u + w * (a_k / float(np.linalg.norm(img)))
                Lu = L.apply(u)
            else:
                e = _unit_perturbation(rng, L.codomain_dim) * a_k
                Lu = Lu + e
                energy_basis = "unperturbed"
            alpha_actual = float(np.linalg.norm(Lu - Lu_exact))

        residuals.append(float(np.linalg.norm(d - Lu)))

        d_new = f.prox(b + Lu, 1.0 / lam)
        b_k = float(schedule.beta(k)) if schedule is not None else 0.0
        beta_actual = 0.0
        if b_k > 0.0:
            d_new = d_new + _unit_perturbation(rng, f.dim) * b_k
            beta_actual = b_k
        if not np.all(np.isfinite(d_new)):
            raise NonFiniteIterateError(k, "d")
        b_new = b + Lu - d_new
        if not np.all(np.isfinite(b_new)):
            raise NonFiniteIterateError(k, "b")

        # shadow Douglas-Rachford recursion through the resolvent identities
        ja_val = lam * (b + Lu - d)
        x_sh = ja_val + x_sh - p_sh
        p_sh = lam * (b + Lu - d_new)

        b, d = b_new, d_new
        x_k = lam * (b + d)
        p_k = lam * b
        defects.append(max(float(np.linalg.norm(x_sh - x_k)),
                           float(np.linalg.norm(p_sh - p_k))))

        if energy_basis == "iterate":
            energies.append(g.value(u) + f.value(Lu))
        else:
            energies.append(g.value(u) + f.value(Lu_exact))
        alphas.append(alpha_actual)
        betas.append(beta_actual)

        x_inc = float(np.linalg.norm(x_k - x_prev))
        p_inc = float(np.linalg.norm(p_k - p_prev))
        x_incs.append(x_inc)
        walls.append(time.perf_counter() - t0)

        if record_stride and k % record_stride == 0:
            records.append(IterateRecord(k=k, u=u.copy(), d=d.copy(), b=b.copy(),
                                         x=x_k, p=p_k))
        fired = stop.fired(x_inc, p_inc, float(np.linalg.norm(x_prev)))
        x_prev, p_prev = x_k, p_k
        if fired:
            converged = True
            break

    if records[-1].k != k:
        records.append(IterateRecord(k=k, u=u.copy(), d=d.copy(), b=b.copy(),
                                     x=x_prev, p=p_prev))

    return RunTrace(
        kind=kind, lam=lam, iterates=records,
        residuals=np.array(residuals), energies=np.array(energies),
        setzer_defects=np.array(defects), x_increments=np.array(x_incs),
        wall_times=np.array(walls), alpha_injected=np.array(alphas),
        beta_injected=np.array(betas), converged=converged, n_iter=k,
        stride=record_stride, energy_basis=energy_basis,
    )


def asb_iterate(problem: SplitProblem, init: Optional[AsbState] = None,
                stop: Optional[StoppingRule] = None, record_stride: int = 1) -> RunTrace:
    """Run the exact three-step sweep until the stopping rule fires."""
    init = init if init is not None else initial_state(problem)
    stop = stop or StoppingRule()
    return _run_asb(problem, init, stop, schedule=None, rng=None,
                    record_stride=record_stride, kind="asb")


def asb_iterate_approx(problem: SplitProblem, schedule: ErrorSchedule,
                       init: Optional[AsbState] = None,
                       stop: Optional[StoppingRule] = None,
                       seed: int = 0, record_stride: int = 1) -> RunTrace:
    """Approximate sweep with scheduled subproblem perturbations.

    After the exact u-step the image ``L u`` is displaced by a vector of
    norm ``alpha_k``: along a direction pulled back through L when L is
    injective (so the stored u stays consistent with its image), in the
    image space directly otherwise (energies then refer to the
    unperturbed u and the trace says so).  The d-step result is
    displaced by ``beta_k`` in place.  Injected magnitudes are recorded;
    zero entries skip injection entirely, so a zero schedule reproduces
    the exact trace bit for bit.
    """
    init = init if init is not None else initial_state(problem)
    stop = stop or StoppingRule()
    rng = np.random.default_rng(seed)
    return _run_asb(problem, init, stop, schedule=schedule, rng=rng,
                    record_stride=record_stride, kind="asb_approx")


def dual_resolvents(problem: SplitProblem, lam: Optional[float] = None) -> ResolventPair:
    """Resolvents of the two dual-side operators, realized through the steps.

    The first resolvent is evaluated by one u-subproblem solve
    (``J(y) = y + lam * L u_hat`` with ``u_hat`` minimizing
    ``g(u) + (lam/2)||L u + y/lam||^2``); the second via the Moreau
    identity on the prox of f.  Both are bound to a fixed ``lam``.
    """
    lam = problem.lam if lam is None else float(lam)
    usolver = _UStepSolver(problem, lam)
    L, f = problem.L, problem.f

    def JA(y, lam_arg):
        if lam_arg != lam:
            raise ValueError(f"resolvent pair was built for lam={lam}, got {lam_arg}")
        u_hat = usolver.solve_c(y / lam)
        return y + lam * L.apply(u_hat)

    def JB(y, lam_arg):
        if lam_arg != lam:
            raise ValueError(f"resolvent pair was built for lam={lam}, got {lam_arg}")
        return dual_resolvent(f, y, lam)

    return ResolventPair(JA=JA, JB=JB, dim=f.dim)


def run_drs(problem: SplitProblem, init: Optional[AsbState] = None,
            stop: Optional[StoppingRule] = None, record_stride: int = 1,
            lam_override: Optional[float] = None) -> RunTrace:
    """Douglas-Rachford twin run on the dual problem, fully instrumented.

    Starts from ``x0 = lam (b0 + d0)``, ``p0 = lam b0`` and advances the
    dual recursion; alongside it reconstructs the corresponding
    splitting variables, so the trace carries the same residual, energy,
    and drift columns as the alternating sweep and can be compared to it
    iterate by iterate.
    """
    init = init if init is not None else initial_state(problem)
    stop = stop or StoppingRule()
    lam = problem.lam if lam_override is None else float(lam_override)
    L, f, g = problem.L, problem.f, problem.g
    usolver = _UStepSolver(problem, lam)

    b_sh = np.array(init.b, dtype=float, copy=True)
    d_sh = np.array(init.d, dtype=float, copy=True)
    x = lam * (b_sh + d_sh)
    p = lam * b_sh
    records = [IterateRecord(k=0, u=None, d=d_sh.copy(), b=b_sh.copy(), x=x.copy(), p=p.copy())]

    residuals, energies, defects, x_incs, walls = [], [], [], [], []
    converged = False
    k = 0
    u = None

    for k in range(1, stop.max_iter + 1):
        t0 = time.perf_counter()
        y = 2.0 * p - x
        u = usolver.solve_c(y / lam)
        if not np.all(np.isfinite(u)):
            raise NonFiniteIterateError(k, "u")
        Lu = L.apply(u)
        x_new = x + (y + lam * Lu) - p
        if not np.all(np.isfinite(x_new)):
            raise NonFiniteIterateError(k, "x")
        p_new = dual_resolvent(f, x_new, lam)
        if not np.all(np.isfinite(p_new)):
            raise NonFiniteIterateError(k, "p")

        residuals.append(float(np.linalg.norm(d_sh - Lu)))
        d_sh = f.prox(b_sh + Lu, 1.0 / lam)
        b_sh = b_sh + Lu - d_sh
        defects.append(max(float(np.linalg.norm(x_new - lam * (b_sh + d_sh))),
                           float(np.linalg.norm(p_new - lam * b_sh))))
        energies.append(g.value(u) + f.value(Lu))

        x_inc = float(np.linalg.norm(x_new - x))
        p_inc = float(np.linalg.norm(p_new - p))
        x_incs.append(x_inc)
        walls.append(time.perf_counter() - t0)
        fired = stop.fired(x_inc, p_inc, float(np.linalg.norm(x)))
        x, p = x_new, p_new
        if record_stride and k % record_stride == 0:
            records.append(IterateRecord(k=k, u=u.copy(), d=d_sh.copy(), b=b_sh.copy(),
                                         x=x.copy(), p=p.copy()))
        if fired:
            converged = True
            break

    if records[-1].k != k:
        records.append(IterateRecord(k=k, u=u.copy(), d=d_sh.copy(), b=b_sh.copy(),
                                     x=x.copy(), p=p.copy()))

    zeros = np.zeros(len(residuals))
    return RunTrace(
        kind="drs", lam=lam, iterates=records,
        residuals=np.array(residuals), energies=np.array(energies),
        setzer_defects=np.array(defects), x_increments=np.array(x_incs),
        wall_times=np.array(walls), alpha_injected=zeros, beta_injected=zeros.copy(),
        converged=converged, n_iter=k, stride=record_stride,
    )
