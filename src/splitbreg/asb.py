"""Alternating split Bregman iteration, exact and approximate.

For ``min g(u) + f(L u)`` with penalty ``lam``, each sweep performs

    1. u-step:  minimize g(u) + (lam/2) ||b + L u - d||^2
    2. d-step:  d = prox_f(b + L u, 1/lam)
    3. update:  b = b + L u - d

Shipped problems restrict g to quadratic / point-indicator / zero, so
the u-step is a sparse symmetric positive-definite linear system in
``L^T L``, factorized once per solver by
:func:`splitbreg.linops.spd_factor` (LAPACK's tridiagonal LDL^T when
the system is tridiagonal, as every 1-D grid operator and the identity
make it, ``splu`` otherwise) and solved directly at every sweep.  That
keeps the exact algorithm exact, which the runtime equivalence
instrumentation depends on.

The same machinery exposes the two dual-side resolvents, so the
Douglas-Rachford recursion on the dual problem runs from the same
solver.  Under the correspondence ``x = lam (b + d)``, ``p = lam b``
the two recursions agree to roundoff.  Each form is one step function
(the ASB sweep, the dual DRS step) under one driver loop.  Exact runs
advance a twin of the other form in lockstep for 200 iterations, on
the shared factor; their mapped mismatch per iterate is the
``setzer_defects`` series (``nan`` where no twin ran), and its worst,
k = 0 included, is ``RunTrace.twin_defect``, the correspondence's certificate.
The twin advances only its iterate and checks it is finite; the run's
residual, energy and increment series are measured on the run alone,
and a DRS twin never maps its iterate back to (b, d).
A problem's u-step factor is built once, on first use, and shared by
its runs, their twins and :func:`dual_resolvents`.

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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .diagnostics import IterateRecord, RunTrace
from .drs import NonFiniteIterateError, ResolventPair, StoppingRule
from .functionals import ErrorSchedule, ProxFunctional, dual_resolvent
from .linops import LinearMap, spd_factor

__all__ = [
    "SplitProblem",
    "AsbState",
    "initial_state",
    "asb_u_step",
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

    @cached_property
    def _usolver(self) -> "_UStepSolver":
        # built on first use, then shared by every run, twin and resolvent
        # pair on this problem, so one factorization serves a whole CLI run
        return _UStepSolver(self)


@dataclass(frozen=True, eq=False)
class AsbState:
    d: np.ndarray
    b: np.ndarray


def initial_state(problem: SplitProblem, b0=None, d0=None) -> AsbState:
    """Default initialization b0 = d0 = 0; any choice is admissible."""
    m = problem.f.dim
    b = np.zeros(m) if b0 is None else np.array(b0, dtype=float, copy=True)
    d = np.zeros(m) if d0 is None else np.array(d0, dtype=float, copy=True)
    if b.shape != (m,) or d.shape != (m,):
        raise ValueError("b0/d0 must live in the codomain of L")
    return AsbState(d=d, b=b)


class _UStepSolver:
    """Minimizes ``g(u) + (lam/2) ||L u + c||^2`` for the supported g.

    One instance per problem: the sparse normal matrix ``L^T L`` (restricted
    to the free coordinates for the point indicator, plus ``(rho/lam) I``
    for the quadratic) is factorized once with :func:`spd_factor`, and
    every solve reuses the factor.  The right-hand side's constant part,
    ``(rho/lam) target`` or the negated anchor term, is computed here too,
    so a solve is one adjoint apply, one subtraction and the factor's solve.
    """

    def __init__(self, problem: SplitProblem):
        g, L = problem.g, problem.L
        if g.label not in _U_STEP_LABELS:
            raise ValueError(
                f"u-step needs g in {_U_STEP_LABELS}, got {g.label!r}: "
                "only these make the subproblem an SPD linear solve"
            )
        self.L = L
        self.mode = g.label
        a = L.matrix
        self._factor = None

        if self.mode == "quadratic":
            rho_lam = float(g.params["scale"]) / problem.lam
            self._rhs0 = rho_lam * np.asarray(g.params["target"], dtype=float)
            system = a.T @ a + rho_lam * sp.identity(L.domain_dim)
        elif self.mode == "indicator_point":
            mask = np.asarray(g.params["mask"], dtype=bool)
            self.anchor_ext = np.zeros(L.domain_dim)
            self.anchor_ext[mask] = np.asarray(g.params["anchor"], dtype=float)[mask]
            self.free = ~mask
            if not np.any(self.free):
                return  # fully constrained: no system to solve
            a_free = a[:, np.flatnonzero(self.free)]
            system = a_free.T @ a_free
            self._rhs0 = -(a_free.T @ (a @ self.anchor_ext))
        else:
            system = a.T @ a
        try:
            self._factor = spd_factor(system, what="u-step normal system")
        except ValueError as exc:
            raise ValueError(
                f"{exc}: the normal operator L*L "
                "(restricted to free coordinates, plus any quadratic curvature) "
                "must be invertible for this subproblem to have a unique "
                f"minimizer (operator flag: injective={L.injective})"
            ) from exc

    def solve(self, b: np.ndarray, d: np.ndarray) -> np.ndarray:
        return self.solve_c(b - d)

    def solve_c(self, c: np.ndarray) -> np.ndarray:
        """argmin_u g(u) + (lam/2) ||L u + c||^2."""
        ltc = self.L.adjoint_apply(c)
        # rhs0 - v is rhs0 + (-v) bit for bit, so the negation folds into the subtraction
        if self.mode == "quadratic":
            return self._factor.solve(self._rhs0 - ltc)
        if self.mode == "indicator_point":
            u = self.anchor_ext.copy()
            if self._factor is not None:
                u[self.free] = self._factor.solve(self._rhs0 - ltc[self.free])
            return u
        return self._factor.solve(-ltc)


def asb_u_step(problem: SplitProblem, state: AsbState) -> np.ndarray:
    """Minimizer of step 1 at the current (b, d); one-shot entry point."""
    return problem._usolver.solve(state.b, state.d)


def _unit_perturbation(rng: np.random.Generator, dim: int) -> np.ndarray:
    w = rng.standard_normal(dim)
    n = float(np.linalg.norm(w))
    if n == 0.0:  # pragma: no cover - probability zero
        w[0] = 1.0
        n = 1.0
    return w / n


_TWIN_ITERATIONS = 200  # lockstep window of an exact run's twin


def _norm(v: np.ndarray) -> float:
    # what np.linalg.norm computes for a 1-D float64 vector, bit for bit
    return math.sqrt(v.dot(v))


class _Step(NamedTuple):
    """What one iteration of either recursion hands the driver.

    Only the run measures it: its residual is ``||d - Lu||``, with the d
    the u-step was paired with, and its energy ``g(u) + f(f_at)``.  A
    twin's step is checked for finiteness and otherwise dropped.
    """

    finite: tuple  # (name, vector) pairs that must be finite, in check order
    u: np.ndarray
    Lu: np.ndarray
    f_at: np.ndarray  # where the energy evaluates f
    alpha: float = 0.0
    beta: float = 0.0


class _Recursion:
    """One solver form's iterate, from ``x0 = lam (b0 + d0)``, ``p0 = lam b0``.

    ``x``/``p`` are attributes; ``bd()`` gives ``(b, d)``.  Steps rebind
    to fresh arrays, so records may keep references.
    """

    energy_basis = "iterate"

    def __init__(self, problem: SplitProblem, usolver: _UStepSolver, init: AsbState):
        self.problem, self.usolver = problem, usolver
        b = np.array(init.b, dtype=float, copy=True)
        d = np.array(init.d, dtype=float, copy=True)
        self.x = problem.lam * (b + d)
        self.p = problem.lam * b
        self._bd = (b, d)

    def bd(self) -> tuple:
        return self._bd


class _AsbSweep(_Recursion):
    """The alternating sweep; ``x``/``p`` are the mapped view of (b, d)."""

    def __init__(self, problem, usolver, init, schedule: Optional[ErrorSchedule] = None,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(problem, usolver, init)
        self.schedule, self.rng = schedule, rng

    def step(self, k: int) -> _Step:
        lam, L, f = self.problem.lam, self.problem.L, self.problem.f
        b, d = self._bd
        u = u_exact = self.usolver.solve(b, d)
        Lu = Lu_exact = L.apply(u)

        m_k = self.schedule.magnitude(k) if self.schedule is not None else 0.0
        alpha = 0.0
        if m_k > 0.0:
            if L.injective:
                w = _unit_perturbation(self.rng, L.domain_dim)
                img = L.apply(w)
                u = u + w * (m_k / float(np.linalg.norm(img)))
                Lu = L.apply(u)
            else:
                Lu = Lu + _unit_perturbation(self.rng, L.codomain_dim) * m_k
                self.energy_basis = "unperturbed"
            alpha = float(np.linalg.norm(Lu - Lu_exact))

        z = b + Lu
        d_new = f.prox(z, 1.0 / lam)
        beta = 0.0
        if m_k > 0.0:
            d_new = d_new + _unit_perturbation(self.rng, f.dim) * m_k
            beta = m_k
        b_new = z - d_new

        self._bd = (b_new, d_new)
        self.x, self.p = lam * (b_new + d_new), lam * b_new
        return _Step(finite=(("u", u_exact), ("d", d_new), ("b", b_new)), u=u, Lu=Lu,
                     f_at=Lu if self.energy_basis == "iterate" else Lu_exact,
                     alpha=alpha, beta=beta)


class _DrsStep(_Recursion):
    """The dual Douglas-Rachford step: ``JA`` is one u-solve, ``JB`` the Moreau resolvent.

    (b, d) come from (x, p) by the inverse map ``b = p/lam``, ``d = x/lam - b``,
    computed only when ``bd()`` is called: a twin never calls it.
    """

    def bd(self) -> tuple:
        if self._bd is None:
            lam = self.problem.lam
            b = self.p / lam
            self._bd = (b, self.x / lam - b)
        return self._bd

    def step(self, k: int) -> _Step:
        lam, L, f = self.problem.lam, self.problem.L, self.problem.f
        x, p = self.x, self.p
        y = 2.0 * p - x
        u = self.usolver.solve_c(y / lam)
        Lu = L.apply(u)
        x_new = x + (y + lam * Lu) - p
        p_new = dual_resolvent(f, x_new, lam)

        self.x, self.p, self._bd = x_new, p_new, None
        return _Step(finite=(("u", u), ("x", x_new), ("p", p_new)), u=u, Lu=Lu, f_at=Lu)


def _advance(rec: _Recursion, k: int) -> _Step:
    step = rec.step(k)
    for what, v in step.finite:
        if not np.isfinite(v).all():
            raise NonFiniteIterateError(k, what)
    return step


def _record(rec: _Recursion, k: int, u: Optional[np.ndarray]) -> IterateRecord:
    b, d = rec.bd()
    return IterateRecord(k=k, u=u, d=d, b=b, x=rec.x, p=rec.p)


def _mismatch(a: _Recursion, b: _Recursion) -> float:
    # an ASB sweep's (x, p) is lam (b + d), lam b, computed as the mapping does
    return max(_norm(a.x - b.x), _norm(a.p - b.p))


def _drive(run: _Recursion, stop: Optional[StoppingRule], record_stride: int, kind: str,
           twin: Optional[_Recursion] = None) -> RunTrace:
    """The one iteration loop: series, snapshots, finiteness checks, stopping.

    The series (residual, energy, increments) are measured on ``run``
    only.  A ``twin`` of the other solver form, from the same start,
    advances only its iterate, in lockstep for the first
    ``_TWIN_ITERATIONS`` iterations; their mapped mismatch fills
    ``setzer_defects`` (``nan`` where no twin ran), and ``twin_defect``
    is its worst value, k = 0 included.
    """
    stop = stop or StoppingRule()
    g, f = run.problem.g, run.problem.f
    records = [_record(run, 0, None)]
    residuals, energies, defects, x_incs, alphas, betas = ([] for _ in range(6))
    twin_defect = None if twin is None else _mismatch(run, twin)
    converged = False
    k = 0
    u = None

    for k in range(1, stop.max_iter + 1):
        x_prev, p_prev, d_prev = run.x, run.p, run.bd()[1]
        step = _advance(run, k)
        u = step.u
        residuals.append(_norm(d_prev - step.Lu))
        energies.append(g.value(u) + f.value(step.f_at))
        alphas.append(step.alpha)
        betas.append(step.beta)
        x_inc = _norm(run.x - x_prev)
        p_inc = _norm(run.p - p_prev)
        x_incs.append(x_inc)

        defect = np.nan
        if twin is not None and k <= _TWIN_ITERATIONS:
            _advance(twin, k)
            defect = _mismatch(run, twin)
            twin_defect = max(twin_defect, defect)
        defects.append(defect)
        if record_stride and k % record_stride == 0:
            records.append(_record(run, k, u))
        if stop.fired(x_inc, p_inc, _norm(x_prev)):
            converged = True
            break

    if records[-1].k != k:
        records.append(_record(run, k, u))

    return RunTrace(
        kind=kind, iterates=records,
        residuals=np.array(residuals), energies=np.array(energies),
        setzer_defects=np.array(defects), x_increments=np.array(x_incs),
        alpha_injected=np.array(alphas), beta_injected=np.array(betas),
        converged=converged, n_iter=k, energy_basis=run.energy_basis,
        twin_defect=twin_defect,
        twin_iterates=0 if twin is None else min(k, _TWIN_ITERATIONS) + 1,
    )


def asb_iterate(problem: SplitProblem, init: Optional[AsbState] = None,
                stop: Optional[StoppingRule] = None, record_stride: int = 1) -> RunTrace:
    """Run the exact three-step sweep, with a lockstep DRS twin, until the rule fires."""
    init = init if init is not None else initial_state(problem)
    usolver = problem._usolver
    return _drive(_AsbSweep(problem, usolver, init), stop, record_stride, "asb",
                  twin=_DrsStep(problem, usolver, init))


def asb_iterate_approx(problem: SplitProblem, schedule: ErrorSchedule,
                       init: Optional[AsbState] = None,
                       stop: Optional[StoppingRule] = None,
                       seed: int = 0, record_stride: int = 1) -> RunTrace:
    """Approximate sweep with scheduled subproblem perturbations.

    After the exact u-step the image ``L u`` is displaced by a vector of
    norm ``schedule.magnitude(k)``: along a direction pulled back through
    L when L is injective (so the stored u stays consistent with its
    image), in the image space directly otherwise (energies then refer to
    the unperturbed u and the trace says so).  The d-step result is
    displaced by the same magnitude in place.  Injected magnitudes are
    recorded; a zero magnitude skips injection entirely, so a zero
    schedule reproduces the exact trace bit for bit.  No twin runs: the
    correspondence is an exact-mode property.
    """
    init = init if init is not None else initial_state(problem)
    sweep = _AsbSweep(problem, problem._usolver, init, schedule=schedule,
                      rng=np.random.default_rng(seed))
    return _drive(sweep, stop, record_stride, "asb_approx")


def dual_resolvents(problem: SplitProblem) -> ResolventPair:
    """Resolvents of the two dual-side operators, realized through the steps.

    The first resolvent is evaluated by one u-subproblem solve
    (``J(y) = y + lam * L u_hat`` with ``u_hat`` minimizing
    ``g(u) + (lam/2)||L u + y/lam||^2``); the second via the Moreau
    identity on the prox of f.  Both are bound to ``problem.lam``.
    """
    lam = problem.lam
    usolver = problem._usolver
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
            stop: Optional[StoppingRule] = None, record_stride: int = 1) -> RunTrace:
    """Douglas-Rachford run on the dual problem, fully instrumented.

    Starts from ``x0 = lam (b0 + d0)``, ``p0 = lam b0`` and advances the
    dual recursion, mapping each iterate back by ``b = p/lam``,
    ``d = x/lam - b``, so the trace carries the same columns as the
    alternating sweep.  An alternating-sweep twin runs in lockstep for the
    first 200 iterations; their mapped mismatch fills ``setzer_defects``.
    """
    init = init if init is not None else initial_state(problem)
    usolver = problem._usolver
    return _drive(_DrsStep(problem, usolver, init), stop, record_stride, "drs",
                  twin=_AsbSweep(problem, usolver, init))
