"""Alternating split Bregman iteration, exact and approximate.

For ``min g(u) + f(L u)`` with penalty ``lam``, each sweep performs

    1. u-step:  minimize g(u) + (lam/2) ||b + L u - d||^2
    2. d-step:  d = prox_f(b + L u, 1/lam)
    3. update:  b = b + L u - d

Shipped problems restrict g to quadratic / point-indicator / zero, each
a pinned set plus a curvature (the indicator's mask, with no curvature;
nothing pinned, with ``scale/lam`` for the quadratic and 0 for zero g).
So the u-step, the first resolvent of the dual Douglas-Rachford
iteration, is one sparse symmetric positive-definite linear system,
``L^T L`` on the coordinates g leaves free plus the curvature on its
diagonal (empty when g pins every coordinate), factorized once per
structure by :func:`splitbreg.linops.spd_factor` and solved directly
at every sweep.  The system's structure picks the factor: LAPACK's
tridiagonal LDL^T when it is tridiagonal, as every 1-D grid operator and the
identity make it; one eigendecomposition per axis when it is a
Kronecker sum of two tridiagonals, as 2-D least gradient and Dirichlet
tv2d make it; ``splu`` otherwise (free-boundary tv2d, most custom
matrices).  That
keeps the exact algorithm exact, which the runtime equivalence
instrumentation depends on.

The same machinery exposes the two dual-side resolvents, so the
Douglas-Rachford recursion on the dual problem runs from the same
solver.  Under the correspondence ``x = lam (b + d)``, ``p = lam b``
the two recursions agree to roundoff.  Each form (the ASB sweep, the
dual DRS step) is written once, as a ``_Form``: its point read from
(x, p), its u-solve's input there, and the point an ``L u`` takes it to.
One run class, ``_Run``, steps by its own form and checks the other,
under one driver loop.  A run starts from the given ``init`` or else
from b0 = d0 = 0, defaulted in one place, ``_Run``.  Every run, exact or
approximate, checks Setzer's correspondence at each of its first 200
iterations, with no second recursion: the other form's map is applied
once at the run's own point, reusing the run's u-solve, and its one-step
defect against the run's next point, less the d-step error an
approximate sweep injected, plus the roundoff difference of the two
forms' u-solve inputs, is the ``setzer_defects`` series (``nan`` past
the window).  Their sum bounds how far a twin of the other form from
the same start would drift (the argument is in ``_drive``); the loop
keeps no sum, and :func:`splitbreg.diagnostics.equivalence_certificate`
takes it from the series.  The run's residual, energy and increment
series are measured on the run alone.
The residual ``||d_k - L u_{k+1}||`` is the x-increment over ``lam`` in
every form (``x_{k+1} - x_k = lam (L u_{k+1} - d_k)``), so it is
recorded as that quotient; a DRS run maps (x, p) back to (b, d) only
for its snapshots, its final iterate and its checks.  Finiteness is
tested once per iteration, on the sum of the scalars the driver
computes anyway; the iterate vectors are scanned only when that sum is
not finite (the argument is in ``_drive``).
A problem's u-step solver is built once, on first use, and shared by
its runs and :func:`dual_resolvents`.  Its factor depends
only on L, the pinned set and the curvature, and is memoized on them
(the last ``_MEMO_SIZE`` kept): problems on one grid share one
operator (see :mod:`splitbreg.linops`), so a batch of signals of one
length at one ``lam`` factors once, and a point-indicator problem swept
over ``lam`` factors once, since its key holds no ``lam``.  Only the
anchor and the right-hand side's constant part are per problem.  A
shared factor's arrays, and its operator's CSR, must not be mutated.
The quadratic and zero g pin nothing, so their factor's solution is u
itself, with no anchor copy, gather or scatter; only the point
indicator embeds its free coordinates' solution in the anchor.  Each
run binds its kernels (``lam``, the u-solve, ``L.apply``, f's prox)
once, when it is built.

The approximate variant perturbs each subproblem result by a vector of
scheduled norm ``m_k``.  The u-step error is a feasible u whose image
is off by ``m_k``: a random direction with g's pinned coordinates
zeroed, scaled so that its image under L has norm ``m_k`` (none when no
free direction is left).  Under Setzer's correspondence it is an inexact
evaluation of the first DRS resolvent, which the check cannot see, since
it reuses the run's perturbed ``L u``; ``alpha_injected`` records it.
The d-step error is added to d directly.  It leaves ``x = lam (b + d)``
as it was and moves ``p = lam b`` by ``-lam`` times itself, an inexact
evaluation of the second resolvent; the step hands it to the check,
which subtracts it.  With a zero schedule the code path is identical to
the exact sweep, bit for bit, the check included.

A joint variant that minimizes over (u, d) simultaneously predates the
alternating sweep; it is deliberately not provided here, since the
joint subproblem is as hard as the original and everything this package
verifies concerns the alternating form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .diagnostics import IterateRecord, RunTrace
from .drs import ResolventPair, StoppingRule, _require_finite
from .functionals import ErrorSchedule, ProxFunctional, dual_resolvent
from .kernels import _norm
from .linops import _MEMO_SIZE, LinearMap, _matvec, spd_factor

__all__ = [
    "SplitProblem",
    "AsbState",
    "initial_state",
    "asb_iterate",
    "asb_iterate_approx",
    "dual_resolvents",
    "run_drs",
]

_U_STEP_LABELS = ("quadratic", "indicator_point", "zero")


@dataclass(frozen=True, eq=False)
class SplitProblem:
    """Problem data ``(g, f, L)`` plus the penalty.

    g must be one of ``_U_STEP_LABELS``, whose u-step is an exact linear
    solve; any other g is refused here, when the problem is built.
    """

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
        if self.g.label not in _U_STEP_LABELS:
            raise ValueError(f"g: label {self.g.label!r} has no exact u-step; "
                             f"use one of {_U_STEP_LABELS}")

    @cached_property
    def _usolver(self) -> "_UStepSolver":
        # built on first use, then shared by every run and resolvent pair
        # on this problem, so one factorization serves a whole CLI run
        return _UStepSolver(self)


@dataclass(frozen=True, eq=False)
class AsbState:
    d: np.ndarray
    b: np.ndarray


def initial_state(problem: SplitProblem) -> AsbState:
    """The default start b0 = d0 = 0; any (b0, d0) in L's codomain is admissible."""
    m = problem.f.dim
    return AsbState(d=np.zeros(m), b=np.zeros(m))


class _UStepStructure:
    """The part of a u-step that depends only on ``(L, pinned set, curvature)``.

    ``free`` holds F, the free coordinates (None when nothing is pinned:
    F is every coordinate and L is not copied); ``adjoint_free`` applies
    the CSR rows of ``L^T`` at F, which serve as ``L_F^T``; ``factor`` is
    the :func:`spd_factor` factor of ``L_F^T L_F`` plus the curvature on
    its diagonal.  Each row of ``L_F^T`` sums in the order the full
    adjoint's row does, so ``L_F^T c`` is ``(L^T c)[F]`` bit for bit,
    without the gather.  When every coordinate is pinned, F is empty and
    the empty system is factored.  Built through the memo
    :func:`_u_step_structure` and shared by every problem with the same
    key, so none of its arrays may be written.
    """

    def __init__(self, L: LinearMap, pinned: bytes, curvature: float):
        self.pinned = np.frombuffer(pinned, dtype=bool)
        a = L.matrix
        self.free = np.flatnonzero(~self.pinned) if self.pinned.any() else None
        a_free = a if self.free is None else a[:, self.free]
        # the rows of L^T at F, each summed in the adjoint's stored order; the
        # system product needs this transpose too, so it is formed once.  The
        # product is symmetric, so its CSR arrays read as CSC (``.T``, no copy)
        # are the system itself, in the format spd_factor reads
        at_free = a_free.T.tocsr()
        self.adjoint_free = _matvec(at_free)
        system = (at_free @ a_free).T
        if curvature:
            # + curvature I as a sum, not in place: a zero column of L leaves no
            # stored diagonal entry, and the sum inserts it
            system = system + curvature * sp.identity(system.shape[0], format="csc")
        self.factor = spd_factor(system, what="u-step normal system")


# Keyed on the operator itself (problems on one grid share it, see
# linops._grid_gradient), the pinned mask's bytes and the curvature; the
# point indicator's key holds no lam.  A refused system raises and is not
# cached.
_u_step_structure = lru_cache(maxsize=_MEMO_SIZE)(_UStepStructure)


class _UStepSolver:
    """Minimizes ``g(u) + (lam/2) ||L u + c||^2`` for the supported g.

    Every supported g is a pinned set plus a curvature: the point
    indicator pins its mask at its anchor, with no curvature; the
    quadratic pins nothing and has curvature ``scale/lam``; zero g has
    neither.  The structural part, F, ``L_F^T`` and the factor, comes
    from the memo :func:`_u_step_structure`, so problems that share L, the
    pinned set and the curvature share one factor.  Each problem adds its
    own ``_anchor`` (the pinned values, zero elsewhere) and the
    right-hand side's constant part, ``-L_F^T (L anchor)`` plus
    ``(scale/lam) target`` when the curvature is nonzero.  A solve is one
    apply of ``L_F^T``, one subtraction and the factor's solve on F.  The
    quadratic and zero g pin nothing, and ``solve_c`` returns the
    factor's fresh solution as u.  The point indicator's ``solve_c``
    copies the anchor and scatters the solution into F.  Which of the two
    applies is decided once, at build time (``_free`` is None when
    nothing is pinned).
    """

    def __init__(self, problem: SplitProblem):
        g, L = problem.g, problem.L
        # only the point indicator has a mask and an anchor, only the quadratic a scale
        pinned = np.zeros(L.domain_dim, dtype=bool) | g.params.get("mask", False)
        curvature = g.params.get("scale", 0.0) / problem.lam
        structure = _u_step_structure(L, pinned.tobytes(), curvature)
        self.pinned, self._free = structure.pinned, structure.free
        self._adjoint_free, self._factor = structure.adjoint_free, structure.factor
        self._anchor = np.where(self.pinned, g.params.get("anchor", 0.0), 0.0)
        self._rhs0 = -self._adjoint_free(L.matrix @ self._anchor)
        if curvature:
            self._rhs0 += curvature * g.params["target"]

    def solve_c(self, c: np.ndarray) -> np.ndarray:
        """argmin_u g(u) + (lam/2) ||L u + c||^2."""
        # rhs0 - v is rhs0 + (-v) bit for bit (up to the sign of a zero
        # entry), so the negation folds into the subtraction
        u_free = self._factor.solve(self._rhs0 - self._adjoint_free(c))
        if self._free is None:  # the solve's fresh array is u itself
            return u_free
        u = self._anchor.copy()
        u[self._free] = u_free
        return u


def _unit_perturbation(rng: np.random.Generator, dim: int) -> np.ndarray:
    w = rng.standard_normal(dim)
    n = _norm(w)
    if n == 0.0:  # pragma: no cover - probability zero
        w[0] = 1.0
        n = 1.0
    return w / n


_CHECK_ITERATIONS = 200  # every run checks Setzer's correspondence at k = 1 .. 200


class _Form(NamedTuple):
    """One solver form, written once as three plain functions of the run.

    ``point(run, x, p)`` reads the form's point from (x, p);
    ``input(run, point)`` is the u-solve's input there; and
    ``move(run, point, Lu, d_error=None)`` is the point an ``L u`` takes
    it to, as ``(x, p, bd, named)``: its (x, p) view, its (b, d) when
    the form keeps them (else None), and its (name, vector) pairs for
    the finiteness scan, in scan order.  A run's step applies its own
    form, and its check the other one, so each map has one copy.
    """

    point: Callable
    input: Callable
    move: Callable


def _sweep_point(run, x, p):
    """(b, d) from (x, p): ``b = p/lam``, ``d = x/lam - b``."""
    b = p / run.lam
    return b, x / run.lam - b


def _sweep_input(run, point):
    """``b - d``: the sweep's u-step minimizes ``g(u) + (lam/2)||L u + b - d||^2``."""
    return point[0] - point[1]


def _sweep_move(run, point, Lu, d_error=None):
    """The d-step ``d = prox_f(z, 1/lam)`` at ``z = b + L u``, then the b-update ``b = z - d``.

    The approximate sweep's d-step error, drawn by its step, is added to d
    before the b-update.
    """
    z = point[0] + Lu
    d = run.prox(z, run.t)
    if d_error is not None:
        d = d + d_error
    b = z - d
    # lam (b + d) as (b + d) lam, in place: IEEE products commute
    x = b + d
    x *= run.lam
    return x, run.lam * b, (b, d), (("d", d), ("b", b))


def _drs_point(run, x, p):
    """(x, p, y) with ``y = 2p - x``, the first resolvent's argument."""
    return x, p, 2.0 * p - x


def _drs_input(run, point):
    """``y/lam``: ``JA(y) = y + lam L u`` with u minimizing ``g(u) + (lam/2)||L u + y/lam||^2``."""
    return point[2] / run.lam


def _drs_move(run, point, Lu, d_error=None):
    """The x-update ``x + JA(y) - p`` and the shadow ``p = JB(x)``; DRS keeps no (b, d)."""
    x, p, y = point
    # x + (y + lam Lu) - p on one fresh array: each in-place add swaps
    # the operands of the same IEEE sum, which commutes bit for bit
    x_new = run.lam * Lu
    x_new += y
    x_new += x
    x_new -= p
    p_new = dual_resolvent(run.f, x_new, run.lam)
    return x_new, p_new, None, (("x", x_new), ("p", p_new))


_SWEEP = _Form(_sweep_point, _sweep_input, _sweep_move)
_DRS = _Form(_drs_point, _drs_input, _drs_move)


class _Run:
    """One run of either form, from ``x0 = lam (b0 + d0)``, ``p0 = lam b0``.

    ``init`` None is the zero start of :func:`initial_state`.  ``x``/``p``
    are attributes; ``bd()`` gives ``(b, d)``: every run keeps its
    start's, and a sweep run each step's; after a DRS step they are
    mapped from (x, p) by the sweep's ``point`` when a snapshot asks.
    Steps rebind to fresh arrays, so records may keep references.  The
    run's kernels (``lam``, the u-solve, ``L.apply`` and f's prox) and
    both forms' functions are bound here, once per run; the forms' are
    plain functions, since a bound method held on the run would put it
    in a reference cycle.

    ``step(k)`` applies the run's own form: its point (a sweep run's
    kept (b, d)), the u-solve at its input, ``L u`` and the move.  With
    a ``schedule`` whose ``m_k`` is positive, the approximate sweep
    perturbs u before the move and hands the move a d-step error.  It
    returns ``(named, c, u, Lu, alpha, d_error)``.  Only the run
    measures it: its energy is ``g(u) + f(Lu)``, and its residual
    ``||d - Lu||``, with the d the u-step was paired with, is the
    driver's x-increment over ``lam``, so a step need not return d.
    ``c`` is the u-solve's input,
    which the other form's is checked against; u and then the move's
    ``named`` vectors are scanned only when the iteration's scalar sum is
    not finite; ``alpha`` is ``||L u - L u_exact||``, 0 when nothing was
    injected; ``d_error`` is the d-step error, None when none was drawn.

    ``check(x, p, c, Lu, d_error)`` applies the other form once, at the
    run's previous point (x, p) and with the step's own ``c``, ``L u``
    and ``d_error``, and returns the one-step defect ``e`` against the
    point the step reached, with the other move's named vectors and
    ``x~ - x``, ``p~ - p - lam d_error`` for the finiteness scan (see
    :func:`_drive`).
    """

    def __init__(self, problem: SplitProblem, init: Optional[AsbState], form: _Form,
                 schedule: Optional[ErrorSchedule] = None,
                 rng: Optional[np.random.Generator] = None):
        self.problem, self.usolver = problem, problem._usolver
        self.lam, self.t, self.solve_c = problem.lam, 1.0 / problem.lam, self.usolver.solve_c
        self.apply, self.f, self.prox = problem.L.apply, problem.f, problem.f.prox
        self.schedule, self.rng = schedule, rng
        # a sweep run keeps its point, (b, d); a DRS run reads it from (x, p)
        self._point = None if form is _SWEEP else form.point
        self._input, self._move = form.input, form.move
        self._other_point, self._other_input, self._other_move = (
            _DRS if form is _SWEEP else _SWEEP)
        init = init if init is not None else initial_state(problem)
        b = np.array(init.b, dtype=float, copy=True)
        d = np.array(init.d, dtype=float, copy=True)
        self.x = problem.lam * (b + d)
        self.p = problem.lam * b
        self._bd = (b, d)

    def bd(self) -> tuple:
        return self._bd or _sweep_point(self, self.x, self.p)

    def step(self, k: int) -> tuple:
        point = self._bd if self._point is None else self._point(self, self.x, self.p)
        c = self._input(self, point)
        u = self.solve_c(c)
        Lu = self.apply(u)
        alpha, d_error = 0.0, None
        m_k = 0.0 if self.schedule is None else self.schedule.magnitude(k)
        if m_k > 0.0:
            w = _unit_perturbation(self.rng, u.size)
            w[self.usolver.pinned] = 0.0
            img_norm = _norm(self.apply(w))
            if img_norm > 0.0:  # else no free direction (L w = 0): inject nothing
                Lu_exact = Lu
                u = u + w * (m_k / img_norm)
                Lu = self.apply(u)
                alpha = _norm(Lu - Lu_exact)
            d_error = _unit_perturbation(self.rng, Lu.size) * m_k
        self.x, self.p, self._bd, named = self._move(self, point, Lu, d_error)
        return named, c, u, Lu, alpha, d_error

    def check(self, x: np.ndarray, p: np.ndarray, c: np.ndarray, Lu: np.ndarray,
              d_error: Optional[np.ndarray]) -> tuple:
        point = self._other_point(self, x, p)
        delta = self.lam * _norm(c - self._other_input(self, point))
        x_other, p_other, _, named = self._other_move(self, point, Lu)
        x_other -= self.x
        p_other -= self.p
        if d_error is not None:  # the sweep's p took -lam d_error, the DRS map's none
            p_other -= self.lam * d_error
        return 2.0 * _norm(x_other) + _norm(p_other) + delta, (named, x_other, p_other)


def _record(run: _Run, k: int, u: Optional[np.ndarray]) -> IterateRecord:
    b, d = run.bd()
    return IterateRecord(k=k, u=u, d=d, b=b, x=run.x, p=run.p)


def _drive(run: _Run, stop: Optional[StoppingRule], record_stride: int, kind: str) -> RunTrace:
    """The one iteration loop: series, snapshots, finiteness checks, stopping.

    The series (residual, energy, increments) are measured on ``run``.
    The residual ``||d_{k-1} - L u_k||`` is recorded as
    ``||x_k - x_{k-1}|| / lam``: for the ASB sweep
    ``x_k - x_{k-1} = lam (b_{k-1} + L u_k) - lam (b_{k-1} + d_{k-1})``,
    and a DRS step makes ``x_k = p_{k-1} + lam L u_k``, which is the same
    under ``d = (x - p)/lam``.  The two agree to roundoff.

    Setzer's correspondence is checked at each of the first
    ``_CHECK_ITERATIONS`` iterations: ``run.check`` applies the other
    form's map once, at (x_{k-1}, p_{k-1}) and with the run's own
    ``L u_k``, giving (x~_k, p~_k), and its one-step defect

        e_k = 2 ||x~_k - x_k|| + ||p~_k - p_k - lam d_error_k|| + delta_k,
        delta_k = lam ||c_run - c_other||,

    fills ``setzer_defects`` (``nan`` past the window); their sum, which
    :func:`~splitbreg.diagnostics.equivalence_certificate` takes from the
    series, is the correspondence's certificate.  ``d_error_k`` is the
    d-step error an approximate sweep injected, and 0 (no subtraction at
    all) for an exact run.
    ``delta_k`` compares the u-solve inputs of the two forms at the same
    point (``b - d`` against ``(2p - x)/lam``), which differ by
    roundoff: the check reuses the run's solve, and ``I - JA`` is
    nonexpansive, so the other form's x would move by at most
    ``delta_k`` with its own.  Why the sum bounds a
    twin, for an ``asb`` run, whose map is the DRS step
    ``x~ = x + JA(2p - x) - p``, ``p~ = JB(x~)``: the step is
    ``(x + R_A(2p - x))/2`` with ``R_A = 2 JA - I`` nonexpansive, so from
    a point whose p is off ``JB(x)`` by ``eps`` it lands within ``eps``
    of the map ``T`` of x itself, and ``T`` is nonexpansive (it is firmly
    nonexpansive; Lions & Mercier 1979).  The run's p_k is off
    ``JB(x_k)`` by at most ``||p~_k - p_k|| + ||x~_k - x_k||``, as
    ``JB`` is nonexpansive.  So a DRS twin from the same start stays,
    in x and in p, within the running sum of e_k of the run: the x-defect
    counts twice, for itself and for the p it leaves off ``JB(x)``.  This
    is exact-arithmetic reasoning; a twin run in floating point adds its
    own rounding, which the sum does not hold.  For a ``drs`` run the map
    is the sweep, and the same sum bounds a sweep twin where the sweep is
    nonexpansive, which is the correspondence being checked.  For an
    ``asb_approx`` run the map is the inexact DRS step of the paper's
    second result: its first resolvent is evaluated at the run's
    perturbed ``L u`` (an error of ``lam alpha_k``), and its second is
    off by ``-lam d_error_k``.  Fixed additive errors leave each map
    nonexpansive, so the sum bounds a DRS twin fed the same two errors.
    The run's p is ``lam (z - prox(z) - d_error)`` at
    ``z = b_{k-1} + L u_k``, and ``p~ = JB(lam z) = lam (z - prox(z))``,
    so the subtraction is exact up to roundoff; a difference of norms in
    its place would hide a small defect orthogonal to a large error.

    Finiteness is tested once per iteration, on one sum: the run's
    energy and two increments, plus e_k inside the window.  Only if the
    sum is not finite are vectors scanned, in order: the run's u, its
    move's named vectors (d and b for the sweep, x and p for DRS), then
    the check's, the other move's named vectors and ``x~ - x_k``,
    ``p~ - p_k``; the first non-finite one raises
    :class:`~splitbreg.drs.NonFiniteIterateError`.  That raises for the
    same vector at the same k as scanning every step would, because a
    non-finite entry of any scanned vector reaches a summand (non-finite
    values are absorbing under ``+``, ``-``, ``*`` and the norm, and
    ``inf - inf`` is nan):

    - the run's u: for a quadratic g its value ``g(u)`` (scale > 0,
      finite target) is not finite.  For the other g the u-step system
      is ``L^T L`` on the free coordinates and SPD, so every free column
      of L is nonzero and the entry reaches ``Lu``; pinned coordinates
      are copied from the finite anchor.  From ``Lu`` it reaches x, and
      so the x-increment: the DRS x is ``x + (y + lam Lu) - p``, and the
      ASB sweep's ``b = (b_prev + Lu) - d`` and then ``x = lam (b + d)``
      are not finite whatever the prox returns.  The approximate sweep's
      u is the perturbed one it records, and its ``Lu`` is recomputed
      from that u.
    - the ASB run's d or b reaches ``x = lam (b + d)``, and b reaches
      ``p = lam b``, so an increment.  The DRS run's x and p are the
      increments' own vectors.
    - the check's vectors, once the run's are finite: a sweep run's
      check names the DRS move's x and p, which it turns in place into
      ``x~ - x_k`` and ``p~ - p_k - lam d_error_k`` (so they are scanned
      twice), whose norms are summands of e_k; ``d_error_k`` is finite
      once the run's d is.  A ``drs`` run's check names the sweep
      move's d and b, which reach its ``x~ = lam (b + d)`` and
      ``p~ = lam b`` as for the run, then ``x~ - x_k`` and ``p~ - p_k``.
      The input difference in ``delta_k`` is formed from the run's finite
      vectors.

    Every norm here, the stopping rule's ``||x_{k-1}||`` and every
    certificate's norm is :func:`~splitbreg.kernels._norm`: ``inf`` for
    an infinite entry, nan for a nan, and finite for a finite vector even
    where its sum of squares overflows (the ±1e300 lasso).  A finite
    iterate makes the sum ``inf`` only through a scalar beyond the float
    range, such as an energy that overflows; the scan then finds every
    vector finite and the run goes on.
    """
    stop = stop or StoppingRule()
    g_value, f_value, lam = run.problem.g.value, run.problem.f.value, run.lam
    records = [_record(run, 0, None)]
    energies, defects, x_incs, alphas = ([] for _ in range(4))
    converged = False
    k = 0
    u = None

    for k in range(1, stop.max_iter + 1):
        x_prev, p_prev = run.x, run.p
        named, c, u, Lu, alpha, d_error = run.step(k)
        energy = g_value(u) + f_value(Lu)
        x_inc = _norm(run.x - x_prev)
        p_inc = _norm(run.p - p_prev)
        total = energy + x_inc + p_inc
        checked, defect = None, np.nan
        if k <= _CHECK_ITERATIONS:
            defect, checked = run.check(x_prev, p_prev, c, Lu, d_error)
            total += defect
        if not math.isfinite(total):
            scan = (("u", u),) + named
            if checked is not None:
                other_named, dx, dp = checked
                scan += other_named + (("x", dx), ("p", dp))
            for what, v in scan:
                _require_finite(v, k, what)
        energies.append(energy)
        alphas.append(alpha)
        x_incs.append(x_inc)
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
        residuals=np.array(x_incs) / lam, energies=np.array(energies),
        setzer_defects=np.array(defects), x_increments=np.array(x_incs),
        alpha_injected=np.array(alphas), converged=converged, n_iter=k,
    )


def asb_iterate(problem: SplitProblem, init: Optional[AsbState] = None,
                stop: Optional[StoppingRule] = None, record_stride: int = 1) -> RunTrace:
    """Run the exact three-step sweep until the rule fires, checking the DRS map at its points."""
    return _drive(_Run(problem, init, _SWEEP), stop, record_stride, "asb")


def asb_iterate_approx(problem: SplitProblem, schedule: ErrorSchedule,
                       init: Optional[AsbState] = None,
                       stop: Optional[StoppingRule] = None,
                       seed: int = 0, record_stride: int = 1) -> RunTrace:
    """Approximate sweep with scheduled subproblem perturbations.

    After the exact u-step, u moves along a random direction that is zero
    on g's pinned coordinates, scaled so that its image moves by
    ``m_k = schedule.magnitude(k)``: the recorded u stays feasible, and
    its energy is ``g(u) + f(L u)``.  When no free direction is left
    (every coordinate pinned, or ``L w = 0``) nothing is injected.  The
    d-step result is displaced by ``m_k`` in place.  ``alpha_injected``
    records ``||L u - L u_exact||`` (``m_k`` up to roundoff, or 0); a
    zero magnitude skips injection entirely, so a zero schedule
    reproduces the exact trace bit for bit.
    The DRS map is checked at each of the first 200 iterations, as for
    :func:`asb_iterate`, less the injected d-step error (see
    :func:`_drive`), so the sum of its ``setzer_defects``, the run's
    :func:`~splitbreg.diagnostics.equivalence_certificate`, certifies
    that the run is the inexact DRS recursion the paper's second result
    is about.
    """
    sweep = _Run(problem, init, _SWEEP, schedule, np.random.default_rng(seed))
    return _drive(sweep, stop, record_stride, "asb_approx")


def dual_resolvents(problem: SplitProblem) -> ResolventPair:
    """Resolvents of the two dual-side operators, realized through the steps.

    The first resolvent is evaluated by one u-subproblem solve
    (``J(y) = y + lam * L u_hat`` with ``u_hat`` minimizing
    ``g(u) + (lam/2)||L u + y/lam||^2``); the second is
    :func:`~splitbreg.functionals.dual_resolvent`: the projection onto
    the domain of f* for ``l1``, ``weighted_l21`` and ``zero``, the
    Moreau identity on the prox of f for any other f.  Both are bound to
    ``problem.lam``.
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

    return ResolventPair(JA=JA, JB=JB)


def run_drs(problem: SplitProblem, init: Optional[AsbState] = None,
            stop: Optional[StoppingRule] = None, record_stride: int = 1) -> RunTrace:
    """Douglas-Rachford run on the dual problem, fully instrumented.

    Starts from ``x0 = lam (b0 + d0)``, ``p0 = lam b0`` and advances the
    dual recursion, mapping each snapshot back by ``b = p/lam``,
    ``d = x/lam - b``, so the trace carries the same columns as the
    alternating sweep.  The sweep's map is checked once at each of the
    first 200 iterations, at the run's own points; the one-step defects
    fill ``setzer_defects`` (see :func:`_drive`).
    """
    return _drive(_Run(problem, init, _DRS), stop, record_stride, "drs")
