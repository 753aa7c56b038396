"""Run traces, certificates, and convergence reports.

A :class:`RunTrace` stores per-iteration scalars (always dense) plus
iterate snapshots (optionally thinned).  This is the one module that
says what each certificate checks, computes its defect, and sets its
tolerance and details; callers only gather their inputs.  Every run,
``asb``, ``drs`` or ``asb_approx``, gets the same four:
``dual_optimal``, ``primal_optimal``, ``inclusion``, from the
resolvent residuals of :func:`inclusion_defect`, and ``equivalence``,
the sum of the one-step defects every trace records.  Certificates
are pure functions of their inputs: identical inputs give
bit-identical defects, and ``passed`` is always ``defect <= tolerance``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from .functionals import dual_resolvent
from .kernels import _norm

if TYPE_CHECKING:  # pragma: no cover
    from .asb import SplitProblem
    from .drs import ResolventPair

__all__ = [
    "IterateRecord",
    "RunTrace",
    "Certificate",
    "SummabilityReport",
    "dual_value",
    "duality_gap",
    "dual_certificate",
    "primal_recovery_check",
    "inclusion_defect",
    "inclusion_certificate",
    "equivalence_report",
    "equivalence_certificate",
    "summability_report",
    "weak_duality_probe",
    "certificates_to_json",
]


@dataclass(frozen=True, eq=False)
class IterateRecord:
    """Snapshot at iteration k: splitting variables and their dual-side view."""

    k: int
    u: Optional[np.ndarray]
    d: np.ndarray
    b: np.ndarray
    x: np.ndarray
    p: np.ndarray


@dataclass
class RunTrace:
    """Full record of one solver run.

    Scalar series have one entry per iteration performed; entry ``j``
    refers to the pair ``(d^j, u^{j+1})`` for residuals and to the
    iterate produced by iteration ``j+1`` for energies.  The residual
    ``||d^j - L u^{j+1}||`` is ``x_increments[j] / lam`` under
    ``x = lam (b + d)``, and is recorded as that quotient; Boyd et al.'s
    primal residual ``||L u^{j+1} - d^{j+1}||`` is the p-increment over
    ``lam``.  ``iterates``
    holds the k=0 initialization plus the snapshots the run asked for
    (always the final one).  Every run checks Setzer's correspondence
    over a window of its first iterations: ``setzer_defects[j]`` is the
    one-step defect of the other solver form's map applied at iterate
    ``j`` with the run's own u-solve, against iterate ``j+1`` under
    ``x = lam (b + d)``, ``p = lam b``, less an approximate run's
    injected d-step error, and ``nan`` past the window.  That series is
    the run's only record of the window: :func:`equivalence_certificate`
    reads the window, and sums it, from the series alone.
    """

    kind: str
    iterates: List[IterateRecord]
    residuals: np.ndarray
    energies: np.ndarray
    setzer_defects: np.ndarray
    x_increments: np.ndarray
    alpha_injected: np.ndarray
    converged: bool
    n_iter: int

    def __post_init__(self):
        for name in ("residuals", "energies", "setzer_defects", "x_increments",
                     "alpha_injected"):
            series = getattr(self, name)
            if len(series) != self.n_iter:
                raise ValueError(f"{name} must have one entry per iteration")

    @property
    def final(self) -> IterateRecord:
        return self.iterates[-1]


@dataclass(frozen=True)
class Certificate:
    kind: str
    defect: float
    tolerance: float
    passed: bool
    details: str = ""

    @staticmethod
    def from_defect(kind: str, defect: float, tolerance: float, details: str = "") -> "Certificate":
        return Certificate(kind=kind, defect=float(defect), tolerance=float(tolerance),
                           passed=bool(defect <= tolerance), details=details)


def certificates_to_json(certs) -> str:
    return json.dumps([asdict(c) for c in certs], indent=2)


def duality_gap(problem: "SplitProblem", u: np.ndarray, beta: np.ndarray) -> float:
    """Primal value at u minus :func:`dual_value` at the dual point ``beta``.

    For a run, ``beta`` is its dual point ``p = lam b``, not its Bregman
    variable b.

    Nonnegative up to roundoff for any pair (weak duality) and zero at a
    primal-dual optimal pair under strong duality.  Conjugate values
    come from the closed forms attached to the catalogue functionals;
    indicator-type conjugates admit a small feasibility tolerance, so a
    dual iterate sitting on the domain boundary up to roundoff still
    evaluates finite.
    """
    dual = dual_value(problem, beta)
    u = np.asarray(u, dtype=float)
    primal = problem.g.value(u) + problem.f.value(problem.L.apply(u))
    return float(primal - dual)


def dual_value(problem: "SplitProblem", beta: np.ndarray) -> float:
    """Dual objective ``-(g*(-L^T beta) + f*(beta))`` at the dual point ``beta``."""
    g, f, L = problem.g, problem.f, problem.L
    for F, side in ((g, "g"), (f, "f")):
        if F.conjugate_value is None:
            raise ValueError(f"no closed-form conjugate for {side} (label {F.label!r})")
    beta = np.asarray(beta, dtype=float)
    return -(g.conjugate_value(-L.adjoint_apply(beta)) + f.conjugate_value(beta))


def dual_certificate(problem: "SplitProblem", b_hat: np.ndarray, d_hat: np.ndarray) -> Certificate:
    """Fixed-point test that ``lam * b_hat`` solves the dual problem.

    At a converged pair the resolvent of ``lam df*`` maps
    ``lam (d_hat + b_hat)`` back to ``lam b_hat``; the defect is the norm
    of the violation, and the tolerance 1e-7.
    """
    lam = problem.lam
    b_hat = np.asarray(b_hat, dtype=float)
    d_hat = np.asarray(d_hat, dtype=float)
    image = dual_resolvent(problem.f, lam * (d_hat + b_hat), lam)
    defect = _norm(image - lam * b_hat)
    return Certificate.from_defect("dual_optimal", defect, 1e-7,
                                   details="resolvent fixed-point residual of the dual iterate")


def primal_recovery_check(problem: "SplitProblem", final: IterateRecord,
                          reference: Optional[tuple]) -> Certificate:
    """Check ``L u == d`` at the run's final record and its energy, at 1e-6.

    ``reference`` is an oracle's ``(minimizer, note)``, whose energy is
    the reference value, or None; the reference value is then the
    weak-duality bound at the run's dual point ``final.p``.
    """
    if reference is None:
        v_star = dual_value(problem, final.p)
        source = "reference value: weak-duality bound at the converged dual point"
    else:
        u_star, note = reference
        v_star = problem.g.value(u_star) + problem.f.value(problem.L.apply(u_star))
        source = f"{note}reference value: independent oracle"
    Lu = problem.L.apply(final.u)
    link = _norm(Lu - final.d)
    energy = problem.g.value(final.u) + problem.f.value(Lu)
    energy_defect = abs(energy - v_star) / (1.0 + abs(v_star))
    return Certificate.from_defect(
        "primal_optimal", max(link, energy_defect), 1e-6,
        details=f"image residual {link:.3e}, relative energy defect {energy_defect:.3e}; "
                f"{source}",
    )


def inclusion_defect(pair: "ResolventPair", x_hat: np.ndarray, p_hat: np.ndarray,
                     lam: float) -> float:
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
    da = _norm(pair.JA(p_hat - lam * q, lam) - p_hat)
    db = _norm(pair.JB(p_hat + lam * q, lam) - p_hat)
    return max(da, db)


def inclusion_certificate(defect: float) -> Certificate:
    """The optimality inclusion at a run's ``(x, p)``, from its resolvent residuals, at 1e-7.

    ``defect`` is :func:`inclusion_defect` at the run's final record.
    """
    return Certificate.from_defect(
        "inclusion", defect, 1e-7,
        details="resolvent residuals of the optimality inclusion at (x, p)")


def equivalence_report(asb_trace: RunTrace, drs_trace: RunTrace, lam: float) -> Certificate:
    """Lockstep agreement of the two recursions under x=lam(b+d), p=lam b.

    Both traces must snapshot every iteration and have equal length; the
    defect is the worst mismatch of either mapped sequence over all
    recorded k (including the k=0 initialization), and the tolerance 1e-9.
    """
    if len(asb_trace.iterates) != len(drs_trace.iterates):
        raise ValueError(
            f"trace length mismatch: {len(asb_trace.iterates)} vs {len(drs_trace.iterates)}"
        )
    defect = 0.0
    for ra, rd in zip(asb_trace.iterates, drs_trace.iterates):
        dx = _norm(rd.x - lam * (ra.b + ra.d))
        dp = _norm(rd.p - lam * ra.b)
        defect = max(defect, dx, dp)
    return _equivalence(defect, f"max mapped-sequence mismatch over "
                                f"{len(asb_trace.iterates)} iterates")


def equivalence_certificate(trace: RunTrace) -> Certificate:
    """The equivalence certificate of a run, from its one-step checks.

    The checked one-step defects are the non-nan entries of
    ``setzer_defects``, over their steps' points and the last one's
    successor (k = 0 included).  The defect is their sum, added one term
    at a time in iteration order from 0.0 (``np.add.accumulate``), so it
    is the running sum ``s += e_k`` bit for bit; ``np.sum`` would add
    pairwise and builtin ``sum`` with compensation (from Python 3.12).
    In exact arithmetic it bounds :func:`equivalence_report` on
    the run and a separate run of the other solver form over the same
    iterates (for a ``drs`` run, where the sweep is nonexpansive; for an
    ``asb_approx`` run, a DRS run fed the same resolvent errors); a
    separate run in floating point adds its own rounding.  The details
    name which map was checked at whose points.
    """
    checked = {"asb": "the DRS map at the asb run's points",
               "drs": "the ASB sweep at the drs run's points",
               "asb_approx": "the DRS map, less the injected d-step error, at the "
                             "asb_approx run's points"}[trace.kind]
    window = trace.setzer_defects[~np.isnan(trace.setzer_defects)]
    defect = np.add.accumulate(np.concatenate(([0.0], window)))[-1]
    return _equivalence(defect,
                        f"sum of one-step defects of {checked} over {window.size + 1} "
                        "iterates; in exact arithmetic it bounds a twin's mapped-sequence "
                        "mismatch, and a floating-point twin adds its own rounding")


def _equivalence(defect: float, details: str) -> Certificate:
    return Certificate.from_defect("equivalence", defect, 1e-9, details=details)


@dataclass(frozen=True)
class SummabilityReport:
    partial_sums: np.ndarray
    tail_increment: float


def summability_report(trace: RunTrace) -> SummabilityReport:
    """Cumulative sums of squared residuals and their growth over the last 100 iterations."""
    r = np.asarray(trace.residuals, dtype=float)
    if r.size == 0:
        raise ValueError("trace has no residuals")
    ps = np.cumsum(r * r)
    tail_increment = float(ps[-1] - ps[-101]) if ps.size > 100 else float(ps[-1])
    return SummabilityReport(partial_sums=ps, tail_increment=tail_increment)


def weak_duality_probe(problem: "SplitProblem", n_probes: int = 1000, seed: int = 0) -> float:
    """Smallest duality gap over random primal/dual probe pairs.

    Primal probes are projected through ``g.prox`` so indicator-type g
    still yields finite primal values; half of the dual probes are
    mapped into the domain of f* through the prox residue
    ``c - f.prox(c, 1)`` (a subgradient of f, hence dual-feasible), the
    other half are raw draws.
    """
    rng = np.random.default_rng(seed)
    worst = np.inf
    for i in range(n_probes):
        u = problem.g.prox(rng.standard_normal(problem.g.dim), 1.0)
        c = rng.standard_normal(problem.f.dim)
        if i % 2 == 0:
            b = c - problem.f.prox(c, 1.0)
        else:
            b = c
        gap = duality_gap(problem, u, b)
        if gap < worst:
            worst = gap
    return float(worst)
