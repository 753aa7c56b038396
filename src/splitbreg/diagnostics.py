"""Run traces, certificates, and convergence reports.

A :class:`RunTrace` stores per-iteration scalars (always dense) plus
iterate snapshots (optionally thinned).  Certificates are pure functions
of their inputs: identical inputs give bit-identical defects, and
``passed`` is always ``defect <= tolerance``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from .functionals import dual_resolvent

if TYPE_CHECKING:  # pragma: no cover
    from .asb import SplitProblem

__all__ = [
    "IterateRecord",
    "RunTrace",
    "Certificate",
    "SummabilityReport",
    "dual_value",
    "duality_gap",
    "dual_certificate",
    "primal_recovery_check",
    "equivalence_report",
    "lockstep_certificate",
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
    iterate produced by iteration ``j+1`` for energies.  ``iterates``
    holds the k=0 initialization plus the snapshots the run asked for
    (always the final one).  Exact runs advance a lockstep twin of the
    other solver form over ``twin_iterates`` iterates (k = 0 included):
    ``setzer_defects[j]`` is their mismatch under ``x = lam (b + d)``,
    ``p = lam b`` at iterate ``j+1`` (``nan`` where no twin ran), and
    ``twin_defect`` the worst one, k = 0 included.
    """

    kind: str
    iterates: List[IterateRecord]
    residuals: np.ndarray
    energies: np.ndarray
    setzer_defects: np.ndarray
    x_increments: np.ndarray
    alpha_injected: np.ndarray
    beta_injected: np.ndarray
    converged: bool
    n_iter: int
    twin_defect: Optional[float] = None
    twin_iterates: int = 0

    def __post_init__(self):
        for name in ("residuals", "energies", "setzer_defects", "x_increments"):
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


def duality_gap(problem: "SplitProblem", u: np.ndarray, b: np.ndarray) -> float:
    """Primal value at u minus dual value at b.

    Nonnegative up to roundoff for any pair (weak duality) and zero at a
    primal-dual optimal pair under strong duality.  Conjugate values
    come from the closed forms attached to the catalogue functionals;
    indicator-type conjugates admit a small feasibility tolerance, so a
    dual iterate sitting on the domain boundary up to roundoff still
    evaluates finite.
    """
    dual = dual_value(problem, b)
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
    defect = float(np.linalg.norm(image - lam * b_hat))
    return Certificate.from_defect("dual_optimal", defect, 1e-7,
                                   details="resolvent fixed-point residual of the dual iterate")


def primal_recovery_check(problem: "SplitProblem", u_hat: np.ndarray, d_hat: np.ndarray,
                          v_star: float) -> Certificate:
    """Check ``L u_hat == d_hat`` and the energy against the oracle value, at 1e-6."""
    u_hat = np.asarray(u_hat, dtype=float)
    d_hat = np.asarray(d_hat, dtype=float)
    Lu = problem.L.apply(u_hat)
    link = float(np.linalg.norm(Lu - d_hat))
    energy = problem.g.value(u_hat) + problem.f.value(Lu)
    energy_defect = abs(energy - v_star) / (1.0 + abs(v_star))
    defect = max(link, energy_defect)
    return Certificate.from_defect(
        "primal_optimal", defect, 1e-6,
        details=f"image residual {link:.3e}, relative energy defect {energy_defect:.3e}",
    )


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
        dx = float(np.linalg.norm(rd.x - lam * (ra.b + ra.d)))
        dp = float(np.linalg.norm(rd.p - lam * ra.b))
        defect = max(defect, dx, dp)
    return _equivalence(defect, len(asb_trace.iterates))


def lockstep_certificate(trace: RunTrace) -> Certificate:
    """The equivalence certificate of an exact run, from its lockstep twin.

    Equal to :func:`equivalence_report` on the run and a separate run of
    the other solver form over the same iterates, without the rerun.
    """
    if trace.twin_defect is None:
        raise ValueError(f"a {trace.kind!r} trace carries no lockstep twin")
    return _equivalence(trace.twin_defect, trace.twin_iterates)


def _equivalence(defect: float, n_iterates: int) -> Certificate:
    return Certificate.from_defect(
        "equivalence", defect, 1e-9,
        details=f"max mapped-sequence mismatch over {n_iterates} iterates",
    )


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
