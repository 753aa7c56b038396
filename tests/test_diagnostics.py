import ast
import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import splitbreg as sb
from splitbreg.diagnostics import (Certificate, IterateRecord, certificates_to_json,
                                   dual_certificate, duality_gap, equivalence_report,
                                   inclusion_certificate, inclusion_defect,
                                   primal_recovery_check, summability_report,
                                   weak_duality_probe)
from splitbreg.drs import ResolventPair
from splitbreg.functionals import ProxFunctional, prox_l1, prox_quadratic
from splitbreg.linops import identity_operator
from splitbreg.oracles import soft_threshold_optimum


def scalar_lasso(y=3.0, mu=1.0):
    return sb.SplitProblem(g=prox_quadratic(np.array([y]), 1.0),
                           f=prox_l1(mu, dim=1), L=identity_operator(1), lam=1.0)


def test_duality_gap_at_known_optimal_pair(lasso_problem):
    y = lasso_problem.g.params["target"]
    mu = float(lasso_problem.f.params["weights"][0])
    u_star = soft_threshold_optimum(y, mu)
    b_star = np.clip(y, -mu, mu)  # dual optimum of the shrinkage problem
    assert abs(duality_gap(lasso_problem, u_star, b_star)) <= 1e-8


def test_duality_gap_positive_off_optimum(lasso_problem):
    y = lasso_problem.g.params["target"]
    mu = float(lasso_problem.f.params["weights"][0])
    b_star = np.clip(y, -mu, mu)
    u_bad = np.zeros_like(y)
    assert duality_gap(lasso_problem, u_bad, b_star) > 1e-3


def test_weak_duality_on_random_probes(lasso_problem, tv1d_problem):
    for prob in (lasso_problem, tv1d_problem):
        assert weak_duality_probe(prob, n_probes=500, seed=1) >= -1e-9


def test_duality_gap_requires_conjugates():
    bare = ProxFunctional(dim=1, value=lambda x: 0.0,
                          prox=lambda x, t: np.asarray(x, dtype=float),
                          label="mystery")
    prob = sb.SplitProblem(g=prox_quadratic(np.zeros(1), 1.0), f=bare,
                           L=identity_operator(1), lam=1.0)
    with pytest.raises(ValueError, match="mystery"):
        duality_gap(prob, np.zeros(1), np.zeros(1))


def test_dual_certificate_on_converged_lasso():
    prob = scalar_lasso()
    trace = sb.asb_iterate(prob, stop=sb.StoppingRule(tol=1e-13, max_iter=2000))
    cert = dual_certificate(prob, trace.final.b, trace.final.d)
    assert cert.passed and cert.defect <= 1e-7

    perturbed = trace.final.b.copy()
    perturbed[0] += 0.1
    bad = dual_certificate(prob, perturbed, trace.final.d)
    assert not bad.passed and bad.defect >= 1e-3


def test_dual_certificate_zero_problem():
    # both terms inert: f with zero weights, g centred at the origin
    prob = sb.SplitProblem(g=prox_quadratic(np.zeros(2), 1.0), f=prox_l1(0.0, dim=2),
                           L=identity_operator(2), lam=1.0)
    cert = dual_certificate(prob, np.zeros(2), np.zeros(2))
    assert cert.passed and cert.defect == 0.0


def test_primal_recovery_check(tv1d_problem, tv1d_instance):
    from splitbreg.oracles import taut_string_dirichlet

    trace = sb.asb_iterate(tv1d_problem, stop=sb.StoppingRule(tol=1e-12, max_iter=20_000))
    h = tv1d_instance.grid.spacing[0]
    u_star = taut_string_dirichlet(tv1d_instance.noisy_signal, tv1d_instance.mu / h)
    good = primal_recovery_check(tv1d_problem, trace.final, (u_star, ""))
    assert good.passed

    moved = dataclasses.replace(trace.final, u=np.zeros(32))
    bad = primal_recovery_check(tv1d_problem, moved, (u_star, ""))
    assert not bad.passed


def test_primal_recovery_reference_value_and_details(lasso_problem):
    trace = sb.asb_iterate(lasso_problem, stop=sb.StoppingRule(tol=1e-12, max_iter=2000))
    final = trace.final
    y = lasso_problem.g.params["target"]
    u_star = soft_threshold_optimum(y, float(lasso_problem.f.params["weights"][0]))
    oracle = primal_recovery_check(lasso_problem, final, (u_star, "closed form; "))
    assert oracle.passed
    assert oracle.details.endswith("; closed form; reference value: independent oracle")
    # no oracle: the weak-duality bound at the record's dual point p
    bound = primal_recovery_check(lasso_problem, final, None)
    assert bound.passed
    assert bound.details.endswith(
        "; reference value: weak-duality bound at the converged dual point")
    # a feasible dual point off the optimum gives a lower bound, which fails
    assert not primal_recovery_check(lasso_problem, dataclasses.replace(final, p=0.5 * final.p),
                                     None).passed


def test_inclusion_certificate_tolerance():
    at = inclusion_certificate(1e-7)
    assert at.kind == "inclusion" and at.passed and at.tolerance == 1e-7
    assert at.details == "resolvent residuals of the optimality inclusion at (x, p)"
    assert not inclusion_certificate(2e-7).passed


def test_primal_recovery_fully_constrained_instance():
    anchor = np.array([1.0, -2.0, 0.5])
    prob = sb.SplitProblem(g=sb.prox_indicator_point(anchor), f=prox_l1(0.0, dim=3),
                           L=identity_operator(3), lam=1.0)
    final = IterateRecord(k=0, u=anchor, d=anchor, b=np.zeros(3), x=anchor, p=np.zeros(3))
    cert = primal_recovery_check(prob, final, (anchor, ""))
    assert cert.passed and cert.defect == 0.0


# a residual whose sum of squares overflows while its norm, 5.1e300, does not
_HUGE = np.array([3e300, -4e300, 1e299])


def _overflowing_defect(name):
    # each check's residual is -_HUGE or _HUGE: f = 0 (its dual resolvent is
    # 0) and g = ||u||^2 / 2 have value 0 at u = 0
    prob = sb.SplitProblem(g=prox_quadratic(np.zeros(3), 1.0), f=prox_l1(0.0, dim=3),
                           L=identity_operator(3), lam=1.0)
    zero = np.zeros(3)
    if name == "dual_certificate":
        return dual_certificate(prob, _HUGE, -_HUGE).defect
    if name == "primal_recovery_check":
        final = IterateRecord(k=0, u=zero, d=_HUGE, b=zero, x=zero, p=zero)
        return primal_recovery_check(prob, final, (zero, "")).defect
    if name == "inclusion_defect":
        identity = ResolventPair(JA=lambda x, lam: x, JB=lambda x, lam: x)
        return inclusion_defect(identity, _HUGE, zero, 1.0)
    asb, drs = ([IterateRecord(k=0, u=None, d=zero, b=zero, x=x, p=zero)] for x in (zero, _HUGE))
    return equivalence_report(SimpleNamespace(iterates=asb), SimpleNamespace(iterates=drs),
                              1.0).defect


@pytest.mark.parametrize("name", ["dual_certificate", "primal_recovery_check",
                                  "inclusion_defect", "equivalence_report"])
def test_a_defect_whose_squares_overflow_is_its_true_size(name):
    # the defect says by how much a check fails: m ||v / m|| with m = max |v|,
    # not the inf of a plain norm
    with np.errstate(over="ignore"):  # the plain sum of squares is tried first
        defect = _overflowing_defect(name)
    m = np.max(np.abs(_HUGE))
    assert np.isfinite(defect) and defect == m * np.linalg.norm(_HUGE / m)


def test_equivalence_report_paths(lasso_problem):
    stop = sb.StoppingRule(tol=None, max_iter=60)
    init = sb.initial_state(lasso_problem)
    ta = sb.asb_iterate(lasso_problem, init=init, stop=stop)
    td = sb.run_drs(lasso_problem, init=init, stop=stop)
    assert equivalence_report(ta, td, lasso_problem.lam).passed

    # the dual recursion run at a different penalty from the same start
    td_wrong = sb.run_drs(dataclasses.replace(lasso_problem, lam=2.0), init=init, stop=stop)
    assert not equivalence_report(ta, td_wrong, lasso_problem.lam).passed

    short = sb.asb_iterate(lasso_problem, init=init, stop=sb.StoppingRule(tol=None, max_iter=10))
    with pytest.raises(ValueError, match="length"):
        equivalence_report(short, td, lasso_problem.lam)


def test_equivalence_zero_iterations(lasso_problem):
    stop = sb.StoppingRule(tol=None, max_iter=0)
    init = sb.initial_state(lasso_problem)
    ta = sb.asb_iterate(lasso_problem, init=init, stop=stop)
    td = sb.run_drs(lasso_problem, init=init, stop=stop)
    cert = equivalence_report(ta, td, lasso_problem.lam)
    assert cert.passed and cert.defect == 0.0


def test_summability_report_shapes():
    prob = scalar_lasso()
    trace = sb.asb_iterate(prob, stop=sb.StoppingRule(tol=None, max_iter=1000))
    rep = summability_report(trace)
    assert rep.partial_sums.shape == (1000,)
    assert rep.tail_increment < 1e-10
    assert np.all(np.diff(rep.partial_sums) >= 0)

    one = sb.asb_iterate(prob, stop=sb.StoppingRule(tol=None, max_iter=1))
    rep1 = summability_report(one)
    assert rep1.partial_sums.shape == (1,)
    assert rep1.partial_sums[0] == one.residuals[0] ** 2

    # already-optimal initialization: all residuals identically zero
    zero_prob = sb.SplitProblem(g=prox_quadratic(np.zeros(3), 1.0), f=prox_l1(1.0, dim=3),
                                L=identity_operator(3), lam=1.0)
    z = sb.asb_iterate(zero_prob, stop=sb.StoppingRule(tol=None, max_iter=20))
    assert np.all(summability_report(z).partial_sums == 0.0)

    # a run of no iterations has nothing to sum
    none = sb.asb_iterate(prob, stop=sb.StoppingRule(tol=None, max_iter=0))
    with pytest.raises(ValueError, match="trace has no residuals"):
        summability_report(none)


def test_certificates_are_deterministic(lasso_problem):
    trace = sb.asb_iterate(lasso_problem, stop=sb.StoppingRule(tol=1e-12, max_iter=2000))
    c1 = dual_certificate(lasso_problem, trace.final.b, trace.final.d)
    c2 = dual_certificate(lasso_problem, trace.final.b.copy(), trace.final.d.copy())
    assert c1.defect == c2.defect  # bit-for-bit

    payload = json.loads(certificates_to_json([c1]))
    assert payload[0]["kind"] == "dual_optimal"
    assert set(payload[0]) == {"kind", "defect", "tolerance", "passed", "details"}


def _names_certificate(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "Certificate")
            or (isinstance(node, ast.Attribute) and node.attr == "Certificate")
            or (isinstance(node, ast.alias) and node.name == "Certificate"))


def test_every_certificate_is_defined_in_diagnostics():
    # what each certificate checks, at what tolerance and with what details is
    # said in one module; __init__ only re-exports the class
    package = Path(sb.__file__).resolve().parent
    sites = {path.name: [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                         if _names_certificate(node)]
             for path in sorted(package.glob("*.py"))}
    assert sites["diagnostics.py"]  # the walk sees the definitions
    assert {name: lines for name, lines in sites.items()
            if lines and name not in ("diagnostics.py", "__init__.py")} == {}


def test_certificate_passed_definition():
    cert = Certificate.from_defect("dual_optimal", 2e-7, 1e-7)
    assert not cert.passed
    assert Certificate.from_defect("dual_optimal", 1e-8, 1e-7).passed


def test_run_trace_validates_lengths(lasso_problem):
    trace = sb.asb_iterate(lasso_problem, stop=sb.StoppingRule(tol=None, max_iter=5))
    with pytest.raises(ValueError, match="one entry per iteration"):
        dataclasses.replace(trace, residuals=trace.residuals[:-1])
    with pytest.raises(ValueError, match="alpha_injected must have one entry per iteration"):
        dataclasses.replace(trace, alpha_injected=trace.alpha_injected[:3])
