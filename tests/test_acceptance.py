"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line (visible with ``pytest -s``).  The
shared instances are the shipped desk-scale experiments: LASSO (n=10),
1-D TV denoising (n=32, seed 42), and the 16x16 least-gradient pair
(uniform-conductivity linear boundary, and two-phase inclusion).
"""

import time

import numpy as np
import pytest

import splitbreg as sb
from splitbreg.drs import fejer_check
from splitbreg.functionals import dual_resolvent, geometric_schedule, zero_schedule
from splitbreg.linops import GridSpec, check_adjoint
from splitbreg.oracles import (interior_stationarity_defect, soft_threshold_optimum,
                               taut_string_dirichlet)

TRIO = ("lasso", "tv1d", "lg_linear")
ALL_INSTANCES = TRIO + ("lg_two_phase",)


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def problems(lasso_problem, tv1d_problem, lg_linear_problem, lg_two_phase_problem):
    return {
        "lasso": lasso_problem,
        "tv1d": tv1d_problem,
        "lg_linear": lg_linear_problem,
        "lg_two_phase": lg_two_phase_problem,
    }


@pytest.fixture(scope="module")
def oracle_values(problems, tv1d_instance, lg_linear_instance, lg_two_phase_instance):
    """Independent optimal values, one route per instance family."""
    values = {}
    prob = problems["lasso"]
    y = prob.g.params["target"]
    mu = float(prob.f.params["weights"][0])
    u_star = soft_threshold_optimum(y, mu)
    values["lasso"] = prob.g.value(u_star) + prob.f.value(prob.L.apply(u_star))

    prob = problems["tv1d"]
    h = tv1d_instance.grid.spacing[0]
    u_star = taut_string_dirichlet(tv1d_instance.noisy_signal, tv1d_instance.mu / h)
    values["tv1d"] = prob.g.value(u_star) + prob.f.value(prob.L.apply(u_star))

    for name, inst in (("lg_linear", lg_linear_instance),
                       ("lg_two_phase", lg_two_phase_instance)):
        prob = problems[name]
        defect = interior_stationarity_defect(prob, inst.u_true)
        assert defect <= 1e-10, "dual-field certificate must pin the optimum"
        values[name] = prob.g.value(inst.u_true) + prob.f.value(prob.L.apply(inst.u_true))
    return values


@pytest.fixture(scope="module")
def runs_1000(problems):
    stop = sb.StoppingRule(tol=None, max_iter=1000)
    return {name: sb.asb_iterate(problems[name], stop=stop) for name in TRIO}


@pytest.fixture(scope="module")
def runs_converged(problems):
    stop = sb.StoppingRule(tol=1e-12, max_iter=30_000)
    return {name: sb.asb_iterate(problems[name], stop=stop) for name in ALL_INSTANCES}


@pytest.fixture(scope="module")
def reference_runs(problems):
    stop = sb.StoppingRule(tol=None, max_iter=10_000)
    return {name: sb.asb_iterate(problems[name], stop=stop, record_stride=0)
            for name in ALL_INSTANCES}


def test_criterion_1_setzer_equivalence(problems):
    t0 = time.perf_counter()
    worst = 0.0
    for name in TRIO:
        prob = problems[name]
        stop = sb.StoppingRule(tol=None, max_iter=200)
        init = sb.initial_state(prob)
        trace_a = sb.asb_iterate(prob, init=init, stop=stop)
        trace_d = sb.run_drs(prob, init=init, stop=stop)
        cert = sb.equivalence_report(trace_a, trace_d, prob.lam)
        worst = max(worst, cert.defect)
        assert cert.passed, f"{name}: defect {cert.defect:.3e}"
    elapsed = time.perf_counter() - t0
    _report("criterion 1 (recursion equivalence, 200 iterations)", worst <= 1e-9,
            f"max defect {worst:.3e} <= 1e-9 ({elapsed:.2f}s)")


def test_criterion_2_residual_summability(runs_1000):
    worst_res, worst_tail = 0.0, 0.0
    for name in TRIO:
        trace = runs_1000[name]
        rep = sb.summability_report(trace)
        assert trace.residuals[999] < 1e-6, f"{name}: residual {trace.residuals[999]:.3e}"
        assert rep.tail_increment < 1e-10, f"{name}: tail {rep.tail_increment:.3e}"
        worst_res = max(worst_res, float(trace.residuals[999]))
        worst_tail = max(worst_tail, rep.tail_increment)
    _report("criterion 2 (residual summability at k=1000)", True,
            f"max residual {worst_res:.3e} < 1e-6, max tail increment {worst_tail:.3e} < 1e-10")


def test_criterion_3_energy_convergence(runs_converged, oracle_values):
    worst = 0.0
    for name in ALL_INSTANCES:
        err = abs(runs_converged[name].energies[-1] - oracle_values[name])
        assert err <= 1e-8, f"{name}: energy error {err:.3e}"
        worst = max(worst, err)
    _report("criterion 3 (energy vs independent oracles)", True,
            f"max |energy - v*| {worst:.3e} <= 1e-8")


def test_criterion_4_dual_certificates(problems, runs_converged):
    worst_defect, worst_gap, worst_probe = 0.0, 0.0, np.inf
    for name in ALL_INSTANCES:
        prob = problems[name]
        final = runs_converged[name].final
        cert = sb.dual_certificate(prob, final.b, final.d)
        gap = sb.duality_gap(prob, final.u, prob.lam * final.b)
        probe = sb.weak_duality_probe(prob, n_probes=1000, seed=17)
        assert cert.passed, f"{name}: dual defect {cert.defect:.3e}"
        assert gap <= 1e-7, f"{name}: gap {gap:.3e}"
        assert probe >= -1e-9, f"{name}: weak duality violated at {probe:.3e}"
        worst_defect = max(worst_defect, cert.defect)
        worst_gap = max(worst_gap, gap)
        worst_probe = min(worst_probe, probe)
    _report("criterion 4 (dual certificate and duality gap)", True,
            f"max dual defect {worst_defect:.3e} <= 1e-7, max gap {worst_gap:.3e} <= 1e-7, "
            f"min probe gap {worst_probe:.3e} >= -1e-9 (1000 probes/instance)")


def test_criterion_5_fejer_monotonicity(runs_1000, runs_converged, reference_runs):
    total_viol, worst = 0, -np.inf
    for name in ALL_INSTANCES:
        x_hat = reference_runs[name].final.x
        trace = runs_1000[name] if name in runs_1000 else runs_converged[name]
        rep = fejer_check(trace.iterates, x_hat)
        total_viol += rep.violations
        worst = max(worst, rep.max_violation)
        assert rep.violations == 0, f"{name}: {rep.violations} violations"
    _report("criterion 5 (quantitative Fejer monotonicity)", total_viol == 0,
            f"0 violations at slack 1e-9 (max term {worst:.3e})")


def test_criterion_6_inexact_convergence(problems, runs_converged):
    worst = 0.0
    for name in ("lasso", "tv1d"):
        prob = problems[name]
        exact_u = runs_converged[name].final.u
        approx = sb.asb_iterate_approx(prob, geometric_schedule(0.5),
                                       stop=sb.StoppingRule(tol=1e-12, max_iter=30_000),
                                       seed=11)
        err = float(np.linalg.norm(approx.final.u - exact_u))
        assert err <= 1e-6, f"{name}: approx vs exact {err:.3e}"
        worst = max(worst, err)

        stop = sb.StoppingRule(tol=None, max_iter=150)
        exact = sb.asb_iterate(prob, stop=stop)
        zero = sb.asb_iterate_approx(prob, zero_schedule(), stop=stop, seed=11)
        assert np.array_equal(exact.residuals, zero.residuals)
        assert np.array_equal(exact.energies, zero.energies)
        for ra, rb in zip(exact.iterates, zero.iterates):
            assert np.array_equal(ra.b, rb.b) and np.array_equal(ra.d, rb.d)
    _report("criterion 6 (summable-error convergence)", True,
            f"geometric(0.5) max |u - u_exact| {worst:.3e} <= 1e-6; "
            "zero schedule bit-identical to exact mode")


def test_criterion_7_moreau_and_adjoint_infrastructure():
    rng = np.random.default_rng(23)
    catalogue = [
        sb.prox_l1(1.0, dim=8),
        sb.prox_l1(np.abs(rng.standard_normal(8)), dim=8),
        sb.prox_weighted_l21(np.abs(rng.standard_normal(4)) + 0.1, block_size=2),
        sb.prox_quadratic(rng.standard_normal(8), 0.7),
        sb.prox_indicator_point(rng.standard_normal(8),
                                np.array([1, 1, 0, 0, 1, 0, 1, 0], dtype=bool)),
        sb.zero_functional(8),
    ]
    worst_moreau = 0.0
    probes = 0
    for F in catalogue:
        for _ in range(50):
            lam = float(rng.choice([0.1, 1.0, 10.0]))
            x = 3.0 * rng.standard_normal(F.dim)
            defect = np.linalg.norm(
                F.prox(x, lam) + lam * dual_resolvent(F, x / lam, 1.0 / lam) - x)
            worst_moreau = max(worst_moreau, float(defect))
            probes += 1
    assert probes == 300
    assert worst_moreau <= 1e-10

    operators = [
        sb.identity_operator(7),
        sb.matrix_operator(rng.standard_normal((9, 5))),
        sb.gradient_operator(GridSpec((11,), 0.3)),
        sb.gradient_operator(GridSpec((6, 8), (0.5, 2.0))),
        sb.interior_gradient_operator(GridSpec((11,), 0.3)),
        sb.interior_gradient_operator(GridSpec((6, 8), (0.5, 2.0))),
    ]
    worst_adjoint = max(check_adjoint(L, trials=50, seed=29)
                        for L in operators)
    assert worst_adjoint <= 1e-12
    _report("criterion 7 (Moreau/adjoint infrastructure)", True,
            f"Moreau defect {worst_moreau:.3e} <= 1e-10 (300 probes), "
            f"adjoint defect {worst_adjoint:.3e} <= 1e-12 (50 probes x 6 operators)")


def test_criterion_8_least_gradient_recovery(runs_converged, lg_linear_instance,
                                             lg_two_phase_instance, oracle_values):
    t0 = time.perf_counter()
    u_lin = runs_converged["lg_linear"].final.u
    rel_lin = float(np.linalg.norm(u_lin - lg_linear_instance.u_true)
                    / np.linalg.norm(lg_linear_instance.u_true))
    assert rel_lin <= 1e-4, f"linear-boundary recovery error {rel_lin:.3e}"

    # two-phase regression pins from the first verified converged run
    u_tp = runs_converged["lg_two_phase"].final.u
    rel_tp = float(np.linalg.norm(u_tp - lg_two_phase_instance.u_true)
                   / np.linalg.norm(lg_two_phase_instance.u_true))
    assert rel_tp <= 1e-9, f"two-phase recovery regressed: {rel_tp:.3e}"
    assert abs(oracle_values["lg_two_phase"] - 1.213542035479629) <= 1e-9
    elapsed = time.perf_counter() - t0
    _report("criterion 8 (least-gradient recovery)", True,
            f"linear rel L2 error {rel_lin:.3e} <= 1e-4; two-phase rel error {rel_tp:.3e} "
            f"(pinned <= 1e-9), optimal value pinned ({elapsed:.2f}s)")
