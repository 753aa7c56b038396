import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU

import splitbreg as sb
from splitbreg import linops
from splitbreg.asb import _UStepSolver
from splitbreg.diagnostics import lockstep_certificate
from splitbreg.drs import NonFiniteIterateError
from splitbreg.functionals import (geometric_schedule, harmonic_schedule, prox_indicator_point,
                                   prox_l1, prox_quadratic, zero_functional, zero_schedule)
from splitbreg.linops import (GridSpec, identity_operator, interior_gradient_operator,
                              matrix_operator)
from splitbreg.oracles import taut_string_dirichlet


def lasso3():
    return sb.SplitProblem(g=prox_quadratic(np.array([3.0]), 1.0),
                           f=prox_l1(1.0, dim=1), L=identity_operator(1), lam=1.0)


def test_problem_validation():
    with pytest.raises(ValueError, match="domain"):
        sb.SplitProblem(g=prox_quadratic(np.zeros(2), 1.0), f=prox_l1(1.0, dim=3),
                        L=identity_operator(3), lam=1.0)
    with pytest.raises(ValueError, match="codomain"):
        sb.SplitProblem(g=prox_quadratic(np.zeros(3), 1.0), f=prox_l1(1.0, dim=2),
                        L=identity_operator(3), lam=1.0)
    with pytest.raises(ValueError, match="lambda"):
        sb.SplitProblem(g=prox_quadratic(np.zeros(2), 1.0), f=prox_l1(1.0, dim=2),
                        L=identity_operator(2), lam=0.0)
    with pytest.raises(TypeError, match="u_subsolver"):
        sb.SplitProblem(g=prox_quadratic(np.zeros(2), 1.0), f=prox_l1(1.0, dim=2),
                        L=identity_operator(2), u_subsolver="conjugate_gradient")


def test_u_step_identity_operator_no_g():
    # with L = Id and no fidelity term the normal equations give u = d - b
    prob = sb.SplitProblem(g=zero_functional(3), f=prox_l1(1.0, dim=3),
                           L=identity_operator(3), lam=2.0)
    state = sb.AsbState(d=np.array([1.0, 2.0, 3.0]), b=np.array([0.5, 0.0, -1.0]))
    u = sb.asb_u_step(prob, state)
    assert np.allclose(u, state.d - state.b, atol=1e-12)


def test_u_step_fully_constrained_indicator():
    anchor = np.array([4.0, -1.0])
    prob = sb.SplitProblem(g=sb.prox_indicator_point(anchor), f=prox_l1(1.0, dim=2),
                           L=identity_operator(2), lam=1.0)
    state = sb.AsbState(d=np.array([9.0, 9.0]), b=np.array([-9.0, 9.0]))
    assert np.array_equal(sb.asb_u_step(prob, state), anchor)


def test_u_step_matches_dense_solve(tv1d_problem, tv1d_instance):
    rng = np.random.default_rng(0)
    state = sb.AsbState(d=rng.standard_normal(32), b=rng.standard_normal(32))
    u = sb.asb_u_step(tv1d_problem, state)

    L = tv1d_problem.L
    n = L.domain_dim
    ltl = np.zeros((n, n))
    e = np.zeros(n)
    for i in range(n):
        e[i] = 1.0
        ltl[:, i] = L.adjoint_apply(L.apply(e))
        e[i] = 0.0
    lam = tv1d_problem.lam
    m = np.eye(n) / lam + ltl
    rhs = tv1d_instance.noisy_signal / lam + L.adjoint_apply(state.d - state.b)
    assert np.linalg.norm(u - np.linalg.solve(m, rhs)) <= 1e-10


def test_u_step_matches_dense_normal_equations(tv1d_problem, lg_two_phase_problem):
    rng = np.random.default_rng(1)
    for prob in (tv1d_problem, lg_two_phase_problem):
        L, lam, g = prob.L, prob.lam, prob.g
        n = L.domain_dim
        a = np.column_stack([L.apply(e) for e in np.eye(n)])
        ltl = a.T @ a
        state = sb.AsbState(d=rng.standard_normal(prob.f.dim), b=rng.standard_normal(prob.f.dim))
        neg_ltc = a.T @ (state.d - state.b)
        if g.label == "quadratic":
            rho = g.params["scale"]
            expected = np.linalg.solve(ltl + (rho / lam) * np.eye(n),
                                       (rho / lam) * g.params["target"] + neg_ltc)
        else:
            mask = g.params["mask"]
            free = ~mask
            expected = np.where(mask, g.params["anchor"], 0.0)
            expected[free] = np.linalg.solve(ltl[np.ix_(free, free)],
                                             neg_ltc[free] - ltl[np.ix_(free, mask)] @ expected[mask])
        assert np.linalg.norm(sb.asb_u_step(prob, state) - expected) <= 1e-10


def test_u_step_singular_system_raises():
    rng = np.random.default_rng(4)
    cases = [
        matrix_operator([[1.0, 0.0], [0.0, 0.0]]),
        # semidefinite systems that factor without a zero pivot: only the
        # pivot floor stops a solution of size ~1e15
        interior_gradient_operator(GridSpec((9,), 0.3)),
        matrix_operator(rng.standard_normal((12, 3)) @ rng.standard_normal((3, 6))),
    ]
    for L in cases:
        prob = sb.SplitProblem(g=zero_functional(L.domain_dim), f=prox_l1(1.0, dim=L.codomain_dim),
                               L=L, lam=1.0)
        with pytest.raises(ValueError, match="singular"):
            sb.asb_u_step(prob, sb.initial_state(prob))


def test_u_step_factor_follows_the_system_bandwidth():
    # tridiagonal normal systems take LAPACK's LDL^T, every other SuperLU
    rng = np.random.default_rng(6)
    tridiagonal = [
        sb.build_tv_problem(sb.make_tv_instance((32,), seed=1)),
        sb.SplitProblem(g=prox_quadratic(np.ones(5), 1.0), f=prox_l1(1.0, dim=5),
                        L=identity_operator(5)),
        sb.build_least_gradient_problem(sb.make_least_gradient_instance((20,))),
    ]
    general = [
        sb.build_tv_problem(sb.make_tv_instance((8, 8), seed=1)),
        sb.build_least_gradient_problem(sb.make_least_gradient_instance((8, 8))),
        sb.SplitProblem(g=prox_quadratic(np.ones(4), 1.0), f=prox_l1(1.0, dim=6),
                        L=matrix_operator(rng.standard_normal((6, 4)))),
    ]
    assert [type(p._usolver._factor) for p in tridiagonal] == [linops._TridiagonalFactor] * 3
    assert [type(p._usolver._factor) for p in general] == [SuperLU] * 3


def test_quadratic_u_step_factor_is_that_of_the_summed_system():
    # the normal matrix gets (rho/lam) on its diagonal in place; the factor
    # must be bit for bit the one of L^T L + (rho/lam) I, including where a
    # zero column of L leaves no diagonal entry to add to
    rng = np.random.default_rng(7)
    zero_column = rng.standard_normal((6, 4))
    zero_column[:, 2] = 0.0
    problems = [
        sb.build_tv_problem(sb.make_tv_instance((32,), seed=1)),
        sb.build_tv_problem(sb.make_tv_instance((8, 8), seed=1)),
        sb.SplitProblem(g=prox_quadratic(np.ones(4), 0.7), f=prox_l1(1.0, dim=6),
                        L=matrix_operator(rng.standard_normal((6, 4))), lam=1.3),
        sb.SplitProblem(g=prox_quadratic(np.ones(4), 0.7), f=prox_l1(1.0, dim=6),
                        L=matrix_operator(zero_column), lam=1.3),
    ]
    for prob in problems:
        a, n = prob.L.matrix, prob.L.domain_dim
        rho_lam = prob.g.params["scale"] / prob.lam
        reference = linops.spd_factor(a.T @ a + rho_lam * sp.identity(n))
        factor = prob._usolver._factor
        assert type(factor) is type(reference)
        if isinstance(factor, SuperLU):
            for part in ("perm_r", "perm_c"):
                assert np.array_equal(getattr(factor, part), getattr(reference, part))
            for part in ("L", "U"):
                assert np.array_equal(getattr(factor, part).toarray(),
                                      getattr(reference, part).toarray())
        else:
            assert np.array_equal(factor._d, reference._d)
            assert np.array_equal(factor._e, reference._e)
        rhs = rng.standard_normal(n)
        assert np.array_equal(factor.solve(rhs), reference.solve(rhs))


def test_u_step_rejects_unsupported_g():
    prob = sb.SplitProblem(g=prox_l1(1.0, dim=2), f=prox_l1(1.0, dim=2),
                           L=identity_operator(2), lam=1.0)
    with pytest.raises(ValueError, match="u-step"):
        _UStepSolver(prob)


def test_asb_solves_scalar_lasso():
    prob = lasso3()
    trace = sb.asb_iterate(prob, stop=sb.StoppingRule(tol=1e-13, max_iter=2000))
    assert trace.converged
    assert abs(trace.final.u[0] - 2.0) <= 1e-10
    assert abs(trace.energies[-1] - 2.5) <= 1e-10


def test_initial_setzer_view_is_zero():
    prob = lasso3()
    trace = sb.asb_iterate(prob, stop=sb.StoppingRule(tol=None, max_iter=3))
    assert np.array_equal(trace.iterates[0].x, np.zeros(1))
    assert np.array_equal(trace.iterates[0].p, np.zeros(1))


def test_b_update_identity_holds_bitwise(tv1d_problem):
    trace = sb.asb_iterate(tv1d_problem, stop=sb.StoppingRule(tol=None, max_iter=50))
    L = tv1d_problem.L
    for prev, cur in zip(trace.iterates[:-1], trace.iterates[1:]):
        recomputed = prev.b + L.apply(cur.u) - cur.d
        assert np.array_equal(cur.b, recomputed)


def test_tv1d_energy_converges_to_taut_string(tv1d_problem, tv1d_instance):
    trace = sb.asb_iterate(tv1d_problem, stop=sb.StoppingRule(tol=1e-12, max_iter=20_000))
    h = tv1d_instance.grid.spacing[0]
    u_star = taut_string_dirichlet(tv1d_instance.noisy_signal, tv1d_instance.mu / h)
    v_star = tv1d_problem.g.value(u_star) + tv1d_problem.f.value(tv1d_problem.L.apply(u_star))
    assert abs(trace.energies[-1] - v_star) <= 1e-8
    # energies decrease monotonically to the limit on this instance
    assert np.all(np.diff(trace.energies) <= 1e-12)


def test_setzer_column_is_the_twin_mismatch(tv1d_problem, lg_linear_problem):
    stop = sb.StoppingRule(tol=None, max_iter=300)
    for prob in (tv1d_problem, lg_linear_problem):
        for solver, other in ((sb.asb_iterate, sb.run_drs), (sb.run_drs, sb.asb_iterate)):
            trace = solver(prob, stop=stop)
            window, past = trace.setzer_defects[:200], trace.setzer_defects[200:]
            assert np.all(np.isfinite(window)) and window.max() <= 1e-9
            assert len(past) == 100 and np.all(np.isnan(past))
            # the certificate is the worst of the column and the k = 0 mismatch
            r0 = trace.iterates[0]
            o0 = other(prob, stop=sb.StoppingRule(tol=None, max_iter=1)).iterates[0]
            k0 = max(float(np.linalg.norm(r0.x - o0.x)), float(np.linalg.norm(r0.p - o0.p)))
            assert max(k0, *window) == trace.twin_defect
        approx = sb.asb_iterate_approx(prob, geometric_schedule(0.5), stop=stop)
        assert np.all(np.isnan(approx.setzer_defects))


def test_fejer_monotone_setzer_distances(tv1d_problem):
    ref = sb.asb_iterate(tv1d_problem, stop=sb.StoppingRule(tol=None, max_iter=5000),
                         record_stride=0)
    x_hat = ref.final.x
    trace = sb.asb_iterate(tv1d_problem, stop=sb.StoppingRule(tol=None, max_iter=500))
    dists = [np.linalg.norm(rec.x - x_hat) for rec in trace.iterates]
    for a, b in zip(dists[:-1], dists[1:]):
        assert b <= a + 1e-9


def test_record_stride_thins_snapshots(tv1d_problem):
    trace = sb.asb_iterate(tv1d_problem, stop=sb.StoppingRule(tol=None, max_iter=100),
                           record_stride=10)
    ks = [rec.k for rec in trace.iterates]
    assert ks == [0] + list(range(10, 101, 10))
    assert len(trace.residuals) == 100  # scalars stay dense

    sparse = sb.asb_iterate(tv1d_problem, stop=sb.StoppingRule(tol=None, max_iter=7),
                            record_stride=0)
    assert [rec.k for rec in sparse.iterates] == [0, 7]


def test_approx_zero_schedule_is_bit_identical(tv1d_problem):
    stop = sb.StoppingRule(tol=None, max_iter=120)
    exact = sb.asb_iterate(tv1d_problem, stop=stop)
    approx = sb.asb_iterate_approx(tv1d_problem, zero_schedule(), stop=stop, seed=99)
    assert np.array_equal(exact.residuals, approx.residuals)
    assert np.array_equal(exact.energies, approx.energies)
    for ra, rb in zip(exact.iterates, approx.iterates):
        assert np.array_equal(ra.b, rb.b)
        assert np.array_equal(ra.d, rb.d)
    assert np.all(approx.alpha_injected == 0.0)


def test_approx_geometric_schedule_converges(tv1d_problem):
    exact = sb.asb_iterate(tv1d_problem, stop=sb.StoppingRule(tol=1e-12, max_iter=20_000))
    approx = sb.asb_iterate_approx(tv1d_problem, geometric_schedule(0.5),
                                   stop=sb.StoppingRule(tol=1e-12, max_iter=20_000), seed=3)
    assert np.linalg.norm(approx.final.u - exact.final.u) <= 1e-6
    # injected image-space magnitudes follow the schedule
    assert np.allclose(approx.alpha_injected[:4], [0.5, 0.25, 0.125, 0.0625], rtol=1e-9)


def test_approx_harmonic_schedule_negative_control(tv1d_problem):
    exact = sb.asb_iterate(tv1d_problem, stop=sb.StoppingRule(tol=1e-12, max_iter=20_000))
    rough = sb.asb_iterate_approx(tv1d_problem, harmonic_schedule(),
                                  stop=sb.StoppingRule(tol=None, max_iter=500), seed=3)
    err = np.linalg.norm(rough.final.u - exact.final.u)
    assert np.isfinite(err)
    assert err > 1e-5  # perturbations never die out; no convergence claimed


def test_approx_noninjective_operator_energy_is_the_iterates():
    # interior differences are not injective; the u-step error still moves
    # u itself, so each energy is the recorded u's g(u) + f(L u)
    grid = GridSpec((12,))
    L = sb.interior_gradient_operator(grid)
    rng = np.random.default_rng(0)
    prob = sb.SplitProblem(g=prox_quadratic(rng.standard_normal(12), 1.0),
                           f=prox_l1(0.2, dim=L.codomain_dim), L=L, lam=1.0)
    trace = sb.asb_iterate_approx(prob, geometric_schedule(0.5),
                                  stop=sb.StoppingRule(tol=None, max_iter=30), seed=0)
    for prev, rec, energy, alpha in zip(trace.iterates, trace.iterates[1:], trace.energies,
                                        trace.alpha_injected):
        assert energy == prob.g.value(rec.u) + prob.f.value(L.apply(rec.u))
        u_exact = prob._usolver.solve_c(prev.b - prev.d)
        assert np.linalg.norm(L.apply(rec.u - u_exact)) == pytest.approx(alpha, rel=1e-9)
    assert np.allclose(trace.alpha_injected[:3], [0.5, 0.25, 0.125], rtol=1e-12)


def _pinned_custom_problem(mask):
    # the custom_matrix of the CLI's indicator example: L injective, g pins u[mask]
    L = matrix_operator([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return sb.SplitProblem(g=prox_indicator_point(np.array([1.0, 2.0]), np.array(mask)),
                           f=prox_l1(0.5, dim=3), L=L, lam=1.0)


def _approx_families():
    tv = sb.make_tv_instance((16,), mu=0.15, seed=4)
    tv2 = sb.make_tv_instance((6, 6), mu=0.15, seed=4)
    return {
        "lasso": lasso3(),
        "tv1d_dirichlet": sb.build_tv_problem(tv, boundary="dirichlet"),
        "tv1d_free": sb.build_tv_problem(tv, boundary="free"),
        "tv2d_dirichlet": sb.build_tv_problem(tv2, boundary="dirichlet"),
        "tv2d_free": sb.build_tv_problem(tv2, boundary="free"),
        "lg_1d": sb.build_least_gradient_problem(sb.make_least_gradient_instance((12,))),
        "lg_linear": sb.build_least_gradient_problem(sb.make_least_gradient_instance((8, 8))),
        "lg_two_phase": sb.build_least_gradient_problem(
            sb.make_least_gradient_instance((8, 8), kind="two_phase")),
        "custom_pinned": _pinned_custom_problem([True, False]),
    }


def test_approx_u_step_error_is_feasible_and_measured_through_L():
    # every shipped family, and a custom matrix with a pinned coordinate:
    # the recorded u satisfies g's constraint, and its image is off the
    # exact u-step's image by the scheduled magnitude
    schedule = geometric_schedule(0.5, 2.0)
    for name, prob in _approx_families().items():
        trace = sb.asb_iterate_approx(prob, schedule, seed=7,
                                      stop=sb.StoppingRule(tol=None, max_iter=25))
        for k, (prev, rec) in enumerate(zip(trace.iterates, trace.iterates[1:]), start=1):
            assert np.isfinite(prob.g.value(rec.u)), (name, k)
            u_exact = prob._usolver.solve_c(prev.b - prev.d)
            moved = np.linalg.norm(prob.L.apply(rec.u - u_exact))
            alpha = trace.alpha_injected[k - 1]
            assert moved == pytest.approx(alpha, rel=1e-9, abs=1e-12), (name, k)
            assert alpha == pytest.approx(schedule.magnitude(k), rel=1e-9), (name, k)
        assert np.all(np.isfinite(trace.energies)), name


@pytest.mark.parametrize("make", [
    lambda: _pinned_custom_problem([True, True]),
    lambda: sb.SplitProblem(g=prox_quadratic(np.array([1.0, -2.0]), 1.0),
                            f=prox_l1(0.5, dim=3), L=matrix_operator(np.zeros((3, 2))),
                            lam=1.0),
], ids=["fully_pinned", "zero_operator"])
def test_approx_injects_nothing_without_a_free_direction(make):
    prob = make()
    schedule = geometric_schedule(0.5)
    with np.errstate(all="raise"):
        trace = sb.asb_iterate_approx(prob, schedule, seed=1,
                                      stop=sb.StoppingRule(tol=None, max_iter=20))
    assert np.all(trace.alpha_injected == 0.0)
    assert np.allclose(trace.beta_injected, [schedule.magnitude(k) for k in range(1, 21)])
    exact = sb.asb_iterate(prob, stop=sb.StoppingRule(tol=None, max_iter=1), record_stride=1)
    assert np.array_equal(trace.iterates[1].u, exact.iterates[1].u)
    assert np.all(np.isfinite(trace.energies))


def test_overflowed_increments_do_not_stop_the_run():
    # every iterate is finite (u = +-7.5e299), but the increments overflow
    # to inf until k = 55, where the sweep reaches an exact fixed point;
    # inf <= tol * (1 + inf) must not count as convergence before that
    prob = sb.SplitProblem(g=prox_quadratic(np.array([1e300, -1e300]), 1.0),
                           f=prox_l1(1.0, dim=2), L=identity_operator(2), lam=1.0)
    with np.errstate(over="ignore"):
        trace = sb.asb_iterate(prob, stop=sb.StoppingRule(tol=1e-9, max_iter=50))
    assert not trace.converged
    assert trace.n_iter == 50
    assert np.all(np.isinf(trace.x_increments))
    assert np.all(np.isfinite(trace.final.u))


def test_dual_resolvents_reject_foreign_lambda(lasso_problem):
    pair = sb.dual_resolvents(lasso_problem)
    with pytest.raises(ValueError, match="lam"):
        pair.JA(np.zeros(lasso_problem.f.dim), 2.0)
    with pytest.raises(ValueError, match="lam"):
        pair.JB(np.zeros(lasso_problem.f.dim), 2.0)


def test_run_drs_matches_asb_under_mapping(lasso_problem):
    stop = sb.StoppingRule(tol=None, max_iter=150)
    init = sb.initial_state(lasso_problem)
    ta = sb.asb_iterate(lasso_problem, init=init, stop=stop)
    td = sb.run_drs(lasso_problem, init=init, stop=stop)
    cert = sb.equivalence_report(ta, td, lasso_problem.lam)
    assert cert.passed
    # the residual and energy columns agree between the two routes
    assert np.allclose(ta.residuals, td.residuals, atol=1e-9)
    assert np.allclose(ta.energies, td.energies, atol=1e-9)


def test_initial_state_validates_shapes(lasso_problem):
    with pytest.raises(ValueError):
        sb.initial_state(lasso_problem, b0=np.zeros(3))


def test_equivalence_holds_on_two_phase_instance(lg_two_phase_problem):
    stop = sb.StoppingRule(tol=None, max_iter=200)
    init = sb.initial_state(lg_two_phase_problem)
    ta = sb.asb_iterate(lg_two_phase_problem, init=init, stop=stop)
    td = sb.run_drs(lg_two_phase_problem, init=init, stop=stop)
    cert = sb.equivalence_report(ta, td, lg_two_phase_problem.lam)
    assert cert.passed


def test_dual_resolvents_are_firmly_nonexpansive(lasso_problem, tv1d_problem):
    rng = np.random.default_rng(12)
    for prob in (lasso_problem, tv1d_problem):
        pair = sb.dual_resolvents(prob)
        lam = prob.lam
        for J in (pair.JA, pair.JB):
            for _ in range(20):
                x = 3.0 * rng.standard_normal(pair.dim)
                y = 3.0 * rng.standard_normal(pair.dim)
                dj = J(x, lam) - J(y, lam)
                assert float(np.dot(dj, dj)) <= float(np.dot(dj, x - y)) + 1e-10


@pytest.mark.parametrize("stop", [
    sb.StoppingRule(tol=None, max_iter=0),
    sb.StoppingRule(tol=None, max_iter=60),
    sb.StoppingRule(tol=None, max_iter=230),
    sb.StoppingRule(tol=1e-8, max_iter=20_000),
], ids=["max_iter_0", "max_iter_60", "past_window", "stopped_by_rule"])
@pytest.mark.parametrize("solver", [sb.asb_iterate, sb.run_drs], ids=["asb", "drs"])
@pytest.mark.parametrize("name", ["lasso_problem", "tv1d_problem", "lg_two_phase_problem"])
def test_lockstep_certificate_matches_rerun(request, name, solver, stop):
    # the twin's certificate is the one a separate run of both forms over
    # the first min(n_iter, 200) iterations gives, bit for bit
    prob = request.getfixturevalue(name)
    trace = solver(prob, stop=stop, record_stride=0)
    window = sb.StoppingRule(tol=None, max_iter=min(trace.n_iter, 200))
    expected = sb.equivalence_report(sb.asb_iterate(prob, stop=window, record_stride=1),
                                     sb.run_drs(prob, stop=window, record_stride=1), prob.lam)
    assert lockstep_certificate(trace) == expected
    assert trace.twin_iterates == min(trace.n_iter, 200) + 1


def _tv2d_problem():
    return sb.build_tv_problem(sb.make_tv_instance((8, 8), seed=1), lam=2.0)


@pytest.mark.parametrize("name", ["lasso_problem", "tv1d_problem", "tv2d", "lg_two_phase_problem"])
def test_instrumented_drs_is_the_reference_recursion(request, name):
    # run_drs's own step and drs.drs_iterate over dual_resolvents give the
    # same (x, p), bit for bit, at every iterate k = 0..300
    prob = _tv2d_problem() if name == "tv2d" else request.getfixturevalue(name)
    stop = sb.StoppingRule(tol=None, max_iter=300)
    trace = sb.run_drs(prob, stop=stop, record_stride=1)
    zero = np.zeros(prob.f.dim)
    ref = sb.drs_iterate(sb.dual_resolvents(prob), zero, zero, lam=prob.lam, stop=stop)
    assert len(trace.iterates) == len(ref.states) == 301
    for rec, state in zip(trace.iterates, ref.states):
        assert rec.k == state.k
        assert np.array_equal(rec.x, state.x) and np.array_equal(rec.p, state.p)


@pytest.mark.parametrize("solver", ["asb_iterate", "run_drs"])
def test_twin_window_evaluates_the_energy_once_per_iteration(tv1d_problem, solver):
    # only the run measures its residual and energy; the lockstep twin
    # advances its iterate and nothing else
    calls = Counter()

    def counted(F):
        def value(x):
            calls[F.label] += 1
            return F.value(x)
        return dataclasses.replace(F, value=value)

    problem = dataclasses.replace(tv1d_problem, g=counted(tv1d_problem.g),
                                  f=counted(tv1d_problem.f))
    trace = getattr(sb, solver)(problem, stop=sb.StoppingRule(tol=None, max_iter=50))
    assert trace.twin_iterates == 51
    assert calls == {tv1d_problem.g.label: 50, tv1d_problem.f.label: 50}


def test_driver_flags_the_first_non_finite_vector(lasso_problem):
    f, calls = lasso_problem.f, []

    def prox(x, t):
        calls.append(t)
        return np.full_like(x, np.nan) if len(calls) == 2 else f.prox(x, t)

    # the DRS twin projects onto the l1 box without calling the prox, so
    # every call is the run's d-step: the second is the one at k = 2
    problem = dataclasses.replace(lasso_problem, f=dataclasses.replace(f, prox=prox))
    with pytest.raises(NonFiniteIterateError, match="non-finite d at iteration 2"):
        sb.asb_iterate(problem, stop=sb.StoppingRule(tol=None, max_iter=5))


# Where each vector the driver may scan goes non-finite at k = 3.  Every
# iteration calls the u-solve and L.apply once for the run, then once for
# the twin; the prox is called only by the ASB sweep, the dual resolvent
# only by the DRS step.  Poisoning an entry where it is computed, as a
# NaN or inf would arise, must raise for the same vector at the same k as
# scanning every vector at every step did.  "b" needs Lu poisoned and a
# prox that returns finite values there, so that u and d stay finite.
_K = 3
_POISON_SITES = {  # (solver, vector) -> {site: call index to poison}
    ("asb_iterate", "run u"): {"solve": 2 * _K - 1},
    ("asb_iterate", "run d"): {"prox": _K},
    ("asb_iterate", "run b"): {"apply": 2 * _K - 1, "prox_zero": _K},
    ("asb_iterate", "twin u"): {"solve": 2 * _K},
    ("asb_iterate", "twin x"): {"apply": 2 * _K},
    ("asb_iterate", "twin p"): {"resolvent": _K},
    ("run_drs", "run u"): {"solve": 2 * _K - 1},
    ("run_drs", "run x"): {"apply": 2 * _K - 1},
    ("run_drs", "run p"): {"resolvent": _K},
    ("run_drs", "twin u"): {"solve": 2 * _K},
    ("run_drs", "twin d"): {"prox": _K},
    ("run_drs", "twin b"): {"apply": 2 * _K, "prox_zero": _K},
}


@pytest.mark.parametrize("poison", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["lasso_problem", "tv1d_problem", "lg_linear_problem"])
@pytest.mark.parametrize("solver,vector", list(_POISON_SITES))
def test_scalar_first_checks_flag_each_vector_where_the_scan_did(
        request, monkeypatch, name, solver, vector, poison):
    problem = request.getfixturevalue(name)
    sites = _POISON_SITES[solver, vector]
    calls = Counter()

    def poisoned(site, fn):
        def call(*args):
            calls[site] += 1
            out = fn(*args)
            if calls[site] == sites.get(site):
                out = np.array(out, dtype=float, copy=True)
                out[0] = poison
            if calls[site] == sites.get(site + "_zero"):
                out = np.zeros_like(out)
            return out
        return call

    L, f = problem.L, problem.f
    problem = dataclasses.replace(
        problem, L=dataclasses.replace(L, apply=poisoned("apply", L.apply)),
        f=dataclasses.replace(f, prox=poisoned("prox", f.prox)))
    usolver = problem._usolver
    monkeypatch.setattr(usolver, "solve_c", poisoned("solve", usolver.solve_c))
    monkeypatch.setattr(sb.asb, "dual_resolvent", poisoned("resolvent", sb.asb.dual_resolvent))
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NonFiniteIterateError) as err:
            getattr(sb, solver)(problem, stop=sb.StoppingRule(tol=None, max_iter=6))
    assert str(err.value) == f"non-finite {vector.split()[1]} at iteration {_K}"
    assert err.value.iteration == _K


def test_approximate_run_carries_no_twin(tv1d_problem):
    trace = sb.asb_iterate_approx(tv1d_problem, zero_schedule(),
                                  stop=sb.StoppingRule(tol=None, max_iter=5))
    assert trace.twin_defect is None and trace.twin_iterates == 0
    with pytest.raises(ValueError, match="no lockstep twin"):
        lockstep_certificate(trace)
