import dataclasses
import gc
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import SuperLU

import splitbreg as sb
from splitbreg import linops
from splitbreg.diagnostics import equivalence_certificate
from splitbreg.drs import NonFiniteIterateError
from splitbreg.functionals import (ErrorSchedule, prox_indicator_point, prox_l1,
                                   prox_quadratic, zero_functional)
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
    u = prob._usolver.solve_c(state.b - state.d)
    assert np.allclose(u, state.d - state.b, atol=1e-12)


def test_u_step_fully_constrained_indicator():
    anchor = np.array([4.0, -1.0])
    prob = sb.SplitProblem(g=sb.prox_indicator_point(anchor), f=prox_l1(1.0, dim=2),
                           L=identity_operator(2), lam=1.0)
    state = sb.AsbState(d=np.array([9.0, 9.0]), b=np.array([-9.0, 9.0]))
    assert np.array_equal(prob._usolver.solve_c(state.b - state.d), anchor)


def test_u_step_matches_dense_solve(tv1d_problem, tv1d_instance):
    rng = np.random.default_rng(0)
    state = sb.AsbState(d=rng.standard_normal(32), b=rng.standard_normal(32))
    u = tv1d_problem._usolver.solve_c(state.b - state.d)

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
        assert np.linalg.norm(prob._usolver.solve_c(state.b - state.d) - expected) <= 1e-10


def test_u_step_singular_system_raises():
    rng = np.random.default_rng(4)
    cases = [
        matrix_operator([[1.0, 0.0], [0.0, 0.0]]),
        # semidefinite systems that factor without a zero pivot: only the
        # pivot floor stops a solution of size ~1e15
        interior_gradient_operator(GridSpec((9,), 0.3)),
        matrix_operator(rng.standard_normal((12, 3)) @ rng.standard_normal((3, 6))),
        # neither tridiagonal nor a Kronecker sum: splu's factor is exactly singular
        matrix_operator([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]),
    ]
    for L in cases:
        prob = sb.SplitProblem(g=zero_functional(L.domain_dim), f=prox_l1(1.0, dim=L.codomain_dim),
                               L=L, lam=1.0)
        with pytest.raises(ValueError, match="singular") as err:
            state = sb.initial_state(prob)
            prob._usolver.solve_c(state.b - state.d)
    # the last case's error carries splu's own message
    assert str(err.value) == "u-step normal system is singular (Factor is exactly singular)"


def test_u_step_factor_follows_the_system_bandwidth():
    # tridiagonal normal systems take LAPACK's LDL^T, Kronecker sums of two
    # tridiagonals (2-D grids with an identity or zero-ghost structure per
    # axis) the per-axis eigendecomposition, every other SuperLU
    rng = np.random.default_rng(6)
    tridiagonal = [
        sb.build_tv_problem(sb.make_tv_instance((32,), seed=1)),
        sb.SplitProblem(g=prox_quadratic(np.ones(5), 1.0), f=prox_l1(1.0, dim=5),
                        L=identity_operator(5)),
        sb.build_least_gradient_problem(sb.make_least_gradient_instance((20,))),
    ]
    kronecker_sum = [
        sb.build_tv_problem(sb.make_tv_instance((8, 8), seed=1)),
        sb.build_least_gradient_problem(sb.make_least_gradient_instance((8, 8))),
    ]
    general = [
        # the cell-origin selection makes the free-boundary system no Kronecker sum
        sb.build_tv_problem(sb.make_tv_instance((8, 8), seed=1), boundary="free"),
        sb.SplitProblem(g=prox_quadratic(np.ones(4), 1.0), f=prox_l1(1.0, dim=6),
                        L=matrix_operator(rng.standard_normal((6, 4)))),
    ]
    assert [type(p._usolver._factor) for p in tridiagonal] == [linops._TridiagonalFactor] * 3
    assert [type(p._usolver._factor) for p in kronecker_sum] == [linops._KroneckerSumFactor] * 2
    assert [type(p._usolver._factor) for p in general] == [SuperLU] * 2


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
        elif isinstance(factor, linops._KroneckerSumFactor):
            for part in ("_v0", "_v1", "_eigsum"):
                assert np.array_equal(getattr(factor, part), getattr(reference, part))
        else:
            assert np.array_equal(factor._d, reference._d)
            assert np.array_equal(factor._e, reference._e)
        rhs = rng.standard_normal(n)
        assert np.array_equal(factor.solve(rhs), reference.solve(rhs))


def test_u_step_rejects_unsupported_g():
    # refused when the problem is built, so no solver ever sees such a g
    with pytest.raises(ValueError, match="^g: label 'l1' has no exact u-step"):
        sb.SplitProblem(g=prox_l1(1.0, dim=2), f=prox_l1(1.0, dim=2),
                        L=identity_operator(2), lam=1.0)
    prob = sb.SplitProblem(g=zero_functional(2), f=prox_l1(1.0, dim=2),
                           L=identity_operator(2), lam=1.0)
    with pytest.raises(ValueError, match="^g: label 'l1' has no exact u-step"):
        dataclasses.replace(prob, g=prox_l1(1.0, dim=2))


class _TwoPathUStep:
    """Reference u-step with one path per kind of g.

    The point indicator solves ``L^T L`` on its free coordinates, or
    returns the anchor when every coordinate is pinned; the quadratic
    solves ``L^T L + (rho/lam) I``, and zero g is its rho = 0 case.
    """

    def __init__(self, problem):
        g, L = problem.g, problem.L
        self.L = L
        self.mode = g.label
        a = L.matrix
        self._factor = None
        if self.mode == "indicator_point":
            mask = np.asarray(g.params["mask"], dtype=bool)
            self.anchor_ext = np.zeros(L.domain_dim)
            self.anchor_ext[mask] = np.asarray(g.params["anchor"], dtype=float)[mask]
            self.free = ~mask
            if not np.any(self.free):
                return
            a_free = a[:, np.flatnonzero(self.free)]
            system = a_free.T @ a_free
            self._rhs0 = -(a_free.T @ (a @ self.anchor_ext))
        else:
            rho_lam = float(g.params.get("scale", 0.0)) / problem.lam
            self._rhs0 = rho_lam * np.asarray(g.params.get("target", 0.0), dtype=float)
            system = a.T @ a
            if rho_lam:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", sp.SparseEfficiencyWarning)
                    system.setdiag(system.diagonal() + rho_lam)
        self._factor = linops.spd_factor(system, what="u-step normal system")

    def solve_c(self, c):
        ltc = self.L.adjoint_apply(c)
        if self.mode == "indicator_point":
            u = self.anchor_ext.copy()
            if self._factor is not None:
                u[self.free] = self._factor.solve(self._rhs0 - ltc[self.free])
            return u
        return self._factor.solve(self._rhs0 - ltc)


def _u_step_systems():
    rng = np.random.default_rng(11)
    tv1 = sb.make_tv_instance((32,), mu=0.15, seed=2)
    tv2 = sb.make_tv_instance((6, 7), mu=0.15, seed=2)
    a = rng.standard_normal((7, 4))
    anchor = rng.standard_normal(4)

    def custom(g):
        return sb.SplitProblem(g=g, f=prox_l1(0.5, dim=7), L=matrix_operator(a), lam=1.7)

    return {
        "tv1d_dirichlet": sb.build_tv_problem(tv1, boundary="dirichlet"),
        "tv1d_free": sb.build_tv_problem(tv1, boundary="free"),
        "tv2d_dirichlet": sb.build_tv_problem(tv2, boundary="dirichlet"),
        "tv2d_free": sb.build_tv_problem(tv2, boundary="free"),
        "lg_1d": sb.build_least_gradient_problem(sb.make_least_gradient_instance((20,))),
        "lg_2d": sb.build_least_gradient_problem(
            sb.make_least_gradient_instance((8, 6), kind="two_phase")),
        "lasso": lasso3(),
        "custom_quadratic": custom(prox_quadratic(rng.standard_normal(4), 0.6)),
        "custom_zero": custom(zero_functional(4)),
        "custom_pins_none": custom(prox_indicator_point(anchor, np.zeros(4, dtype=bool))),
        "custom_pins_some": custom(prox_indicator_point(anchor, [True, False, False, True])),
        "custom_pins_all": custom(prox_indicator_point(anchor)),
    }


@pytest.mark.parametrize("name", list(_u_step_systems()))
def test_one_u_step_path_matches_the_two_path_reference(name):
    # values, not bytes: zero g's constant part is -0.0 where the
    # reference's is a scalar +0.0, so a zero entry may differ in sign
    prob = _u_step_systems()[name]
    reference = _TwoPathUStep(prob)
    rng = np.random.default_rng(5)
    for scale in (1.0, 1e-3, 1e4):
        c = scale * rng.standard_normal(prob.f.dim)
        assert np.array_equal(prob._usolver.solve_c(c), reference.solve_c(c))


def _well_conditioned(rng, m, n):
    # singular values in [0.5, 2], so every column subset has full rank
    # and the dense reference solve is accurate to the tolerance below
    q, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(0.5, 2.0, n)) @ v.T


@settings(max_examples=100, deadline=None)
@given(shape=st.integers(1, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m))),
       lam=st.floats(0.1, 10.0), kind=st.sampled_from(["quadratic", "zero", "indicator_point"]),
       mask_bits=st.integers(0, 2**8 - 1), seed=st.integers(0, 2**16))
@example(shape=(5, 3), lam=1.0, kind="indicator_point", mask_bits=0, seed=0)
@example(shape=(5, 3), lam=1.0, kind="indicator_point", mask_bits=2**8 - 1, seed=0)
def test_one_u_step_path_solves_the_free_normal_equations(shape, lam, kind, mask_bits, seed):
    m, n = shape
    rng = np.random.default_rng(seed)
    a = _well_conditioned(rng, m, n)
    target, anchor = 3.0 * rng.standard_normal(n), 3.0 * rng.standard_normal(n)
    mask = np.zeros(n, dtype=bool)
    curvature = 0.0
    if kind == "quadratic":
        scale = rng.uniform(0.1, 5.0)
        g, curvature = prox_quadratic(target, scale), scale / lam
    elif kind == "zero":
        g = zero_functional(n)
    else:
        mask = (mask_bits >> np.arange(n)) & 1 == 1
        g = prox_indicator_point(anchor, mask)
    prob = sb.SplitProblem(g=g, f=prox_l1(1.0, dim=m), L=matrix_operator(a), lam=lam)

    c = 3.0 * rng.standard_normal(m)
    u = prob._usolver.solve_c(c)
    free = ~mask
    assert np.array_equal(u[mask], anchor[mask])
    a_free = a[:, free]
    expected = np.linalg.solve(
        a_free.T @ a_free + curvature * np.eye(a_free.shape[1]),
        curvature * target[free] - a_free.T @ (c + a[:, mask] @ anchor[mask]))
    assert np.linalg.norm(u[free] - expected) <= 1e-10 * (1.0 + np.linalg.norm(expected))

    # the first dual resolvent is firmly nonexpansive
    JA = sb.dual_resolvents(prob).JA
    y1, y2 = 3.0 * rng.standard_normal(m), 3.0 * rng.standard_normal(m)
    j1, j2 = JA(y1, lam), JA(y2, lam)
    dj = j1 - j2
    scale = 1.0 + np.dot(j1, j1) + np.dot(j2, j2)
    assert np.dot(dj, dj) <= np.dot(dj, y1 - y2) + 1e-10 * scale


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


@pytest.mark.parametrize("solver", ["asb", "drs", "asb_approx"])
@pytest.mark.parametrize("name", ["lasso_problem", "tv1d_problem", "lg_two_phase_problem"])
def test_residual_is_the_split_mismatch_of_the_snapshots(request, name, solver):
    # the driver records ||x_{k+1} - x_k|| / lam; under x = lam (b + d) that
    # is ||d_k - L u_{k+1}||, recomputed here from the snapshots themselves
    prob = dataclasses.replace(request.getfixturevalue(name), lam=0.4)
    stop = sb.StoppingRule(tol=None, max_iter=80)
    if solver == "asb_approx":
        trace = sb.asb_iterate_approx(prob, ErrorSchedule("geometric", scale=0.3, ratio=0.9),
                                      stop=stop, seed=4, record_stride=1)
        assert np.all(trace.alpha_injected > 0.0)
    else:
        trace = {"asb": sb.asb_iterate, "drs": sb.run_drs}[solver](prob, stop=stop,
                                                                   record_stride=1)
    recs = trace.iterates
    assert [r.k for r in recs] == list(range(81))
    mismatch = [np.linalg.norm(prev.d - prob.L.apply(cur.u))
                for prev, cur in zip(recs[:-1], recs[1:])]
    scale = (1.0 + max(np.linalg.norm(r.x) for r in recs)) / prob.lam
    assert np.max(np.abs(trace.residuals - mismatch)) <= 1e-12 * scale


def test_tv1d_energy_converges_to_taut_string(tv1d_problem, tv1d_instance):
    trace = sb.asb_iterate(tv1d_problem, stop=sb.StoppingRule(tol=1e-12, max_iter=20_000))
    h = tv1d_instance.grid.spacing[0]
    u_star = taut_string_dirichlet(tv1d_instance.noisy_signal, tv1d_instance.mu / h)
    v_star = tv1d_problem.g.value(u_star) + tv1d_problem.f.value(tv1d_problem.L.apply(u_star))
    assert abs(trace.energies[-1] - v_star) <= 1e-8
    # energies decrease monotonically to the limit on this instance
    assert np.all(np.diff(trace.energies) <= 1e-12)


def test_setzer_column_is_the_one_step_defect(tv1d_problem, lg_linear_problem):
    stop = sb.StoppingRule(tol=None, max_iter=300)
    for prob in (tv1d_problem, lg_linear_problem):
        for kind, solver in (("asb", sb.asb_iterate), ("drs", sb.run_drs)):
            trace = solver(prob, stop=stop, record_stride=1)
            window, past = trace.setzer_defects[:200], trace.setzer_defects[200:]
            assert np.all(np.isfinite(window)) and window.max() <= 1e-9
            assert len(past) == 100 and np.all(np.isnan(past))
            recs = trace.iterates
            # e_k recomputed from the snapshots by the lean-path test's reference
            recomputed = [
                _reference_check(kind, prob, prev.x, prev.p, _run_input(kind, prev, prob.lam),
                                 prob.L.apply(cur.u), cur.x, cur.p)
                for prev, cur in zip(recs[:200], recs[1:201])]
            assert np.array_equal(window, recomputed)
            # the certificate is the recomputed defects' sum over the window, in order
            cert = equivalence_certificate(trace)
            assert cert.defect == _in_order_sum(recomputed)
            assert "over 201 iterates" in cert.details
        # an approximate run checks the same window, less its injected d-step
        # errors (its column is recomputed in the lean-path test's reference)
        approx = sb.asb_iterate_approx(prob, ErrorSchedule("geometric", ratio=0.5), stop=stop)
        window, past = approx.setzer_defects[:200], approx.setzer_defects[200:]
        assert np.all(np.isfinite(window)) and window.max() <= 1e-9
        assert len(past) == 100 and np.all(np.isnan(past))
        cert = equivalence_certificate(approx)
        assert cert.defect == _in_order_sum(window.tolist())
        assert "over 201 iterates" in cert.details


def _in_order_sum(values):
    # a running sum in iteration order; builtin sum() of floats compensates
    # from Python 3.12, and np.sum adds pairwise
    total = 0.0
    for value in values:
        total += value
    return total


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
    approx = sb.asb_iterate_approx(tv1d_problem, ErrorSchedule("geometric", scale=0.0),
                                   stop=stop, seed=99)
    assert np.array_equal(exact.residuals, approx.residuals)
    assert np.array_equal(exact.energies, approx.energies)
    assert np.array_equal(exact.setzer_defects, approx.setzer_defects)
    assert equivalence_certificate(exact).defect == equivalence_certificate(approx).defect
    for ra, rb in zip(exact.iterates, approx.iterates):
        assert np.array_equal(ra.b, rb.b)
        assert np.array_equal(ra.d, rb.d)
    assert np.all(approx.alpha_injected == 0.0)


def test_approx_geometric_schedule_converges(tv1d_problem):
    exact = sb.asb_iterate(tv1d_problem, stop=sb.StoppingRule(tol=1e-12, max_iter=20_000))
    approx = sb.asb_iterate_approx(tv1d_problem, ErrorSchedule("geometric", ratio=0.5),
                                   stop=sb.StoppingRule(tol=1e-12, max_iter=20_000), seed=3)
    assert np.linalg.norm(approx.final.u - exact.final.u) <= 1e-6
    # injected image-space magnitudes follow the schedule
    assert np.allclose(approx.alpha_injected[:4], [0.5, 0.25, 0.125, 0.0625], rtol=1e-9)


def test_approx_harmonic_schedule_negative_control(tv1d_problem):
    exact = sb.asb_iterate(tv1d_problem, stop=sb.StoppingRule(tol=1e-12, max_iter=20_000))
    rough = sb.asb_iterate_approx(tv1d_problem, ErrorSchedule("harmonic"),
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
    trace = sb.asb_iterate_approx(prob, ErrorSchedule("geometric", ratio=0.5),
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
    schedule = ErrorSchedule("geometric", scale=2.0, ratio=0.5)
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
    schedule = ErrorSchedule("geometric", ratio=0.5)
    with np.errstate(all="raise"):
        trace = sb.asb_iterate_approx(prob, schedule, seed=1,
                                      stop=sb.StoppingRule(tol=None, max_iter=20))
    assert np.all(trace.alpha_injected == 0.0)
    exact = sb.asb_iterate(prob, stop=sb.StoppingRule(tol=None, max_iter=1), record_stride=1)
    assert np.array_equal(trace.iterates[1].u, exact.iterates[1].u)
    # the d-step error is still injected, at the scheduled norm
    d_error = np.linalg.norm(trace.iterates[1].d - exact.iterates[1].d)
    assert d_error == pytest.approx(schedule.magnitude(1), rel=1e-12)
    assert np.all(np.isfinite(trace.energies))


def _scaled_norm(v):
    # the norm without overflow, as m ||v / m||
    m = np.max(np.abs(v))
    return 0.0 if m == 0.0 else m * np.linalg.norm(v / m)


def test_increments_whose_squares_overflow_stay_finite_and_stop_the_run():
    # every iterate is finite (u = +-7.5e299) and so is every increment,
    # though its sum of squares overflows; the run stops at the first k
    # whose increments pass tol * (1 + ||x_{k-1}||), all three norms taken
    # without overflow
    prob = sb.SplitProblem(g=prox_quadratic(np.array([1e300, -1e300]), 1.0),
                           f=prox_l1(1.0, dim=2), L=identity_operator(2), lam=1.0)
    with np.errstate(over="ignore"):
        trace = sb.asb_iterate(prob, stop=sb.StoppingRule(tol=1e-9, max_iter=100))
    assert trace.converged
    assert np.all(np.isfinite(trace.x_increments))
    assert np.all(np.isfinite(trace.final.u))
    recs = trace.iterates
    passes = [max(_scaled_norm(cur.x - prev.x), _scaled_norm(cur.p - prev.p))
              <= 1e-9 * (1.0 + _scaled_norm(prev.x)) for prev, cur in zip(recs, recs[1:])]
    assert passes.index(True) + 1 == trace.n_iter


def _scaled_lasso(s):
    y = s * np.array([1.0, -2.0, 3.0, 0.5])
    return sb.SplitProblem(g=prox_quadratic(y, 1.0), f=prox_l1(0.1 * s, dim=4),
                           L=identity_operator(4), lam=1.0)


def _scaled_lasso_run(solver, s):
    # (converged, x iterates, x-increments) of the scaled lasso under solver
    prob, stop = _scaled_lasso(s), sb.StoppingRule(tol=1e-9, max_iter=1000)
    with np.errstate(over="ignore"):
        if solver == "drs_iterate":
            zero = np.zeros(4)
            run = sb.drs_iterate(sb.dual_resolvents(prob), zero, zero, lam=1.0, stop=stop)
            return run.converged, [st.x for st in run.states], run.x_increments
        trace = getattr(sb, solver)(prob, stop=stop, record_stride=1)
        return trace.converged, [rec.x for rec in trace.iterates], trace.x_increments


@pytest.mark.parametrize("solver", ["asb_iterate", "run_drs", "drs_iterate"])
@pytest.mark.parametrize("s", [1e155, 1e160, 1e170, 1e200])
def test_an_overflowed_norm_does_not_stop_the_run_early(solver, s):
    # ||x_k|| overflows a plain sum of squares; tol * (1 + inf) passed any
    # finite increment, and the run reported convergence at k = 5
    # (s = 1e155) or k = 22 (s = 1e160).  From s = 1e170 on the increments'
    # squares overflow too: inf increments never passed, and only an exact
    # fixed point stopped the run.  Taken without overflow, every norm
    # scales with s, and the run stops where the unscaled one does
    converged, xs, incs = _scaled_lasso_run(solver, s)
    with np.errstate(over="ignore"):
        assert np.linalg.norm(xs[-2]) == np.inf
    assert converged and np.all(np.isfinite(incs))
    assert incs[-1] <= 1e-9 * (1.0 + _scaled_norm(xs[-2]))
    unscaled = _scaled_lasso_run(solver, 1.0)
    assert unscaled[0] and len(incs) == len(unscaled[2])


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
                x = 3.0 * rng.standard_normal(prob.f.dim)
                y = 3.0 * rng.standard_normal(prob.f.dim)
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
def test_equivalence_bound_covers_the_rerun(request, name, solver, stop):
    # the summed one-step defects bound how far a twin of the other form
    # drifts, in exact arithmetic: here, the mismatch of a separate run of
    # both forms over the first min(n_iter, 200) iterations, at the same
    # tolerance.  Those two runs also round: each step rounds a few vector
    # operations and one u-solve, and both maps are nonexpansive, so their
    # rounding adds up at most linearly over the window.  The slack allows
    # 16 ulps of the largest iterate per step.  The most a separate run was
    # measured to exceed the sum, in these units, is 3.5 (linear least
    # gradient 16x16 at lam = 3, three iterations) over lasso at lam = 1,
    # tv1d 32 to 128, and least gradient and tv2d 16x16 at lam in
    # {0.3, 1, 3, 10}; it grows with the u-solve's conditioning (14 on
    # 32x32), so larger grids would need more.  Here the slack stays below
    # 4e-12, far under the 1e-9 tolerance.
    prob = request.getfixturevalue(name)
    trace = solver(prob, stop=stop, record_stride=0)
    window = sb.StoppingRule(tol=None, max_iter=min(trace.n_iter, 200))
    runs = (sb.asb_iterate(prob, stop=window, record_stride=1),
            sb.run_drs(prob, stop=window, record_stride=1))
    rerun = sb.equivalence_report(*runs, prob.lam)
    largest = max(max(np.linalg.norm(rec.x), np.linalg.norm(rec.p))
                  for run in runs for rec in run.iterates)
    slack = 16.0 * window.max_iter * np.finfo(float).eps * largest
    cert = equivalence_certificate(trace)
    assert cert.defect + slack >= rerun.defect
    assert (cert.kind, cert.tolerance, cert.passed) == ("equivalence", 1e-9, True)
    assert f"over {min(trace.n_iter, 200) + 1} iterates" in cert.details


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
def test_check_window_solves_once_per_iteration(monkeypatch, tv1d_problem, solver):
    # the one-step check reuses the run's u-solve and L u: inside the window
    # each iteration solves once, applies L once, evaluates g and f once, and
    # calls each f-side map once, the run's and the other form's.  Each form's
    # move is written once: the run's step calls its own form's, and its check
    # the other's, so each is called once per iteration
    calls = Counter()

    def counted(what, fn):
        def call(*args):
            calls[what] += 1
            return fn(*args)
        return call

    g, f, L = tv1d_problem.g, tv1d_problem.f, tv1d_problem.L
    problem = dataclasses.replace(
        tv1d_problem, g=dataclasses.replace(g, value=counted("g", g.value)),
        f=dataclasses.replace(f, value=counted("f", f.value), prox=counted("prox", f.prox)),
        L=dataclasses.replace(L, apply=counted("apply", L.apply)))
    monkeypatch.setattr(problem._usolver, "solve_c",
                        counted("solve", problem._usolver.solve_c))
    monkeypatch.setattr(sb.asb, "dual_resolvent", counted("resolvent", sb.asb.dual_resolvent))
    for name, form in (("sweep", "_SWEEP"), ("drs", "_DRS")):
        move = getattr(sb.asb, form).move
        monkeypatch.setattr(sb.asb, form, getattr(sb.asb, form)._replace(move=counted(name, move)))
    trace = getattr(sb, solver)(problem, stop=sb.StoppingRule(tol=None, max_iter=50))
    assert "over 51 iterates" in equivalence_certificate(trace).details
    assert calls == dict.fromkeys(["g", "f", "solve", "apply", "prox", "resolvent", "sweep",
                                   "drs"], 50)


def test_driver_flags_the_first_non_finite_vector(lasso_problem):
    f, calls = lasso_problem.f, []

    def prox(x, t):
        calls.append(t)
        return np.full_like(x, np.nan) if len(calls) == 2 else f.prox(x, t)

    # the DRS check projects onto the l1 box without calling the prox, so
    # every call is the run's d-step: the second is the one at k = 2
    problem = dataclasses.replace(lasso_problem, f=dataclasses.replace(f, prox=prox))
    with pytest.raises(NonFiniteIterateError, match="non-finite d at iteration 2"):
        sb.asb_iterate(problem, stop=sb.StoppingRule(tol=None, max_iter=5))


# Where each vector the driver may scan goes non-finite at k = 3.  Every
# iteration calls the u-solve and L.apply once, for the run, and the check
# reuses both; the prox is called only by the sweep's d-step (an asb run's
# step, a drs run's check), the dual resolvent only by the DRS shadow step
# (a drs run's step, an asb run's check).  Poisoning an entry where it is
# computed, as a NaN or inf would arise, must raise for the same vector at
# the same k as scanning every vector at every step did.  "b" needs Lu
# poisoned and a prox that returns finite values there, so that u and d
# stay finite.  The check's other vectors are formed from the run's, so
# they go non-finite only where a run vector does first.  When the run and
# the check both go non-finite at k, the run's vector is the one named.
_K = 3
_POISON_SITES = {  # (solver, vector) -> {site: call index to poison}
    ("asb_iterate", "run u"): {"solve": _K},
    ("asb_iterate", "run d"): {"prox": _K},
    ("asb_iterate", "run b"): {"apply": _K, "prox_zero": _K},
    ("asb_iterate", "check p"): {"resolvent": _K},
    ("run_drs", "run u"): {"solve": _K},
    ("run_drs", "run x"): {"apply": _K},
    ("run_drs", "run p"): {"resolvent": _K},
    ("run_drs", "check d"): {"prox": _K},
    ("asb_iterate", "run d + check p"): {"prox": _K, "resolvent": _K},
    ("run_drs", "run p + check d"): {"resolvent": _K, "prox": _K},
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


def test_approximate_run_certifies_the_inexact_correspondence(tv1d_problem):
    trace = sb.asb_iterate_approx(tv1d_problem, ErrorSchedule("geometric", ratio=0.5),
                                  stop=sb.StoppingRule(tol=None, max_iter=5))
    assert np.all(np.isfinite(trace.setzer_defects))
    cert = equivalence_certificate(trace)
    assert (cert.kind, cert.tolerance, cert.passed) == ("equivalence", 1e-9, True)
    assert cert.defect == _in_order_sum(trace.setzer_defects.tolist())
    assert cert.details.startswith("sum of one-step defects of the DRS map, less the injected "
                                   "d-step error, at the asb_approx run's points over 6 ")


def _wrong_sign_move(run, point, Lu, d_error=None):
    z = point[0] + Lu
    d = run.prox(z, run.t)
    b = z + d
    x = b + d
    x *= run.lam
    return x, run.lam * b, (b, d), (("d", d), ("b", b))


def _check_without_d_error(exact):
    return lambda run, x, p, c, Lu, d_error: exact(run, x, p, c, Lu, None)


# Each mutation is a wrong correspondence between the two forms, injected
# where the code computes it: the sweep form's u-solve input and move (its
# d-step's prox and b-update), which a sweep run's steps and a DRS run's
# checks share, and the DRS move's dual resolvent.  A site "_SWEEP.<field>"
# replaces that function of the sweep's form, and "_Run.check" the run's
# check.  The last mutation drops the approximate sweep's d-step error from
# its check; an exact run injects none, so it passes under that one.
_MUTATIONS = {
    "b_update_sign": ("_SWEEP.move", lambda exact: _wrong_sign_move),
    "lam_for_inverse_lam": ("prox", lambda exact: lambda z, t: exact(z, 1.0 / t)),
    "prox_for_dual_resolvent": ("dual_resolvent", lambda exact: lambda F, x, lam: F.prox(x, lam)),
    "u_input_off_by_b": ("_SWEEP.input",
                         lambda exact: lambda run, point: exact(run, point) + point[0]),
    "dual_resolvent_plus_1e-6": ("dual_resolvent",
                                 lambda exact: lambda F, x, lam: exact(F, x, lam) + 1e-6),
    "check_ignores_d_error": ("_Run.check", _check_without_d_error),
}


@pytest.mark.parametrize("solver", ["asb_iterate", "run_drs", "asb_iterate_approx"])
@pytest.mark.parametrize("name", ["lasso_problem", "tv1d_problem", "lg_two_phase_problem"])
@pytest.mark.parametrize("mutation", [None, *_MUTATIONS])
def test_equivalence_fails_under_each_mutation(request, monkeypatch, mutation, name, solver):
    # lam = 0.5, so that lam and 1/lam differ; the unmutated row passes
    problem = dataclasses.replace(request.getfixturevalue(name), lam=0.5)
    schedule = ({"schedule": ErrorSchedule("geometric", ratio=0.5)}
                if solver == "asb_iterate_approx" else {})
    unseen = mutation is None or (mutation == "check_ignores_d_error" and not schedule)
    if mutation is not None:
        site, make = _MUTATIONS[mutation]
        if site == "prox":
            f = problem.f
            problem = dataclasses.replace(problem, f=dataclasses.replace(f, prox=make(f.prox)))
        elif site.startswith("_SWEEP."):
            field = site.split(".")[1]
            form = sb.asb._SWEEP
            monkeypatch.setattr(sb.asb, "_SWEEP",
                                form._replace(**{field: make(getattr(form, field))}))
        elif site == "_Run.check":
            monkeypatch.setattr(sb.asb._Run, "check", make(sb.asb._Run.check))
        else:
            monkeypatch.setattr(sb.asb, site, make(getattr(sb.asb, site)))
    with np.errstate(over="ignore", invalid="ignore"):
        trace = getattr(sb, solver)(problem, **schedule,
                                    stop=sb.StoppingRule(tol=None, max_iter=60), record_stride=0)
    assert equivalence_certificate(trace).passed is unseen


# The u-step, both steps and the driver loop as they were before each run
# bound its kernels once and the unpinned u-step dropped its gather and
# scatter: a fixed reference the lean path must reproduce bit for bit.
class _ReferenceUStep:
    def __init__(self, problem):
        g, L = problem.g, problem.L
        self.pinned = np.zeros(L.domain_dim, dtype=bool) | g.params.get("mask", False)
        self._anchor = np.where(self.pinned, g.params.get("anchor", 0.0), 0.0)
        curvature = g.params.get("scale", 0.0) / problem.lam
        self._free = np.flatnonzero(~self.pinned) if self.pinned.any() else slice(None)
        a = L.matrix
        a_free = a[:, self._free]
        at_free = a_free.T.tocsr()
        self._adjoint_free = linops._matvec(at_free)
        system = (at_free @ a_free).T
        self._rhs0 = -self._adjoint_free(a @ self._anchor)
        if curvature:
            self._rhs0 += curvature * g.params["target"]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", sp.SparseEfficiencyWarning)
                system.setdiag(system.diagonal() + curvature)
        self._factor = linops.spd_factor(system, what="u-step normal system")

    def solve_c(self, c):
        u = self._anchor.copy()
        u[self._free] = self._factor.solve(self._rhs0 - self._adjoint_free(c))
        return u


def _reference_prox(f, z, t):
    if f.label == "l1":  # the thresholds formed on every call
        return sb.kernels.soft_threshold(np.ascontiguousarray(z, dtype=float),
                                         t * f.params["weights"])
    return f.prox(z, t)


def _reference_resolvent(f, x, lam):
    if f.label == "l1":  # the box's lower bound formed on every call
        w = f.params["weights"]
        return np.minimum(np.maximum(x, -w), w)
    return sb.dual_resolvent(f, x, lam)


class _ReferenceRecursion:
    def __init__(self, problem, usolver, schedule=None, rng=None):
        self.problem, self.usolver, self.schedule, self.rng = problem, usolver, schedule, rng
        b, d = np.zeros(problem.f.dim), np.zeros(problem.f.dim)
        self.x, self.p, self._bd = problem.lam * (b + d), problem.lam * b, (b, d)

    def bd(self):
        if self._bd is None:
            lam = self.problem.lam
            b = self.p / lam
            self._bd = (b, self.x / lam - b)
        return self._bd


class _ReferenceAsb(_ReferenceRecursion):
    def step(self, k):
        lam, L, f = self.problem.lam, self.problem.L, self.problem.f
        b, d = self._bd
        c = b - d
        u = self.usolver.solve_c(c)
        Lu = Lu_exact = L.apply(u)
        m_k = self.schedule.magnitude(k) if self.schedule is not None else 0.0
        alpha = 0.0
        if m_k > 0.0:
            w = sb.asb._unit_perturbation(self.rng, L.domain_dim)
            w[self.usolver.pinned] = 0.0
            img_norm = float(np.linalg.norm(L.apply(w)))
            if img_norm > 0.0:
                u = u + w * (m_k / img_norm)
                Lu = L.apply(u)
                alpha = float(np.linalg.norm(Lu - Lu_exact))
        z = b + Lu
        d_new = _reference_prox(f, z, 1.0 / lam)
        d_error = None
        if m_k > 0.0:
            d_error = sb.asb._unit_perturbation(self.rng, f.dim) * m_k
            d_new = d_new + d_error
        b_new = z - d_new
        self._bd = (b_new, d_new)
        self.x, self.p = lam * (b_new + d_new), lam * b_new
        return c, u, Lu, alpha, d_error


class _ReferenceDrs(_ReferenceRecursion):
    def step(self, k):
        lam, L, f = self.problem.lam, self.problem.L, self.problem.f
        x, p = self.x, self.p
        y = 2.0 * p - x
        c = y / lam
        u = self.usolver.solve_c(c)
        Lu = L.apply(u)
        x_new = lam * Lu
        x_new += y
        x_new += x
        x_new -= p
        self.x, self.p, self._bd = x_new, _reference_resolvent(f, x_new, lam), None
        return c, u, Lu, 0.0, None


def _reference_norm(v):
    return float(np.sqrt(v.dot(v)))


def _reference_check(kind, problem, x, p, c, Lu, x_new, p_new, d_error=None):
    # the other form's map at (x, p) with the run's L u, against (x_new, p_new);
    # an approximate sweep's p_new took -lam d_error, which the DRS step's has not
    lam, f = problem.lam, problem.f
    if kind == "asb":  # the DRS step from (x, p)
        y = 2.0 * p - x
        delta = lam * _reference_norm(c - y / lam)
        x_other = lam * Lu + y + x - p
        p_other = _reference_resolvent(f, x_other, lam)
    else:  # the sweep from (x, p) mapped to (b, d)
        b = p / lam
        d = x / lam - b
        delta = lam * _reference_norm(c - (b - d))
        z = b + Lu
        d_other = _reference_prox(f, z, 1.0 / lam)
        b_other = z - d_other
        x_other, p_other = lam * (b_other + d_other), lam * b_other
    dp = p_other - p_new
    if d_error is not None:
        dp -= lam * d_error
    return 2.0 * _reference_norm(x_other - x_new) + _reference_norm(dp) + delta


def _run_input(kind, rec, lam):
    # the u-solve input a run formed at the snapshot rec, in its arithmetic
    return rec.b - rec.d if kind == "asb" else (2.0 * rec.p - rec.x) / lam


def _reference_drive(run, kind, stop):
    g, f, lam = run.problem.g, run.problem.f, run.problem.lam
    series = {name: [] for name in ("residuals", "energies", "setzer_defects", "x_increments",
                                    "alpha_injected")}
    bound = 0.0
    converged, k, u = False, 0, None
    for k in range(1, stop.max_iter + 1):
        x_prev, p_prev = run.x, run.p
        c, u, Lu, alpha, d_error = run.step(k)
        x_inc, p_inc = _reference_norm(run.x - x_prev), _reference_norm(run.p - p_prev)
        defect = np.nan
        if k <= 200:
            defect = _reference_check(kind, run.problem, x_prev, p_prev, c, Lu, run.x, run.p,
                                      d_error)
            bound += defect
        for name, value in zip(series, (x_inc / lam, g.value(u) + f.value(Lu), defect, x_inc,
                                        alpha)):
            series[name].append(value)
        if stop.fired(x_inc, p_inc, _reference_norm(x_prev)):
            converged = True
            break
    b, d = run.bd()
    return series, converged, k, bound, (u, b, d, run.x, run.p)


def _lean_path_problems():
    tv1 = sb.make_tv_instance((48,), mu=0.15, seed=5)
    m = matrix_operator([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    zero_g = matrix_operator([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [2.0, 1.0, 1.0]])
    return {
        "lasso": lambda: sb.SplitProblem(g=prox_quadratic(np.linspace(-3.0, 3.0, 10), 1.0),
                                         f=prox_l1(1.0, dim=10), L=identity_operator(10),
                                         lam=0.7),
        "tv1d_dirichlet": lambda: sb.build_tv_problem(tv1, boundary="dirichlet"),
        "tv1d_free": lambda: sb.build_tv_problem(tv1, boundary="free"),
        "tv2d": lambda: sb.build_tv_problem(sb.make_tv_instance((8, 8), seed=1), lam=2.0),
        "lg_1d": lambda: sb.build_least_gradient_problem(
            sb.make_least_gradient_instance((20,)), lam=0.5),
        "lg_2d": lambda: sb.build_least_gradient_problem(
            sb.make_least_gradient_instance((12, 9), kind="two_phase"), lam=0.3),
        "custom_pins_all": lambda: sb.SplitProblem(
            g=prox_indicator_point(np.array([1.0, 2.0])), f=prox_l1(0.5, dim=3), L=m),
        "custom_zero_g": lambda: sb.SplitProblem(
            g=zero_functional(3), f=prox_quadratic(np.array([1.0, 2.0, -1.0, 0.5]), 1.0),
            L=zero_g),
    }


@pytest.mark.parametrize("solver", ["asb", "drs", "asb_approx"])
@pytest.mark.parametrize("name", list(_lean_path_problems()))
def test_lean_path_reproduces_the_reference_loop_bit_for_bit(name, solver):
    # past the 200-iteration check window, unless the run converges first
    stop = sb.StoppingRule(tol=1e-11, max_iter=260)
    schedule = ErrorSchedule("geometric", scale=0.3, ratio=0.95)
    prob = _lean_path_problems()[name]()
    ref_problem = _lean_path_problems()[name]()  # its own functionals and factor
    usolver = _ReferenceUStep(ref_problem)
    if solver == "asb":
        trace = sb.asb_iterate(prob, stop=stop, record_stride=0)
        run, kind = _ReferenceAsb(ref_problem, usolver), "asb"
    elif solver == "drs":
        trace = sb.run_drs(prob, stop=stop, record_stride=0)
        run, kind = _ReferenceDrs(ref_problem, usolver), "drs"
    else:
        trace = sb.asb_iterate_approx(prob, schedule, stop=stop, seed=8, record_stride=0)
        run, kind = _ReferenceAsb(ref_problem, usolver, schedule, np.random.default_rng(8)), "asb"
    series, converged, n_iter, bound, final = _reference_drive(run, kind, stop)
    assert ((trace.n_iter, trace.converged, equivalence_certificate(trace).defect)
            == (n_iter, converged, bound))
    for field, values in series.items():
        assert np.array_equal(getattr(trace, field), np.array(values), equal_nan=True), field
    last = trace.final
    for field, value in zip("ubdxp", final):
        assert np.array_equal(getattr(last, field), value), field
    if solver == "asb_approx" and name != "custom_pins_all":
        assert np.all(trace.alpha_injected > 0.0)  # the injection ran


def _buffers(problem):
    # every array a step may read but must not write or hand out
    usolver = problem._usolver
    arrays = [usolver._anchor, usolver._rhs0, usolver.pinned]
    # a SuperLU factor keeps its arrays out of reach
    arrays += [v for v in getattr(usolver._factor, "__dict__", {}).values()
               if isinstance(v, np.ndarray)]
    for F in (problem.f, problem.g):
        for value in F.params.values():
            arrays += [v for v in (value if isinstance(value, tuple) else (value,))
                       if isinstance(v, np.ndarray)]
    return arrays


@pytest.mark.parametrize("form", ["asb", "drs", "asb_approx"])
@pytest.mark.parametrize("name", ["lasso", "tv1d_dirichlet", "tv2d", "lg_2d", "custom_pins_all",
                                  "custom_zero_g"])
def test_step_results_never_alias(name, form):
    problem = _lean_path_problems()[name]()
    if form == "drs":
        rec = sb.asb._Run(problem, None, sb.asb._DRS)
    else:
        schedule = ErrorSchedule("geometric", scale=0.3) if form == "asb_approx" else None
        rec = sb.asb._Run(problem, None, sb.asb._SWEEP, schedule, np.random.default_rng(2))
    buffers = _buffers(problem)
    saved = [a.copy() for a in buffers]
    prev = [rec.x, rec.p, *rec.bd()]
    for k in range(1, 21):
        _, _, u, Lu, _, _ = rec.step(k)
        new = [u, Lu, rec.x, rec.p, *rec.bd()]
        for i, a in enumerate(new):
            for other in new[i + 1:] + prev + buffers:
                assert not np.shares_memory(a, other)
        prev = new
    for a, before in zip(buffers, saved):
        assert np.array_equal(a, before)


@pytest.mark.parametrize("name", ["tv1d_dirichlet", "lg_2d"])
def test_u_step_solver_is_freed_with_its_problem_without_the_cycle_collector(name):
    # a solver in a reference cycle outlives its run until a full collection,
    # which raises the peak memory of a process that runs many problems
    problem = _lean_path_problems()[name]()
    gc.disable()
    try:
        for solver in (sb.asb_iterate, sb.run_drs):
            solver(problem, stop=sb.StoppingRule(tol=None, max_iter=3))
        alive = weakref.ref(problem._usolver)
        del problem
        assert alive() is None
    finally:
        gc.enable()


def test_problems_on_one_operator_share_one_u_step_factor():
    # the factor depends on L, the pinned set and the curvature only; the
    # anchor and target stay per problem, and a shared factor gives the run
    # a cold memo gives
    rng = np.random.default_rng(9)
    L = matrix_operator(rng.standard_normal((6, 4)))

    def problem(target):
        return sb.SplitProblem(g=prox_quadratic(target, 0.7), f=prox_l1(0.5, dim=6), L=L, lam=1.3)

    first, second = problem(rng.standard_normal(4)), problem(rng.standard_normal(4))
    assert second._usolver._factor is first._usolver._factor
    assert not np.array_equal(second._usolver._rhs0, first._usolver._rhs0)
    shared = sb.asb_iterate(second, stop=sb.StoppingRule(tol=1e-12, max_iter=500))
    sb.asb._u_step_structure.cache_clear()
    cold = problem(second.g.params["target"])
    assert cold._usolver._factor is not first._usolver._factor
    trace = sb.asb_iterate(cold, stop=sb.StoppingRule(tol=1e-12, max_iter=500))
    for field in ("residuals", "energies", "setzer_defects", "x_increments"):
        assert np.array_equal(getattr(trace, field), getattr(shared, field), equal_nan=True)
    # another curvature, or another pinned set, is another factor
    other_lam = sb.SplitProblem(g=second.g, f=second.f, L=L, lam=2.0)
    pinned = sb.SplitProblem(g=prox_indicator_point(np.ones(4), [True, False, False, False]),
                             f=second.f, L=L)
    assert other_lam._usolver._factor is not cold._usolver._factor
    assert pinned._usolver._factor is not cold._usolver._factor


def test_structure_memos_keep_at_most_their_maxsize():
    # a long process keeps a bounded set of operators and factors
    rng = np.random.default_rng(10)
    size = linops._MEMO_SIZE
    for n in range(2, size + 5):
        L = linops.gradient_operator(GridSpec((n,)))
        assert linops.gradient_operator(GridSpec((n,))) is L
        sb.SplitProblem(g=prox_quadratic(np.ones(3), 1.0), f=prox_l1(1.0, dim=4),
                        L=matrix_operator(rng.standard_normal((4, 3))))._usolver
    for memo in (linops._grid_gradient, sb.asb._u_step_structure):
        info = memo.cache_info()
        assert info.maxsize == size and info.currsize == size
