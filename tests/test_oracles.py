import warnings

import numpy as np
import pytest

import splitbreg as sb
import splitbreg.oracles
from splitbreg import kernels
from splitbreg.functionals import dual_resolvent
from splitbreg.linops import GridSpec, gradient_operator, interior_gradient_operator
from splitbreg.oracles import (_opnorm_sq_bound, interior_stationarity_defect,
                               soft_threshold_optimum, taut_string_denoise, taut_string_dirichlet,
                               tv_dual_solve)


def test_soft_threshold_optimum(monkeypatch):
    y = np.array([3.0, -0.5, 0.0, 1.5])
    u = soft_threshold_optimum(y, 1.0)
    assert np.array_equal(u, [2.0, 0.0, 0.0, 0.5])

    # the oracle shares no code with prox_l1: it stands with the solvers' kernel gone
    def refuse(*args):
        raise AssertionError("the lasso oracle called the solvers' soft-threshold kernel")

    monkeypatch.setattr(kernels, "soft_threshold", refuse)
    assert np.array_equal(soft_threshold_optimum(y, 1.0), u)


def test_taut_string_rejects_negative_mu():
    with pytest.raises(ValueError):
        taut_string_denoise(np.zeros(3), -1.0)


def test_dirichlet_variant_reflection_midpoint_is_zero():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(21)
    ext = np.concatenate([y, [0.0], -y[::-1]])
    u_ext = taut_string_denoise(ext, 0.3)
    assert abs(u_ext[21]) <= 1e-12  # antisymmetry pins the middle sample
    u = taut_string_dirichlet(y, 0.3)
    assert np.array_equal(u, u_ext[:21])


@pytest.mark.parametrize("spacing", [1e-15, 1e-50, 1e-150])
def test_dirichlet_string_left_straight_is_exactly_zero(spacing):
    # mu/h large straightens the string from 0 to the extension's total, 0;
    # cumsum's roundoff of that total (-2.3e-17 here) must not survive, since
    # the zero-ghost boundary jump multiplies it by mu/h in the energy
    inst = sb.make_tv_instance((32,), mu=0.15, seed=0, spacing=spacing)
    assert np.cumsum(np.concatenate([inst.noisy_signal, [0.0],
                                     -inst.noisy_signal[::-1]]))[-1] != 0.0
    u = taut_string_dirichlet(inst.noisy_signal, inst.mu / spacing)
    assert np.array_equal(u, np.zeros(32))


def test_taut_string_agrees_with_dual_solve():
    # two independent exact-ish routes to the same optimum
    rng = np.random.default_rng(5)
    y = np.cumsum(rng.standard_normal(24)) * 0.3
    mu = 0.2
    grid = sb.GridSpec((24,))
    inst = sb.TvInstance(grid=grid, noisy_signal=y, mu=mu)
    prob = sb.build_tv_problem(inst, boundary="free")
    res = tv_dual_solve(prob, gap_tol=1e-12)
    u_ts = taut_string_denoise(y, mu)
    v_ts = prob.g.value(u_ts) + prob.f.value(prob.L.apply(u_ts))
    assert res.gap <= 1e-12 * (1.0 + abs(res.primal_value))
    assert abs(res.primal_value - v_ts) <= 1e-9


def test_tv_dual_solve_dirichlet_agrees_with_reflection():
    rng = np.random.default_rng(6)
    y = rng.standard_normal(16)
    inst = sb.TvInstance(grid=sb.GridSpec((16,)), noisy_signal=y, mu=0.25)
    prob = sb.build_tv_problem(inst, boundary="dirichlet")
    res = tv_dual_solve(prob, gap_tol=1e-12)
    u_ts = taut_string_dirichlet(y, 0.25)
    v_ts = prob.g.value(u_ts) + prob.f.value(prob.L.apply(u_ts))
    assert abs(res.primal_value - v_ts) <= 1e-9


@pytest.mark.parametrize("boundary", ["dirichlet", "free"])
def test_tv_dual_solve_in_2d_agrees_with_asb(boundary):
    # the weighted-l21 dual projection: the only independent value behind tv2d
    inst = sb.make_tv_instance((6, 6), mu=0.15, seed=0)
    prob = sb.build_tv_problem(inst, lam=1.0, boundary=boundary)
    res = tv_dual_solve(prob, gap_tol=1e-12)
    assert res.gap <= 1e-12 * (1.0 + abs(res.primal_value))
    w = prob.f.params["weights"]
    assert np.all(np.linalg.norm(res.b.reshape(-1, 2), axis=1) <= w * (1.0 + 1e-12))
    trace = sb.asb_iterate(prob, stop=sb.StoppingRule(tol=1e-13), record_stride=0)
    assert trace.converged
    assert abs(res.primal_value - trace.energies[-1]) <= 1e-9


def test_tv_dual_solve_certifies_only_a_gap_below_its_tolerance(monkeypatch):
    inst = sb.make_tv_instance((6, 6), mu=0.15, seed=0)
    prob = sb.build_tv_problem(inst, lam=1.0)
    res = tv_dual_solve(prob, gap_tol=1e-10)
    assert res.certified and res.gap <= 1e-10 * (1.0 + abs(res.primal_value))
    monkeypatch.setattr(splitbreg.oracles, "_DUAL_MAX_ITER", 25)
    capped = tv_dual_solve(prob, gap_tol=1e-10)
    assert capped.iterations == 25
    assert not capped.certified and capped.gap > 1e-10 * (1.0 + abs(capped.primal_value))


def test_tv_dual_solve_returns_a_certified_start_as_it_is():
    # the start's gap is tested before any step: restarted from a certified
    # dual point, the solve takes no step and returns that point's u
    prob = sb.build_tv_problem(sb.make_tv_instance((16,), seed=1), lam=2.0)
    res = tv_dual_solve(prob, gap_tol=1e-10)
    assert res.certified and res.iterations > 0
    again = tv_dual_solve(prob, gap_tol=1e-10, b0=res.b)
    assert again.certified and again.iterations == 0
    assert np.array_equal(again.b, res.b) and np.array_equal(again.u, res.u)
    assert again.gap == res.gap


@pytest.mark.parametrize("make", [gradient_operator, interior_gradient_operator])
@pytest.mark.parametrize("shape,spacing", [((2,), 1.0), ((17,), 0.3), ((40,), 2.5),
                                           ((2, 2), 1.0), ((6, 9), (0.5, 1.5)),
                                           ((12, 12), 0.25)])
def test_opnorm_bound_is_at_least_the_largest_eigenvalue(make, shape, spacing):
    # the dual solve's step is rho / bound, safe only if bound >= ||L||^2
    L = make(GridSpec(shape, spacing))
    a = L.matrix.toarray()
    top = np.linalg.eigvalsh(a.T @ a)[-1]
    assert _opnorm_sq_bound(L) >= top * (1.0 - 1e-12)  # eigvalsh roundoff only


@pytest.mark.parametrize("boundary", ["dirichlet", "free"])
def test_tv_dual_solve_from_a_run_dual_point_certifies_the_same_value(boundary):
    # warm-started from lam b of a converged run the solve certifies at its
    # start, k = 0; a random start, mostly outside f*'s domain, is
    # projected first and reaches the same value within the gaps
    prob = sb.build_tv_problem(sb.make_tv_instance((8, 8), seed=1), lam=2.0, boundary=boundary)
    trace = sb.asb_iterate(prob, stop=sb.StoppingRule(tol=1e-10), record_stride=0)
    cold = tv_dual_solve(prob, gap_tol=1e-10)
    warm = tv_dual_solve(prob, gap_tol=1e-10, b0=prob.lam * trace.final.b)
    assert cold.certified and warm.certified
    assert warm.iterations == 0 < cold.iterations
    assert abs(warm.primal_value - cold.primal_value) <= warm.gap + cold.gap
    b0 = 5.0 * np.random.default_rng(3).standard_normal(prob.f.dim)
    assert np.any(np.abs(b0) > prob.f.params["weights"].max())
    rand = tv_dual_solve(prob, gap_tol=1e-10, b0=b0)
    assert rand.certified
    assert abs(rand.primal_value - cold.primal_value) <= rand.gap + cold.gap


@pytest.mark.parametrize("shape,boundary", [((6, 7), "free"), ((8, 8), "dirichlet")])
def test_dual_projection_of_a_far_start_lands_on_its_balls(shape, boundary):
    # block norms that overflow a plain sum of squares are rescaled, so a
    # start near 1e200 is scaled onto each ball, not to 0, with no warning;
    # a moderate start keeps the bits of the plain norm's projection
    prob = sb.build_tv_problem(sb.make_tv_instance(shape, seed=1), lam=2.0, boundary=boundary)
    w = prob.f.params["weights"]
    moderate = 5.0 * np.random.default_rng(4).standard_normal(prob.f.dim)
    blocks = moderate.reshape(-1, 2)
    nrm = np.linalg.norm(blocks, axis=1)
    plain = (blocks * np.where(nrm > w, w / nrm, 1.0)[:, None]).reshape(-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(splitbreg.oracles._project_dual(prob.f, moderate), plain)
        far = 1e200 * moderate
        projected = splitbreg.oracles._project_dual(prob.f, far)
        assert np.array_equal(projected, dual_resolvent(prob.f, far, prob.lam))
        np.testing.assert_allclose(np.linalg.norm(projected.reshape(-1, 2), axis=1), w,
                                   rtol=4 * np.finfo(float).eps)
        res = tv_dual_solve(prob, gap_tol=1e-10, b0=far)
    assert res.certified


def test_tv_dual_solve_requires_quadratic_fidelity(lg_linear_problem):
    with pytest.raises(ValueError, match="quadratic"):
        tv_dual_solve(lg_linear_problem)


def test_stationarity_certificate_linear_instance(lg_linear_instance, lg_linear_problem):
    defect = interior_stationarity_defect(lg_linear_problem, lg_linear_instance.u_true)
    assert defect <= 1e-12
    # a perturbed candidate is no longer certified
    u_bad = lg_linear_instance.u_true.copy()
    u_bad[17] += 0.05  # node (1, 1): interior
    assert interior_stationarity_defect(lg_linear_problem, u_bad) > 1e-6


def test_stationarity_certificate_two_phase(lg_two_phase_instance, lg_two_phase_problem):
    defect = interior_stationarity_defect(lg_two_phase_problem, lg_two_phase_instance.u_true)
    assert defect <= 1e-12


def test_stationarity_certificate_zero_block_returns_inf(lg_linear_problem):
    # a flat candidate has zero gradient blocks: no unique dual field
    flat = lg_linear_problem.g.prox(np.zeros(lg_linear_problem.g.dim), 1.0)
    flat[~lg_linear_problem.g.params["mask"]] = 0.0
    # boundary data is nonconstant, so interior zeros give some zero blocks
    assert interior_stationarity_defect(lg_linear_problem, flat) == np.inf \
        or interior_stationarity_defect(lg_linear_problem, flat) > 1e-3
