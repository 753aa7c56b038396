import numpy as np
import pytest

import splitbreg as sb
from splitbreg.linops import GridSpec, gradient_operator, interior_gradient_operator
from splitbreg.oracles import (_opnorm_sq_bound, interior_stationarity_defect,
                               soft_threshold_optimum, taut_string_denoise, taut_string_dirichlet,
                               tv_dual_solve)


def test_soft_threshold_optimum():
    y = np.array([3.0, -0.5, 0.0, 1.5])
    u = soft_threshold_optimum(y, 1.0)
    assert np.array_equal(u, [2.0, 0.0, 0.0, 0.5])


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
