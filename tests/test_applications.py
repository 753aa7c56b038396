import numpy as np
import pytest

import splitbreg as sb
from splitbreg.applications import (LeastGradientInstance, boundary_mask, linear_field,
                                    make_least_gradient_instance, make_tv_instance,
                                    two_phase_conductivity)
from splitbreg.linops import GridSpec


def test_boundary_mask_shapes():
    m1 = boundary_mask(GridSpec((5,)))
    assert m1.sum() == 2 and m1[0] and m1[-1]
    m2 = boundary_mask(GridSpec((4, 6)))
    assert m2.sum() == 2 * 4 + 2 * 6 - 4
    assert not m2.reshape(4, 6)[1:-1, 1:-1].any()


def test_linear_field():
    g = GridSpec((3, 4))
    f0 = linear_field(g, axis=0).reshape(3, 4)
    assert np.allclose(f0[:, 0], [0.0, 0.5, 1.0])
    assert np.allclose(f0[0], 0.0) and np.allclose(f0[2], 1.0)
    f1 = linear_field(g, axis=1).reshape(3, 4)
    assert np.allclose(f1[0], np.linspace(0, 1, 4))


def test_tv_instance_generation_and_serialization():
    inst = make_tv_instance((32,), mu=0.15, seed=42)
    assert inst.noisy_signal.shape == (32,)
    again = make_tv_instance((32,), mu=0.15, seed=42)
    assert np.array_equal(inst.noisy_signal, again.noisy_signal)  # seeded

    other = make_tv_instance((32,), mu=0.15, seed=43)
    assert not np.array_equal(inst.noisy_signal, other.noisy_signal)

    with pytest.raises(ValueError):
        sb.TvInstance(grid=GridSpec((4,)), noisy_signal=np.zeros(3), mu=1.0)


def test_tv_mu_zero_returns_data():
    inst = make_tv_instance((16,), mu=0.0, seed=1)
    prob = sb.build_tv_problem(inst)
    trace = sb.asb_iterate(prob, stop=sb.StoppingRule(tol=1e-13, max_iter=5000))
    assert np.linalg.norm(trace.final.u - inst.noisy_signal) <= 1e-9


def test_tv_huge_mu_limits():
    inst = make_tv_instance((16,), mu=1e6, seed=1)
    dirichlet = sb.build_tv_problem(inst, boundary="dirichlet")
    td = sb.asb_iterate(dirichlet, stop=sb.StoppingRule(tol=1e-12, max_iter=5000))
    assert np.linalg.norm(td.final.u) <= 1e-6  # pinned variant collapses to zero

    free = sb.build_tv_problem(inst, boundary="free")
    tf = sb.asb_iterate(free, stop=sb.StoppingRule(tol=1e-12, max_iter=5000))
    mean = inst.noisy_signal.mean()
    assert np.linalg.norm(tf.final.u - mean) <= 1e-6  # free variant flattens to the mean


def test_build_tv_problem_2d_uses_blockwise_norm():
    inst = make_tv_instance((6, 7), mu=0.2, seed=3)
    prob = sb.build_tv_problem(inst)
    assert prob.f.label == "weighted_l21"
    assert prob.f.dim == 2 * 6 * 7
    with pytest.raises(ValueError):
        sb.build_tv_problem(inst, boundary="periodic")


def test_forward_model_linear_conductivity(lg_linear_instance):
    inst = lg_linear_instance
    expected = linear_field(inst.grid, axis=0)
    assert np.allclose(inst.u_true, expected, atol=1e-11)
    assert np.allclose(inst.j_magnitude, inst.j_magnitude[0], atol=1e-12)
    mask = boundary_mask(inst.grid)
    assert np.array_equal(inst.boundary_data, inst.u_true[mask])


def test_forward_model_conductivity_scaling():
    grid = GridSpec((8, 8))
    data = linear_field(grid)[boundary_mask(grid)]
    base = sb.forward_model(grid, np.ones(64), data)
    scaled = sb.forward_model(grid, np.full(64, 3.0), data)
    assert np.allclose(base.u_true, scaled.u_true, atol=1e-11)
    assert np.allclose(scaled.j_magnitude, 3.0 * base.j_magnitude, atol=1e-12)


def test_forward_model_validation():
    grid = GridSpec((4, 4))
    data = np.zeros(int(boundary_mask(grid).sum()))
    with pytest.raises(ValueError, match="positive"):
        sb.forward_model(grid, np.zeros(16), data)
    with pytest.raises(ValueError, match="per node"):
        sb.forward_model(grid, np.ones(15), data)
    with pytest.raises(ValueError, match="boundary"):
        sb.forward_model(grid, np.ones(16), np.zeros(3))


def test_j_magnitude_invariant(lg_two_phase_instance):
    inst = lg_two_phase_instance
    L = sb.interior_gradient_operator(inst.grid)
    grads = L.apply(inst.u_true).reshape(-1, 2)
    sigma_blocks = inst.conductivity.reshape(16, 16)[:15, :15].reshape(-1)
    recomputed = sigma_blocks * np.linalg.norm(grads, axis=1)
    assert np.max(np.abs(recomputed - inst.j_magnitude)) <= 1e-10


def test_two_phase_fixture_values(lg_two_phase_instance):
    # regression pins from the first verified forward solve
    inst = lg_two_phase_instance
    assert inst.conductivity.min() == 1.0 and inst.conductivity.max() == 2.0
    assert abs(float(np.sum(inst.j_magnitude)) - 18.286280789543145) <= 1e-9
    assert abs(float(np.linalg.norm(inst.u_true)) - 9.310673071965827) <= 1e-9


def test_boundary_feasibility_after_first_u_step(lg_linear_problem, lg_linear_instance):
    trace = sb.asb_iterate(lg_linear_problem, stop=sb.StoppingRule(tol=None, max_iter=2))
    mask = boundary_mask(lg_linear_instance.grid)
    for rec in trace.iterates[1:]:
        assert np.array_equal(rec.u[mask], lg_linear_instance.boundary_data)


def test_zero_weight_degenerate_instance(lg_linear_instance):
    # |J| = 0 everywhere: every feasible point is optimal; the solver must
    # still return a feasible point, and no uniqueness is asserted
    inst = LeastGradientInstance(
        grid=lg_linear_instance.grid,
        conductivity=lg_linear_instance.conductivity,
        boundary_data=lg_linear_instance.boundary_data,
        j_magnitude=np.zeros_like(lg_linear_instance.j_magnitude),
        u_true=lg_linear_instance.u_true,
    )
    prob = sb.build_least_gradient_problem(inst)
    trace = sb.asb_iterate(prob, stop=sb.StoppingRule(tol=None, max_iter=5))
    mask = boundary_mask(inst.grid)
    assert np.array_equal(trace.final.u[mask], inst.boundary_data)
    assert trace.energies[-1] == 0.0


def test_two_phase_conductivity_layout():
    grid = GridSpec((8, 8))
    sigma = two_phase_conductivity(grid, inclusion=5.0).reshape(8, 8)
    assert sigma[0, 0] == 1.0 and sigma[4, 4] == 5.0
    with pytest.raises(ValueError):
        two_phase_conductivity(GridSpec((8,)))


def test_make_least_gradient_instance_kinds():
    with pytest.raises(ValueError):
        make_least_gradient_instance((8, 8), kind="random")


def test_tv_respects_grid_spacing():
    # with spacing h the discrete TV weight becomes mu/h in sequence form
    from splitbreg.oracles import taut_string_dirichlet

    inst = make_tv_instance((24,), mu=0.1, seed=5, spacing=0.5)
    prob = sb.build_tv_problem(inst)
    trace = sb.asb_iterate(prob, stop=sb.StoppingRule(tol=1e-12, max_iter=20_000))
    u_star = taut_string_dirichlet(inst.noisy_signal, inst.mu / 0.5)
    v_star = prob.g.value(u_star) + prob.f.value(prob.L.apply(u_star))
    assert abs(trace.energies[-1] - v_star) <= 1e-8


def test_tv_energy_matches_taut_string_on_twenty_seeds():
    from splitbreg.oracles import taut_string_dirichlet

    for seed in range(20):
        inst = make_tv_instance((32,), mu=0.15, seed=seed)
        prob = sb.build_tv_problem(inst)
        trace = sb.asb_iterate(prob, stop=sb.StoppingRule(tol=1e-12, max_iter=20_000))
        u_star = taut_string_dirichlet(inst.noisy_signal, inst.mu)
        v_star = prob.g.value(u_star) + prob.f.value(prob.L.apply(u_star))
        assert abs(trace.energies[-1] - v_star) <= 1e-8, f"seed {seed}"
