import numpy as np
import pytest

from splitbreg.drs import (DrsState, NonFiniteIterateError, ResolventPair, StoppingRule,
                           drs_iterate, drs_step, fejer_check, inclusion_defect)
from splitbreg.functionals import prox_l1, prox_quadratic
from splitbreg.oracles import soft_threshold_optimum


def quadratic_pair():
    """A = d(0.5 x^2), B = d(0.5 (x-2)^2); the inclusion solution is p = 1."""
    ga = prox_quadratic(np.zeros(1), 1.0)
    gb = prox_quadratic(np.array([2.0]), 1.0)
    return ResolventPair(JA=lambda y, lam: ga.prox(y, lam),
                         JB=lambda y, lam: gb.prox(y, lam), dim=1)


def test_quadratic_pair_fixed_point():
    run = drs_iterate(quadratic_pair(), x0=np.zeros(1), p0=np.zeros(1), lam=1.0,
                      stop=StoppingRule(tol=1e-13, max_iter=5000))
    assert run.converged
    assert abs(run.final.p[0] - 1.0) < 1e-10


def test_identity_resolvents_freeze_x():
    pair = ResolventPair(JA=lambda y, lam: y.copy(), JB=lambda y, lam: y.copy(), dim=3)
    x0 = np.array([1.0, -2.0, 0.5])
    state = DrsState(x=x0, p=x0.copy(), k=0)
    for _ in range(10):
        state = drs_step(state, pair, 1.0)
    assert np.array_equal(state.x, x0)


def test_drs_solves_small_lasso():
    rng = np.random.default_rng(6)
    y = np.array([2.5, -0.4])
    mu = 1.0
    quad = prox_quadratic(y, 1.0)
    l1 = prox_l1(mu, dim=2)
    pair = ResolventPair(JA=lambda v, lam: quad.prox(v, lam),
                         JB=lambda v, lam: l1.prox(v, lam), dim=2)
    run = drs_iterate(pair, x0=rng.standard_normal(2), lam=1.0,
                      stop=StoppingRule(tol=None, max_iter=500))
    assert np.linalg.norm(run.final.p - soft_threshold_optimum(y, mu)) <= 1e-8


def test_inexact_zero_perturbation_is_bit_identical():
    pair = quadratic_pair()
    exact = DrsState(x=np.array([0.3]), p=pair.JB(np.array([0.3]), 1.0), k=0)
    inexact = exact
    z = np.zeros(1)
    for _ in range(100):
        exact = drs_step(exact, pair, 1.0)
        inexact = drs_step(inexact, pair, 1.0, alpha_k=z, beta_k=z)
        assert np.array_equal(exact.x, inexact.x)
        assert np.array_equal(exact.p, inexact.p)


def test_inexact_summable_perturbations_converge():
    rng = np.random.default_rng(2)
    pair = quadratic_pair()
    state = DrsState(x=np.zeros(1), p=pair.JB(np.zeros(1), 1.0), k=0)
    for k in range(1, 201):
        mag = 0.5**k
        a = mag * np.sign(rng.standard_normal(1))
        bvec = mag * np.sign(rng.standard_normal(1))
        state = drs_step(state, pair, 1.0, alpha_k=a, beta_k=bvec)
    assert abs(state.p[0] - 1.0) < 1e-6


def test_inexact_constant_perturbation_negative_control():
    # non-summable constant kicks: run and record; must stay finite but
    # has no business converging to the solution
    rng = np.random.default_rng(5)
    pair = quadratic_pair()
    state = DrsState(x=np.zeros(1), p=pair.JB(np.zeros(1), 1.0), k=0)
    for _ in range(300):
        a = 0.1 * np.sign(rng.standard_normal(1))
        bvec = 0.1 * np.sign(rng.standard_normal(1))
        state = drs_step(state, pair, 1.0, alpha_k=a, beta_k=bvec)
    err = abs(state.p[0] - 1.0)
    assert np.isfinite(err)
    assert 1e-4 < err < 1.0


def test_increment_decay_on_small_problems():
    quad = prox_quadratic(np.array([2.5, -0.4]), 1.0)
    l1 = prox_l1(1.0, dim=2)
    lasso_pair = ResolventPair(JA=lambda v, lam: quad.prox(v, lam),
                               JB=lambda v, lam: l1.prox(v, lam), dim=2)
    for pair, x0 in [(quadratic_pair(), np.array([5.0])),
                     (lasso_pair, np.array([1.0, -1.0]))]:
        run = drs_iterate(pair, x0=x0, lam=1.0, stop=StoppingRule(tol=None, max_iter=500))
        assert run.x_increments[-1] < 1e-6
        # partial sums of squared increments stabilize
        ps = np.cumsum(run.x_increments**2)
        assert ps[-1] - ps[-100] < 1e-10


def test_exact_step_maintains_shadow_invariant():
    pair = quadratic_pair()
    state = DrsState(x=np.array([4.0]), p=np.array([-1.0]), k=0)
    for _ in range(5):
        state = drs_step(state, pair, 0.7)
        assert np.array_equal(state.p, pair.JB(state.x, 0.7))


def test_fejer_check_on_quadratic_pair():
    pair = quadratic_pair()
    ref = drs_iterate(pair, x0=np.array([7.0]), lam=1.0,
                      stop=StoppingRule(tol=None, max_iter=10_000))
    x_hat = ref.final.x
    run = drs_iterate(pair, x0=np.array([7.0]), lam=1.0,
                      stop=StoppingRule(tol=None, max_iter=400))
    report = fejer_check(run.states, x_hat)
    assert report.violations == 0

    # constant sequence at the fixed point: all terms vanish
    fixed = [DrsState(x=x_hat, p=ref.final.p, k=i) for i in range(5)]
    rep2 = fejer_check(fixed, x_hat)
    assert rep2.violations == 0 and rep2.max_violation <= 0.0


def test_fejer_check_needs_two_iterates():
    with pytest.raises(ValueError):
        fejer_check([DrsState(x=np.zeros(1), p=np.zeros(1), k=0)], np.zeros(1))


def test_fejer_check_reports_inexact_violations():
    # heavy perturbations may break monotonicity; the check reports rather
    # than asserts
    rng = np.random.default_rng(8)
    pair = quadratic_pair()
    states = [DrsState(x=np.zeros(1), p=pair.JB(np.zeros(1), 1.0), k=0)]
    for _ in range(50):
        a = 0.5 * rng.standard_normal(1)
        states.append(drs_step(states[-1], pair, 1.0, alpha_k=a, beta_k=a))
    ref = drs_iterate(pair, x0=np.zeros(1), lam=1.0,
                      stop=StoppingRule(tol=None, max_iter=5000))
    report = fejer_check(states, ref.final.x)
    assert report.violations >= 0  # report-only path exercised


def test_inclusion_defect_at_convergence():
    pair = quadratic_pair()
    run = drs_iterate(pair, x0=np.array([3.0]), lam=1.0,
                      stop=StoppingRule(tol=1e-13, max_iter=20_000))
    assert inclusion_defect(pair, run.final.x, run.final.p, 1.0) <= 1e-7
    # a perturbed pair must fail loudly
    assert inclusion_defect(pair, run.final.x + 0.3, run.final.p, 1.0) > 1e-3


def test_non_finite_iterate_error_carries_index():
    pair = ResolventPair(JA=lambda y, lam: y * np.inf, JB=lambda y, lam: y, dim=1)
    state = DrsState(x=np.ones(1), p=np.ones(1), k=4)
    with pytest.raises(NonFiniteIterateError) as err:
        drs_step(state, pair, 1.0)
    assert err.value.iteration == 5


def test_stopping_rule_validation():
    with pytest.raises(ValueError):
        StoppingRule(tol=-1.0)
    with pytest.raises(ValueError):
        StoppingRule(max_iter=-1)
    rule = StoppingRule(tol=None, max_iter=10)
    assert not rule.fired(0.0, 0.0, 1.0)


def test_drs_step_rejects_nonpositive_lambda():
    pair = quadratic_pair()
    state = DrsState(x=np.zeros(1), p=np.zeros(1), k=0)
    with pytest.raises(ValueError):
        drs_step(state, pair, 0.0)
    with pytest.raises(ValueError):
        drs_step(state, pair, -1.0, alpha_k=np.zeros(1))
