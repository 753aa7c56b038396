import math

import numpy as np
import pytest

import splitbreg as sb
from splitbreg.drs import (DrsState, NonFiniteIterateError, ResolventPair, StoppingRule,
                           drs_iterate, drs_step, fejer_check)
from splitbreg.diagnostics import inclusion_defect
from splitbreg.functionals import ErrorSchedule, prox_l1, prox_quadratic
from splitbreg.oracles import soft_threshold_optimum


def quadratic_pair():
    """A = d(0.5 x^2), B = d(0.5 (x-2)^2); the inclusion solution is p = 1."""
    ga = prox_quadratic(np.zeros(1), 1.0)
    gb = prox_quadratic(np.array([2.0]), 1.0)
    return ResolventPair(JA=lambda y, lam: ga.prox(y, lam),
                         JB=lambda y, lam: gb.prox(y, lam))


def test_quadratic_pair_fixed_point():
    run = drs_iterate(quadratic_pair(), x0=np.zeros(1), p0=np.zeros(1), lam=1.0,
                      stop=StoppingRule(tol=1e-13, max_iter=5000))
    assert run.converged
    assert abs(run.final.p[0] - 1.0) < 1e-10


def test_identity_resolvents_freeze_x():
    pair = ResolventPair(JA=lambda y, lam: y.copy(), JB=lambda y, lam: y.copy())
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
                         JB=lambda v, lam: l1.prox(v, lam))
    run = drs_iterate(pair, x0=rng.standard_normal(2), lam=1.0,
                      stop=StoppingRule(tol=None, max_iter=500))
    assert np.linalg.norm(run.final.p - soft_threshold_optimum(y, mu)) <= 1e-8


def _reference_fixed_point(prob):
    # the exact reference recursion over the problem's dual resolvents
    zero = np.zeros(prob.f.dim)
    return drs_iterate(sb.dual_resolvents(prob), zero, zero, lam=prob.lam,
                       stop=StoppingRule(tol=None, max_iter=1000)).final


# The inexact DRS is the approximate sweep seen through Setzer's
# correspondence: its (x, p) view is checked against the exact recursion.

def test_inexact_zero_perturbation_is_bit_identical(lasso_problem):
    stop = StoppingRule(tol=None, max_iter=300)
    exact = sb.asb_iterate(lasso_problem, stop=stop)
    zero = np.zeros(lasso_problem.f.dim)
    ref = drs_iterate(sb.dual_resolvents(lasso_problem), zero, zero, lam=lasso_problem.lam,
                      stop=stop)
    for seed in (1, 99):  # a zero schedule draws nothing
        inexact = sb.asb_iterate_approx(lasso_problem, ErrorSchedule("geometric", scale=0.0),
                                        stop=stop, seed=seed)
        for rec, twin, state in zip(inexact.iterates, exact.iterates, ref.states):
            assert np.array_equal(rec.x, twin.x) and np.array_equal(rec.p, twin.p)
            assert np.linalg.norm(rec.x - state.x) <= 1e-12
            assert np.linalg.norm(rec.p - state.p) <= 1e-12


def test_inexact_summable_perturbations_converge(lasso_problem):
    pair = sb.dual_resolvents(lasso_problem)
    hat = _reference_fixed_point(lasso_problem)
    for seed in (0, 3, 7):
        run = sb.asb_iterate_approx(lasso_problem, ErrorSchedule("geometric", ratio=0.5), seed=seed,
                                    stop=StoppingRule(tol=None, max_iter=200))
        assert run.alpha_injected[0] == pytest.approx(0.5, rel=1e-9)
        assert np.linalg.norm(run.final.x - hat.x) <= 1e-10
        assert np.linalg.norm(run.final.p - hat.p) <= 1e-10
        assert inclusion_defect(pair, run.final.x, run.final.p, lasso_problem.lam) <= 1e-10


def test_inexact_harmonic_perturbation_negative_control(lasso_problem):
    # 1/k errors are not summable: the dual iterate keeps its distance from
    # the fixed point, and stays finite
    hat = _reference_fixed_point(lasso_problem)
    for seed in (0, 3, 7):
        run = sb.asb_iterate_approx(lasso_problem, ErrorSchedule("harmonic"), seed=seed,
                                    stop=StoppingRule(tol=None, max_iter=500))
        dists = [np.linalg.norm(rec.x - hat.x) for rec in run.iterates[100:]]
        assert np.all(np.isfinite(dists))
        assert 1e-4 < min(dists) and max(dists) < 1.0


def test_increment_decay_on_small_problems():
    quad = prox_quadratic(np.array([2.5, -0.4]), 1.0)
    l1 = prox_l1(1.0, dim=2)
    lasso_pair = ResolventPair(JA=lambda v, lam: quad.prox(v, lam),
                               JB=lambda v, lam: l1.prox(v, lam))
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


def test_fejer_check_counts_violations_exactly():
    # x_hat = 0; the step 1 -> 2 moves away from it (gap 4 + 1 - 1 = 4), the
    # step 2 -> 0 lands on it (gap 0 + 4 - 4 = 0), and 0 -> 0.5 moves away
    # again (gap 0.25 + 0.25 - 0 = 0.5)
    states = [DrsState(x=np.array([v]), p=np.zeros(1), k=k)
              for k, v in enumerate([1.0, 2.0, 0.0, 0.5])]
    report = fejer_check(states, np.zeros(1))
    assert report.violations == 2
    assert report.max_violation == 4.0


def test_inclusion_defect_at_convergence():
    pair = quadratic_pair()
    run = drs_iterate(pair, x0=np.array([3.0]), lam=1.0,
                      stop=StoppingRule(tol=1e-13, max_iter=20_000))
    assert inclusion_defect(pair, run.final.x, run.final.p, 1.0) <= 1e-7
    # a perturbed pair must fail loudly
    assert inclusion_defect(pair, run.final.x + 0.3, run.final.p, 1.0) > 1e-3


def test_non_finite_iterate_error_carries_index():
    pair = ResolventPair(JA=lambda y, lam: y * np.inf, JB=lambda y, lam: y)
    state = DrsState(x=np.ones(1), p=np.ones(1), k=4)
    with pytest.raises(NonFiniteIterateError) as err:
        drs_step(state, pair, 1.0)
    assert err.value.iteration == 5


def test_stopping_rule_validation():
    with pytest.raises(ValueError):
        StoppingRule(tol=-1.0)
    with pytest.raises(ValueError):
        StoppingRule(max_iter=-1)
    # a nan tol never fires and an infinite one fires at the first finite step
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            StoppingRule(tol=tol)
    rule = StoppingRule(tol=None, max_iter=10)
    assert not rule.fired(0.0, 0.0, 1.0)
    assert StoppingRule(tol=0.0).fired(0.0, 0.0, 1.0)


def test_stopping_rule_ignores_overflowed_increments():
    rule = StoppingRule(tol=1e-9)
    assert not rule.fired(math.inf, math.inf, math.inf)
    assert not rule.fired(0.0, math.inf, math.inf)
    assert not rule.fired(math.nan, 0.0, 1.0)


def test_drs_step_rejects_nonpositive_lambda():
    pair = quadratic_pair()
    state = DrsState(x=np.zeros(1), p=np.zeros(1), k=0)
    with pytest.raises(ValueError):
        drs_step(state, pair, 0.0)
    with pytest.raises(ValueError):
        drs_step(state, pair, -1.0)
