"""Certificate power: which certificates fail on a wrong answer, and from what size.

Five rows, each over the same four runs:

- *u moved.*  Each run's final u is moved by ``delta * ||u||`` along one
  unit direction (drawn with ``default_rng(0)``, zero on g's pinned
  coordinates, so g stays finite), and the CLI's certificates are
  recomputed on a copy of the trace whose final record holds the moved
  u.  Only ``primal_optimal`` reads u; the other three read
  (b, d, x, p) and the run's one-step checks.
- *u-solve scaled.*  Every u-solve of the problem, the run's and the
  inclusion certificate's resolvent alike, returns its result scaled by
  ``1 + delta`` on g's free coordinates, and the run is made again.  The
  one-step check reuses the run's u-solve and ``inclusion`` evaluates
  the same one, so on the runs that converge only ``primal_optimal``
  sees it, from the floor pinned here.
- *(x, p) moved.*  The final x and p are moved by ``delta * ||x||`` and
  ``delta * ||p||`` along two unit directions (drawn in that order with
  ``default_rng(0)``), with b and d kept.  Only ``inclusion`` reads
  (x, p), and only it fails.
- *(b, d) mapped with the wrong penalty.*  The final b and d are mapped
  from (x, p) with ``lam (1 + delta)`` in place of ``lam``:
  ``b = p / (lam (1 + delta))``, ``d = x / (lam (1 + delta)) - b``.
  ``dual_optimal`` fails first and ``primal_optimal`` a decade later.
- *The oracle's minimizer moved.*  The oracle's answer is moved by
  ``delta * ||u*||`` along the "u moved" row's direction, on g's free
  coordinates.  Only ``primal_optimal`` reads the oracle.

The last three rows pin, per run, the decade from which each certificate
fails on the ladder ``delta = 0, 1e-12, 1e-11, ..., 1e-2``; at a tenth
of a row's floor nothing fails.  A later change may lower a floor, and
no floor may rise.

The control: approximate runs of the same four problems, under summable
schedules, pass the equivalence certificate their one-step checks give.
"""

import dataclasses
import functools

import numpy as np
import pytest

from splitbreg.asb import asb_iterate, asb_iterate_approx, run_drs
from splitbreg.cli import _build_problem, _certificates_for_run, _stopping, parse_config
from splitbreg.diagnostics import equivalence_certificate
from splitbreg.drs import StoppingRule
from splitbreg.functionals import ErrorSchedule
from splitbreg.kernels import _norm

RUNS = {
    "tv1d": {"problem": "tv1d", "solver": "asb",
             "params": {"grid_shape": [256], "mu": 0.15, "lambda": 1.0, "tol": 1e-9,
                        "max_iter": 20000, "seed": 100}},
    "lasso": {"problem": "lasso", "solver": "asb"},
    "lg_drs": {"problem": "least_gradient", "solver": "drs",
               "params": {"grid_shape": [32, 32], "conductivity": "two_phase",
                          "lambda": 0.01, "tol": 1e-9, "max_iter": 20000}},
    "tv2d": {"problem": "tv2d", "solver": "asb",
             "params": {"grid_shape": [12, 10], "lambda": 20.0, "tol": 1e-10}},
}
ITERATIONS = {"tv1d": 94, "lasso": 30, "lg_drs": 2216, "tv2d": 713}
UNSEEN = (0.0, 1e-12, 1e-10, 1e-8)  # every certificate passes
CAUGHT = (1e-6, 1e-4)  # primal_optimal fails, and only it
KINDS = ("dual_optimal", "primal_optimal", "inclusion", "equivalence")  # the CLI's order
LADDER = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


@functools.lru_cache(maxsize=len(RUNS))
def _solved(name):
    """The run's problem, oracle and trace, solved once for the whole module."""
    config = parse_config(RUNS[name])
    problem, _, oracle = _build_problem(config)
    solve = asb_iterate if config.solver == "asb" else run_drs
    return problem, oracle, solve(problem, stop=_stopping(config), record_stride=0)


def _failing(name, final=None, oracle=None) -> list:
    """The certificates the CLI fails on the run, its final record or oracle replaced."""
    problem, run_oracle, trace = _solved(name)
    if final is not None:
        trace = dataclasses.replace(trace, iterates=[*trace.iterates[:-1], final])
    certs = _certificates_for_run(problem, trace, oracle or run_oracle)
    assert [c.kind for c in certs] == list(KINDS)
    return [c.kind for c in certs if not c.passed]


def _unit(rng, size, pinned=False):
    w = rng.standard_normal(size)
    w[np.zeros(size, dtype=bool) | pinned] = 0.0
    return w / _norm(w)


def _free_direction(problem):
    """The unit direction of the "u moved" rows, zero on g's pinned coordinates."""
    return _unit(np.random.default_rng(0), problem.g.dim, problem.g.params.get("mask", False))


def _on_the_ladder(floors) -> dict:
    """Per delta, the certificates that fail from their floor decade on, in the CLI's order."""
    return {delta: [kind for kind in KINDS if delta >= floors.get(kind, np.inf)]
            for delta in LADDER}


@pytest.mark.parametrize("name", list(RUNS))
def test_a_moved_u_fails_the_primal_certificate_alone(name):
    problem, _, trace = _solved(name)
    assert trace.n_iter == ITERATIONS[name]

    u, w = trace.final.u, _free_direction(problem)
    failed = {delta: _failing(name, dataclasses.replace(trace.final,
                                                        u=u + (delta * _norm(u)) * w))
              for delta in UNSEEN + CAUGHT}
    assert failed == {**{delta: [] for delta in UNSEEN},
                      **{delta: ["primal_optimal"] for delta in CAUGHT}}


# the smallest decade of delta at which a scaled u-solve fails a certificate,
# and the certificates that fail there; a tenth of it fails none.  On lg_drs
# the run then reaches max_iter without converging, which inclusion sees
USOLVE_FLOOR = {"tv1d": (1e-3, ["primal_optimal"]), "lasso": (1e-3, ["primal_optimal"]),
                "lg_drs": (1e-2, ["primal_optimal", "inclusion"]),
                "tv2d": (1e-3, ["primal_optimal"])}


@pytest.mark.parametrize("name", list(RUNS))
def test_a_scaled_u_solve_is_caught_from_its_floor(monkeypatch, name):
    floor, caught = USOLVE_FLOOR[name]
    failed = {}
    for delta in (floor / 10, floor):
        config = parse_config(RUNS[name])
        problem, _, oracle = _build_problem(config)
        usolver = problem._usolver
        exact, free = usolver.solve_c, ~usolver.pinned

        def scaled(c, exact=exact, free=free, factor=1.0 + delta):
            u = exact(c)
            u[free] *= factor
            return u

        monkeypatch.setattr(usolver, "solve_c", scaled)
        solve = asb_iterate if config.solver == "asb" else run_drs
        trace = solve(problem, stop=_stopping(config), record_stride=0)
        certs = _certificates_for_run(problem, trace, oracle)
        failed[delta] = [c.kind for c in certs if not c.passed]
    assert failed == {floor / 10: [], floor: caught}


@pytest.mark.parametrize("schedule", [ErrorSchedule("geometric", ratio=0.5),
                                      ErrorSchedule("geometric", ratio=0.9, scale=1e-3),
                                      ErrorSchedule("harmonic", scale=1e-3)],
                         ids=["geometric_0.5", "geometric_0.9", "harmonic"])
@pytest.mark.parametrize("name", list(RUNS))
def test_an_approximate_run_certifies_the_correspondence(name, schedule):
    # the whole 200-iteration window, whatever the config's tolerance; a
    # harmonic schedule is not summable, but the correspondence holds at every step
    problem, _, _ = _build_problem(parse_config(RUNS[name]))
    trace = asb_iterate_approx(problem, schedule, stop=StoppingRule(tol=None, max_iter=200),
                               record_stride=0)
    cert = equivalence_certificate(trace)
    assert "over 201 iterates" in cert.details and cert.passed


# The decade of delta from which each certificate fails on each run; a
# certificate not named passes on the whole ladder.
XP_FLOOR = {"tv1d": {"inclusion": 1e-7}, "lasso": {"inclusion": 1e-7},
            "lg_drs": {"inclusion": 1e-7}, "tv2d": {"inclusion": 1e-8}}
PENALTY_FLOOR = dict.fromkeys(RUNS, {"dual_optimal": 1e-7, "primal_optimal": 1e-6})
ORACLE_FLOOR = {"tv1d": {"primal_optimal": 1e-6}, "lasso": {"primal_optimal": 1e-4},
                "lg_drs": {"primal_optimal": 1e-4}, "tv2d": {"primal_optimal": 1e-6}}


@pytest.mark.parametrize("name", list(RUNS))
def test_a_moved_x_p_fails_the_inclusion_certificate_alone(name):
    final = _solved(name)[2].final
    rng = np.random.default_rng(0)
    wx, wp = _unit(rng, final.x.size), _unit(rng, final.p.size)
    failed = {delta: _failing(name, dataclasses.replace(
                  final, x=final.x + (delta * _norm(final.x)) * wx,
                  p=final.p + (delta * _norm(final.p)) * wp))
              for delta in LADDER}
    assert failed == _on_the_ladder(XP_FLOOR[name])


@pytest.mark.parametrize("name", list(RUNS))
def test_b_d_mapped_with_the_wrong_penalty_fail_dual_then_primal(name):
    problem, _, trace = _solved(name)
    final = trace.final
    failed = {}
    for delta in LADDER:
        lam = problem.lam * (1.0 + delta)
        b = final.p / lam
        failed[delta] = _failing(name, dataclasses.replace(final, b=b, d=final.x / lam - b))
    assert failed == _on_the_ladder(PENALTY_FLOOR[name])


@pytest.mark.parametrize("name", list(RUNS))
def test_a_moved_oracle_minimizer_fails_the_primal_certificate_alone(name):
    problem, oracle, trace = _solved(name)
    u_star, note = oracle(problem, trace.final)
    w = _free_direction(problem)
    failed = {delta: _failing(name, oracle=lambda prob, final, delta=delta: (
                  u_star + (delta * _norm(u_star)) * w, note))
              for delta in LADDER}
    assert failed == _on_the_ladder(ORACLE_FLOOR[name])
