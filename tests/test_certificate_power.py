"""Certificate power: which certificates fail on a wrong answer, and from what size.

Two rows, each over the same four runs:

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
  sees it, from the floor pinned here.  A later change may lower a
  floor, and no floor may rise.

The control: approximate runs of the same four problems, under summable
schedules, pass the equivalence certificate their one-step checks give.
"""

import dataclasses

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


@pytest.mark.parametrize("name", list(RUNS))
def test_a_moved_u_fails_the_primal_certificate_alone(name):
    config = parse_config(RUNS[name])
    problem, _, oracle = _build_problem(config)
    solve = asb_iterate if config.solver == "asb" else run_drs
    trace = solve(problem, stop=_stopping(config), record_stride=0)
    assert trace.n_iter == ITERATIONS[name]

    u = trace.final.u
    w = np.random.default_rng(0).standard_normal(u.size)
    w[np.zeros(u.size, dtype=bool) | problem.g.params.get("mask", False)] = 0.0
    w /= _norm(w)
    failed = {}
    for delta in UNSEEN + CAUGHT:
        final = dataclasses.replace(trace.final, u=u + (delta * _norm(u)) * w)
        moved = dataclasses.replace(trace, iterates=[*trace.iterates[:-1], final])
        certs = _certificates_for_run(problem, moved, oracle)
        assert len(certs) == 4
        failed[delta] = [c.kind for c in certs if not c.passed]
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
    assert trace.setzer_iterates == 201 and equivalence_certificate(trace).passed
