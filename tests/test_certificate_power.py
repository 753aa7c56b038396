"""Certificate power: which certificates fail when the final u is moved.

Each run's final u is moved by ``delta * ||u||`` along one unit direction
(drawn with ``default_rng(0)``, zero on g's pinned coordinates, so g stays
finite), and the CLI's certificates are recomputed on a copy of the trace
whose final record holds the moved u.  Only ``primal_optimal`` reads u;
the other three read (b, d, x, p) and the run's one-step checks.
"""

import dataclasses

import numpy as np
import pytest

from splitbreg.asb import asb_iterate, run_drs
from splitbreg.cli import _build_problem, _certificates_for_run, _stopping, parse_config
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
