"""Benchmark workloads: lists of ``splitbreg`` run configs made from a seed.

The program only ever sees the generated config documents; the seed is
the benchmark's own argument.  Each workload records why it was chosen
and the layer shares measured when it was defined (2 CPUs, OpenBLAS
0.3.31 at its default thread count, numpy kernel path, single runs,
``perf_counter``), so later changes can cite it by name and say which
share they expect to move.

Only ``tv1d_batch`` and ``lg_drs`` are listed in ``BENCHMARK.json``:
``tv2d_cg``'s iteration count, and with it its run time and peak RSS,
moves by about 25% (interquartile range over median) from noise seed to
noise seed, because most seeds stop at max_iter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_configs: Callable[[int], List[dict]]


def _tv1d_batch(seed: int) -> List[dict]:
    return [
        {"problem": "tv1d", "solver": "asb",
         "params": {"grid_shape": [256], "mu": 0.15, "lambda": 1.0, "tol": 1e-9,
                    "max_iter": 20000, "seed": seed + i}}
        for i in range(60)
    ]


def _tv2d_cg(seed: int) -> List[dict]:
    return [
        {"problem": "tv2d", "solver": "asb",
         "params": {"grid_shape": [48, 48], "mu": 0.15, "lambda": 20.0, "tol": 1e-10,
                    "max_iter": 4000, "seed": seed}}
    ]


def _lg_drs(seed: int) -> List[dict]:
    # make_least_gradient_instance takes no seed: the instance is the same
    # for every benchmark seed.
    del seed
    return [
        {"problem": "least_gradient", "solver": "drs",
         "params": {"grid_shape": [32, 32], "conductivity": "two_phase", "lambda": 0.01,
                    "tol": 1e-9, "max_iter": 20000}}
    ]


WORKLOADS = {
    # 60 denoising runs, n=256, about 100 iterations each.  Time goes to
    # per-run fixed costs and per-iteration instrumentation, not to linear
    # algebra.  Measured: 7.6-8.4 s per pass, 60/60 certified, peak RSS
    # 68 MB.  The <=200-iteration equivalence rerun (asb_iterate + run_drs)
    # is about 2/3 of solver time; each cli.run builds 4 u-step solvers
    # at 6.6 ms each (dense L^T L assembly plus Cholesky); instrumented
    # asb_iterate costs 392 us/it against 156 us/it for bare drs_iterate.
    # First traced run of this benchmark (seed 3, per-run medians): main
    # solve 37 ms, equivalence rerun 70 ms, one u-step solver build 5.3 ms.
    "tv1d_batch": Workload(
        name="tv1d_batch",
        why="60 small tv1d runs of ~100 iterations: per-run fixed costs, "
            "the equivalence rerun and per-iteration instrumentation dominate",
        make_configs=_tv1d_batch,
    ),
    # One 48x48 image: 2304 unknowns is above DENSE_SOLVE_LIMIT, so the
    # u-step runs warm-started CG through the linops stencils.  Measured
    # at seed 0: 3265 iterations, 4/4 certified, 16-22 s per run;
    # asb_iterate 13-15 s (with the 200-iteration rerun), tv_dual_solve
    # 3.6-4.5 s, run_drs 2.0-2.8 s; peak RSS 640 MB from per-iteration
    # snapshots.  Known defect kept visible: most seeds hit max_iter and
    # fail the inclusion certificate (about 1e-6 against 1e-7).  First
    # traced run of this benchmark (seed 0): main solve 13.4 s, equivalence
    # rerun 5.6 s, tv_dual_solve 4.1 s (12650 iterations), 53 L/L^T
    # applies per iteration.
    "tv2d_cg": Workload(
        name="tv2d_cg",
        why="one 48x48 tv2d image on the CG u-step path: CG matvecs, the "
            "tv_dual_solve oracle and per-iteration snapshots dominate",
        make_configs=_tv2d_cg,
    ),
    # Two-phase least-gradient reconstruction, 32x32 (900 free nodes,
    # dense Cholesky path), solved by run_drs: the indicator-restricted
    # u-step goes through solve_c with an anchor term and the Moreau
    # dual_resolvent runs every iteration.  Measured: 2216 iterations,
    # 4/4 certified, 6.0-6.3 s per run, peak RSS 260 MB; forward_model
    # 0.12 s, each factorization 0.17 s (4 per run); instrumented against
    # bare iteration cost 2.0x.  First traced run of this benchmark:
    # main solve 5.8 s, equivalence rerun 1.6 s, one factorization 0.16 s.
    "lg_drs": Workload(
        name="lg_drs",
        why="two-phase least-gradient 32x32 by DRS: dense factorizations, "
            "the anchored u-step resolvent and Moreau prox every iteration",
        make_configs=_lg_drs,
    ),
}


def build_problem(config: dict):
    """The config's SplitProblem, built with the package's public builders."""
    from splitbreg import (build_least_gradient_problem, build_tv_problem,
                           make_least_gradient_instance, make_tv_instance)

    p = config["params"]
    shape = tuple(p["grid_shape"])
    if config["problem"] in ("tv1d", "tv2d"):
        inst = make_tv_instance(shape=shape, mu=p["mu"], seed=p["seed"])
        return build_tv_problem(inst, lam=p["lambda"])
    if config["problem"] == "least_gradient":
        inst = make_least_gradient_instance(shape=shape, kind=p["conductivity"])
        return build_least_gradient_problem(inst, lam=p["lambda"])
    raise ValueError(f"no builder for problem {config['problem']!r}")
