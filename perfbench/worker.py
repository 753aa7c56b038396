"""Benchmark worker process: one workload in a fresh interpreter.

``setup``: import splitbreg, build every problem of the workload with the
public builders and construct one u-step solver per problem through
``asb.dual_resolvents``.  The parent times the whole process.

``loop``: drive ``splitbreg.cli.run`` as a closed loop with one client:
the next config starts only after the previous run has written its
artifacts, which are read back and checked before moving on.  Whole
passes over the workload's configs repeat while the next pass is
expected to end inside the time window; at least one pass always runs.
With tracing on, each config runs untraced and traced back to back (in
alternating order), and the per-layer probes run after the loop.

Results go to the JSON file named by ``--result``; spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import workloads

EXPECTED_CERTIFICATES = ("dual_optimal", "primal_optimal", "inclusion", "equivalence")


def _setup(workload, seed: int) -> None:
    from splitbreg import dual_resolvents

    for config in workload.make_configs(seed):
        dual_resolvents(workloads.build_problem(config))


def _check_outputs(out: Path, code: int) -> dict:
    """Read back one run's artifacts; ``consistent`` is the output check.

    The exit code must be 0 exactly when every certificate in
    certificates.json passed; summary.txt must agree with that file; and
    trace.csv must hold one row per iteration the summary reports.
    """
    certs = json.loads((out / "certificates.json").read_text())
    summary = (out / "summary.txt").read_text()
    fields = dict(tok.split("=", 1) for tok in summary.split() if "=" in tok)
    trace_bytes = (out / "trace.csv").read_bytes()
    rows = trace_bytes.count(b"\n") - 1
    iterations = int(fields["iterations"])
    passed = sum(c["passed"] for c in certs)
    consistent = (
        code == (0 if passed == len(certs) else 1)
        and fields["certificates"] == f"{passed}/{len(certs)}"
        and tuple(c["kind"] for c in certs) == EXPECTED_CERTIFICATES
        and trace_bytes.startswith(b"k,residual,energy,setzer_defect,x_increment\n")
        and rows == iterations
    )
    return {
        "iterations": iterations,
        "certificates": {c["kind"]: {"passed": c["passed"], "defect": c["defect"],
                                     "tolerance": c["tolerance"]} for c in certs},
        "trace_sha256": hashlib.sha256(trace_bytes).hexdigest(),
        "trace_bytes": len(trace_bytes),
        "consistent": consistent,
    }


def _run_one(cli, config: dict, out: Path, index: int, around=None) -> dict:
    """One cli.run from config to verdict, timed, then its outputs checked.

    ``around`` is an optional context manager entered just around the call.
    """
    shutil.rmtree(out, ignore_errors=True)
    record = {"index": index, "seed": config["params"].get("seed"), "code": None,
              "raised": None, "consistent": True}
    t0 = time.perf_counter()
    try:
        with redirect_stdout(None), around or nullcontext():
            record["code"] = cli.run(cli.parse_config(config), out)
    except Exception as exc:  # a raising run is a failed run, not a crash of the bench
        record["raised"] = f"{type(exc).__name__}: {exc}"
    record["wall_s"] = time.perf_counter() - t0
    if record["raised"] is None:
        try:
            record.update(_check_outputs(out, record["code"]))
        except (OSError, ValueError, KeyError) as exc:
            record["consistent"] = False
            record["check_error"] = f"{type(exc).__name__}: {exc}"
    record["failed"] = record["raised"] is not None or record["code"] != 0
    return record


def _env_stamp(n_instances: int) -> dict:
    import numpy
    import scipy

    from splitbreg import kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_enabled": bool(kernels.NUMBA_ENABLED),
        "instances_per_pass": n_instances,
    }


def _layer_metrics(tracer, records: list) -> dict:
    """Per-layer figures: the median over traced runs of each span quantity."""
    from tracing import SOLVER_BUILD_SPANS

    per_instance = {}
    for rec in tracer.spans:
        per_instance.setdefault(rec["instance"], []).append(rec)
    rows = []
    for spans in per_instance.values():
        def total(prefix, spans=spans):
            return sum(r["end"] - r["start"] for r in spans if r["name"].startswith(prefix))

        main = next(r for r in spans if r["name"] == "cli.main_solve")
        factor = [r for r in spans if r["name"] == "asb.dual_resolvents"]
        iters = main["attrs"]["iterations"]
        main_calls = main["counts"]
        build_calls = factor[0]["counts"] if factor else {}
        applies = sum(main_calls.get(k, 0) - build_calls.get(k, 0)
                      for k in ("linops.apply", "linops.adjoint"))
        dual = [r["attrs"]["dual_iters"] for r in spans if r["name"] == "oracles.tv_dual_solve"]
        rows.append({
            "cli.main_solve_s": main["end"] - main["start"],
            "cli.equiv_s": total("cli.equiv."),
            "cli.emit_s": total("cli.emit."),
            "applications.build_s": total("applications."),
            "asb.factor_s": factor[0]["end"] - factor[0]["start"] if factor else 0.0,
            "asb.solver_builds": sum(r["name"] in SOLVER_BUILD_SPANS for r in spans),
            "asb.iter_us": 1e6 * (main["end"] - main["start"]) / max(iters, 1),
            "linops.applies_per_iter": applies / max(iters, 1),
            "functionals.prox_calls_per_iter": main_calls.get("functionals.prox", 0) / max(iters, 1),
            "functionals.value_calls_per_iter": main_calls.get("functionals.value", 0) / max(iters, 1),
            "oracles.oracle_s": total("oracles."),
            "oracles.dual_iters": sum(dual),
            "diagnostics.cert_s": total("diagnostics."),
            "diagnostics.snapshot_bytes": main["attrs"]["snapshot_bytes"],
        })
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    traced = [r for r in records if r["traced"] and "trace_bytes" in r]
    metrics["cli.trace_bytes"] = statistics.median(r["trace_bytes"] for r in traced)
    return metrics


def _loop(workload, seed: int, seconds: float, trace: bool, spans_path) -> dict:
    from splitbreg import cli

    configs = workload.make_configs(seed)
    out = Path(os.environ["PERFBENCH_WORK"]) / "run"
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    records = []
    t_start = time.perf_counter()
    passes = 0
    while True:
        for i, config in enumerate(configs):
            if tracer is None:
                records.append(dict(_run_one(cli, config, out, i), traced=False))
                continue
            for traced in ((False, True) if (passes + i) % 2 == 0 else (True, False)):
                around = tracer.traced_run(cli, f"{i}/pass{passes}") if traced else None
                records.append(dict(_run_one(cli, config, out, i, around), traced=traced))
        passes += 1
        elapsed = time.perf_counter() - t_start
        # stop unless another pass of average length still fits the window
        if elapsed + elapsed / passes > seconds:
            break
    window_s = time.perf_counter() - t_start
    shutil.rmtree(out, ignore_errors=True)

    result = {"passes": passes, "window_s": window_s, "records": records,
              "env": _env_stamp(len(configs))}
    if tracer is not None:
        import probes

        problem = workloads.build_problem(configs[0])
        layer = _layer_metrics(tracer, records)
        layer["asb.ustep_us"] = probes.ustep_us(problem)
        # about 0.2 s of iterations per probe run, within [20, 200]
        n_probe = max(20, min(200, int(0.2 / (1e-6 * layer["asb.iter_us"]))))
        layer.update(probes.instrumentation(problem, n_probe))
        layer.update(probes.layer_calls(problem, seed))
        layer.update(probes.kernel_calls(problem, seed))
        plain = sum(r["wall_s"] for r in records if not r["traced"])
        traced_s = sum(r["wall_s"] for r in records if r["traced"])
        layer["trace.overhead_frac"] = (traced_s - plain) / plain
        result["layer"] = layer
        result["self_time_s"] = tracer.self_times()
        tracer.dump(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("setup", "loop"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.role == "setup":
        _setup(workload, args.seed)
        return 0
    result = _loop(workload, args.seed, args.seconds, bool(args.trace), args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
