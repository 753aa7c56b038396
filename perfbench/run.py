"""Time-to-certified-answer benchmark for splitbreg.

    python3 perfbench/run.py --workload tv1d_batch --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload runs in its own worker process, which drives
``splitbreg.cli.run`` as a closed loop with one client and checks every
run's artifacts.  With ``--trace 0`` the end-to-end metrics are printed:

  run_s        median wall time of one cli.run, config to verdict
  run_tail_s   percentile 100 (1 - 10/n) of run_s, n = instances per pass,
               so one pass alone has ten samples beyond it; the median
               when a pass has fewer than 11 instances
  iterations   main-solver iterations summed over one pass
  setup_s      median wall time of fresh processes that import splitbreg,
               build the workload's problems and construct one u-step
               solver per problem
  peak_rss_mb  peak RSS of the worker process
  failed_frac  runs that raised or exited non-zero over runs attempted;
               it is the ``failed``/``attempted`` pair of the result line

With ``--trace 1`` the per-layer metrics of a traced run are printed
instead, and the spans are written to ``.perfbench_out/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
same figures for a reader, with the environment stamp, per-certificate
pass counts and ``trace.csv`` digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170.0


def _units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists the end-to-end or per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class BenchError(RuntimeError):
    pass


def _git_sha() -> str:
    """HEAD read from ``.git`` directly; a source export without ``.git`` has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    """sha256 over the package sources, to identify the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "splitbreg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _worker_cmd(role: str, workload: str, seed: int, *extra: str) -> list:
    return [sys.executable, str(ROOT / "perfbench" / "worker.py"), role,
            "--workload", workload, "--seed", str(seed), *extra]


def _wait(proc: subprocess.Popen, deadline: float):
    """Wait for the child and return its own rusage; kill it past the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"worker {proc.args[2]} timed out")
        time.sleep(0.01)


def _spawn(cmd: list, env: dict, timeout_s: float):
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    usage = _wait(proc, time.monotonic() + timeout_s)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(cmd[2:])} exited with {proc.returncode}")
    return usage


def _setup_seconds(name: str, seed: int, env: dict) -> list:
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _spawn(_worker_cmd("setup", name, seed), env, 60.0)
        samples.append(time.perf_counter() - t0)
    return samples


def _tail(samples: list, per_pass: int) -> tuple:
    """Percentile 100 (1 - 10/n) of the samples, n = instances per pass.

    With fewer than 11 instances no percentile has ten samples of one
    pass beyond it, and the workload repeats one config, so the median
    stands in for the tail.
    """
    if per_pass < 11:
        return statistics.median(samples), "median (under 11 instances per pass)"
    cut = statistics.quantiles(samples, n=per_pass, method="inclusive")[per_pass - 11]
    return cut, f"p{100.0 * (1.0 - 10.0 / per_pass):.1f}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PERFBENCH_WORK=str(work),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    stem = f"{name}_seed{seed}_trace{int(trace)}"
    try:
        setup = [] if trace else _setup_seconds(name, seed, env)
        result_path = work / "result.json"
        usage = _spawn(_worker_cmd("loop", name, seed, "--seconds", str(seconds),
                                   "--trace", str(int(trace)), "--result", str(result_path),
                                   "--spans", str(out_dir / f"spans_{stem}.json")),
                       env, WORKER_TIMEOUT_S)
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = result["records"]
    per_pass = result["env"]["instances_per_pass"]
    plain = [r for r in records if not r["traced"]]
    result["env"].update(git_sha=_git_sha(), src_sha256=_source_digest(), workload=name,
                         seed=seed, seconds=seconds, trace=int(trace))
    result["attempted"] = len(records)
    result["failed"] = sum(r["failed"] for r in records)
    # byte stability per code path: repeats of one config within the run
    digests = {}
    for r in records:
        if "trace_sha256" in r:
            digests.setdefault(r["index"], set()).add(r["trace_sha256"])
    result["trace_digests_stable"] = all(len(d) == 1 for d in digests.values())
    result["correct"] = (all(r["consistent"] for r in records)
                         and result["trace_digests_stable"])
    if trace:
        result["metrics"] = {k: result["layer"][k] for k in _units(trace=True)}
    else:
        walls = [r["wall_s"] for r in plain]
        tail, tail_kind = _tail(walls, per_pass)
        result["tail_kind"] = tail_kind
        result["setup_samples_s"] = setup
        result["metrics"] = {
            "run_s": statistics.median(walls),
            "run_tail_s": tail,
            "iterations": sum(r.get("iterations", 0) for r in plain[:per_pass]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
    (out_dir / f"result_{stem}.json").write_text(json.dumps(result, indent=1))
    return result


def _report(name: str, result: dict, trace: bool) -> None:
    env = result["env"]
    print(f"# workload={name} seed={env['seed']} trace={env['trace']} "
          f"instances_per_pass={env['instances_per_pass']} passes={result['passes']} "
          f"runs={result['attempted']} window={result['window_s']:.1f}s")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()
                               if k not in ("workload", "seed", "trace")))
    units = _units(trace)
    for key, value in result["metrics"].items():
        note = ""
        if key == "run_s":
            note = f"median of {result['attempted']} runs"
        elif key == "run_tail_s":
            note = f"{result['tail_kind']} of {result['attempted']} runs"
        elif key == "setup_s":
            note = f"median of {len(result['setup_samples_s'])} fresh processes"
        print(f"  {key:34s} {value:14.6g} {units[key]:6s} {note}")
    print(f"  {'failed_frac':34s} {result['failed'] / result['attempted']:14.6g} "
          f"{'ratio':6s} {result['failed']}/{result['attempted']} runs raised or exited non-zero")
    for kind in ("dual_optimal", "primal_optimal", "inclusion", "equivalence"):
        checked = [r["certificates"][kind]["passed"] for r in result["records"]
                   if "certificates" in r]
        print(f"# certificate {kind}: {sum(checked)}/{len(checked)} passed")
    raised = [r["raised"] for r in result["records"] if r["raised"]]
    if raised:
        print(f"# raised: {raised[0]} ({len(raised)} runs)")
    n_digests = len({r["trace_sha256"] for r in result["records"] if "trace_sha256" in r})
    print(f"# trace.csv: {n_digests} distinct sha256 digests, repeats byte-identical: "
          f"{result['trace_digests_stable']}; output checks passed: {result['correct']}")
    if trace:
        top = sorted(result["self_time_s"].items(), key=lambda kv: -kv[1])
        print("# self time: " + ", ".join(f"{k} {v:.3f}s" for k, v in top))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "splitbreg" / "__init__.py").is_file():
        print(f"perfbench: no splitbreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _report(name, results[name], bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    units = _units(bool(args.trace))
    prefix = len(names) > 1
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(f"{n}.{k}" if prefix else k): {"value": v, "unit": units[k]}
                    for n, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
