"""Batch experiment harness.

Loads a problem from a JSON config, runs the requested solver, and
always writes ``trace.csv`` (17-significant-digit columns, byte-stable
for a fixed config and seed), ``certificates.json`` and ``summary.txt``.
Exit status is 0 when every emitted certificate passes, 1 when one
fails, 2 for a malformed config and 3 when the solver fails.

The equivalence certificate of an exact run comes from the lockstep
twin the solver carries (see :func:`splitbreg.asb.asb_iterate`), so no
solver runs twice.  For both traces of one instance, run it once with
``--solver asb`` and once with ``--solver drs`` under ``"tol": null``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .applications import (build_least_gradient_problem, build_tv_problem,
                           make_least_gradient_instance, make_tv_instance)
from .asb import (_U_STEP_LABELS, SplitProblem, asb_iterate, asb_iterate_approx,
                  dual_resolvents, run_drs)
# equivalence_report is not called here; perfbench/tracing.py wraps this name
from .diagnostics import (Certificate, RunTrace, certificates_to_json, dual_certificate,
                          dual_value, duality_gap, equivalence_report, lockstep_certificate,
                          primal_recovery_check)
from .drs import StoppingRule, inclusion_defect
from .functionals import (FUNCTIONAL_LABELS, ErrorSchedule, functional_from_label,
                          geometric_schedule, harmonic_schedule, prox_l1, prox_quadratic,
                          zero_schedule)
from .linops import identity_operator, load_matrix_csv, matrix_operator
from .oracles import (interior_stationarity_defect, soft_threshold_optimum,
                      taut_string_denoise, taut_string_dirichlet, tv_dual_solve)

__all__ = ["ConfigError", "RunConfig", "SummaryRow", "parse_config", "run", "main"]

PROBLEMS = ("lasso", "tv1d", "tv2d", "least_gradient", "custom_matrix")
SOLVERS = ("asb", "drs", "asb_approx")

_COMMON_KEYS = {"lambda", "tol", "max_iter", "seed", "schedule", "allow_nonsummable"}
_PROBLEM_KEYS = {
    "lasso": {"n", "y", "mu"},
    "tv1d": {"grid_shape", "spacing", "noise_sigma", "boundary", "mu"},
    "tv2d": {"grid_shape", "spacing", "noise_sigma", "boundary", "mu"},
    "least_gradient": {"grid_shape", "spacing", "conductivity", "inclusion", "axis"},
    "custom_matrix": {"matrix_csv", "g", "f"},
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    problem: str
    solver: str
    params: dict
    schedule: Optional[ErrorSchedule] = None  # asb_approx defaults to geometric(0.5)


@dataclass(frozen=True)
class SummaryRow:
    instance_id: str
    iterations: int
    final_residual: float
    final_energy: float
    duality_gap: float
    certificates_passed: int
    certificates_total: int
    wall_time: float

    def line(self) -> str:
        return (
            f"instance={self.instance_id} iterations={self.iterations} "
            f"final_residual={self.final_residual:.6e} final_energy={self.final_energy:.12e} "
            f"duality_gap={self.duality_gap:.6e} "
            f"certificates={self.certificates_passed}/{self.certificates_total} "
            f"wall_time={self.wall_time:.3f}s"
        )


def parse_config(payload: dict) -> RunConfig:
    """Validate the config document; unknown keys are rejected.

    Every key's type and range is checked here; only the custom_matrix
    CSV is checked later, when :func:`run` loads it (still exit 2).
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"config must be a JSON object, got {type(payload).__name__}")
    allowed_top = {"problem", "solver", "params"}
    for key in payload:
        if key not in allowed_top:
            raise ConfigError(f"unknown config key {key!r}")
    problem = payload.get("problem")
    if problem not in PROBLEMS:
        raise ConfigError(f"key 'problem' must be one of {PROBLEMS}, got {problem!r}")
    solver = payload.get("solver", "asb")
    if solver not in SOLVERS:
        raise ConfigError(f"key 'solver' must be one of {SOLVERS}, got {solver!r}")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("key 'params' must be an object")
    params = dict(params)
    allowed = _COMMON_KEYS | _PROBLEM_KEYS[problem]
    for key in params:
        if key not in allowed:
            raise ConfigError(f"unknown params key {key!r} for problem {problem!r}")
    schedule = _check_params(problem, params)
    if solver == "asb_approx" and schedule is None:
        schedule = geometric_schedule(0.5)
    return RunConfig(problem=problem, solver=solver, params=params, schedule=schedule)


def _number(key: str, v, low: float, *, strict: bool = False, integer: bool = False) -> None:
    """A finite number ``>= low`` (``> low`` if strict), integral if asked."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"key {key!r} must be a finite number, got {v!r}")
    if integer and v != int(v):
        raise ConfigError(f"key {key!r} must be an integer, got {v!r}")
    if v < low or (strict and v == low):
        raise ConfigError(f"key {key!r} must be {'>' if strict else '>='} {low:g}, got {v!r}")


def _optional(p: dict, key: str, low: float, *, nullable: bool = False, prefix: str = "",
              **kind) -> None:
    if key in p and not (nullable and p[key] is None):
        _number(prefix + key, p[key], low, **kind)


def _numbers(key: str, v, low: float = -math.inf) -> None:
    """A non-empty list of finite numbers, each ``>= low``."""
    if not isinstance(v, list) or not v:
        raise ConfigError(f"key {key!r} must be a non-empty list of numbers")
    for x in v:
        _number(key, x, low)


def _check_params(problem: str, p: dict) -> Optional[ErrorSchedule]:
    """Check every key; return the schedule the config names, if any."""
    _optional(p, "lambda", 0.0, strict=True)
    _optional(p, "tol", 0.0, nullable=True)
    _optional(p, "max_iter", 1, integer=True)
    _optional(p, "seed", 0, integer=True)
    _optional(p, "n", 1, integer=True)
    _optional(p, "mu", 0.0)
    _optional(p, "noise_sigma", 0.0, nullable=True)
    _optional(p, "inclusion", 0.0, strict=True)
    if not isinstance(p.get("allow_nonsummable", False), bool):
        raise ConfigError("key 'allow_nonsummable' must be true or false")
    schedule = None
    if p.get("schedule") is not None:
        schedule = _parse_schedule(p["schedule"], p.get("allow_nonsummable", False))
    if "y" in p:
        _numbers("y", p["y"])
        if p.get("n", len(p["y"])) != len(p["y"]):
            raise ConfigError(f"key 'n' must equal len(y) = {len(p['y'])}, got {p['n']!r}")

    if problem in ("tv1d", "tv2d", "least_gradient"):
        ndims = {"tv1d": (1,), "tv2d": (2,), "least_gradient": (1, 2)}[problem]
        shape = p.get("grid_shape", [32] if problem == "tv1d" else [16, 16])
        if not isinstance(shape, list) or len(shape) not in ndims:
            raise ConfigError(f"key 'grid_shape' must be a list of {' or '.join(map(str, ndims))} "
                              f"node counts for {problem!r}, got {shape!r}")
        for n in shape:
            _number("grid_shape", n, 2, integer=True)
        spacing = p.get("spacing", 1.0)
        for h in (spacing if isinstance(spacing, list) else [spacing]):
            _number("spacing", h, 0.0, strict=True)
        if isinstance(spacing, list) and len(spacing) != len(shape):
            raise ConfigError("key 'spacing' must give one value per grid axis")
        if p.get("boundary", "dirichlet") not in ("dirichlet", "free"):
            raise ConfigError("key 'boundary' must be 'dirichlet' or 'free'")
        kind = p.get("conductivity", "linear")
        if kind not in ("linear", "two_phase"):
            raise ConfigError("key 'conductivity' must be 'linear' or 'two_phase'")
        if kind == "two_phase" and len(shape) != 2:
            raise ConfigError("key 'conductivity': two-phase instances need a 2-D grid_shape")
        _optional(p, "axis", 0, integer=True)
        if p.get("axis", 0) >= len(shape):
            raise ConfigError(f"key 'axis' must name one of the {len(shape)} grid axes")

    if problem == "custom_matrix":
        if not isinstance(p.get("matrix_csv"), str):
            raise ConfigError("custom_matrix requires key 'matrix_csv' (a CSV file path)")
        for side in ("g", "f"):
            spec = p.get(side, {"label": "quadratic" if side == "g" else "l1"})
            label = spec.get("label") if isinstance(spec, dict) else None
            if not isinstance(label, str) or label not in FUNCTIONAL_LABELS:
                raise ConfigError(f"key {side!r} must be an object with a 'label' "
                                  f"in {sorted(FUNCTIONAL_LABELS)}")
            if side == "g" and label not in _U_STEP_LABELS:
                raise ConfigError(f"key 'g': label {label!r} has no exact u-step; "
                                  f"use one of {_U_STEP_LABELS}")
            _check_functional(side, label, spec)
    return schedule


def _check_functional(side: str, label: str, spec: dict) -> None:
    """Keys, types and ranges of one custom_matrix functional; lengths need the CSV."""
    extra = set(spec) - {"label", *FUNCTIONAL_LABELS[label]}
    if extra:
        raise ConfigError(f"unknown keys {sorted(extra)} in {side!r} for label {label!r}")
    required = {"weighted_l21": "block_size", "indicator_point": "anchor"}.get(label)
    if required is not None and required not in spec:
        raise ConfigError(f"key {side!r}: label {label!r} requires {required!r}")
    where = f"{side}."
    _optional(spec, "weight", 0.0, prefix=where)
    _optional(spec, "scale", 0.0, strict=True, prefix=where)
    _optional(spec, "block_size", 1, integer=True, prefix=where)
    for key, low in (("target", -math.inf), ("anchor", -math.inf), ("weights", 0.0)):
        if key in spec:
            _numbers(where + key, spec[key], low)
    mask = spec.get("mask", [])
    if not isinstance(mask, list) or not all(isinstance(m, bool) for m in mask):
        raise ConfigError(f"key '{where}mask' must be a list of true/false values")


# the keys each schedule type reads besides "type"
_SCHEDULE_KEYS = {"geometric": ("ratio", "scale"), "harmonic": ("scale",), "zero": ()}


def _parse_schedule(spec: dict, allow_nonsummable: bool) -> ErrorSchedule:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("key 'schedule' must be an object with a 'type'")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in _SCHEDULE_KEYS:
        raise ConfigError(f"unknown schedule type {kind!r}")
    extra = set(spec) - {"type", *_SCHEDULE_KEYS[kind]}
    if extra:
        raise ConfigError(f"unknown schedule keys {sorted(extra)} for type {kind!r}")
    _optional(spec, "ratio", 0.0)
    _optional(spec, "scale", 0.0)
    makers = {
        "geometric": lambda: geometric_schedule(spec.get("ratio", 0.5), spec.get("scale", 1.0)),
        "zero": zero_schedule,
        "harmonic": lambda: harmonic_schedule(spec.get("scale", 1.0)),
    }
    try:
        schedule = makers[kind]()
    except ValueError as exc:  # e.g. a geometric ratio outside [0, 1)
        raise ConfigError(f"key 'schedule': {exc}") from exc
    if not schedule.summable and not allow_nonsummable:
        raise ConfigError(
            f"key 'schedule': {kind} magnitudes are not summable; "
            "set 'allow_nonsummable' to run this negative control anyway"
        )
    return schedule


def _build_problem(config: RunConfig):
    """Returns (problem, instance_id, oracle) with oracle possibly None.

    ``oracle(problem)`` must return the independently computed optimal
    value of the instance.
    """
    p = config.params
    lam = float(p.get("lambda", 1.0))
    seed = int(p.get("seed", 0))

    if config.problem == "lasso":
        n = int(p.get("n", 10))
        mu = float(p.get("mu", 1.0))
        if "y" in p:
            y = np.asarray(p["y"], dtype=float)
            n = y.shape[0]
        else:
            y = 2.0 * np.random.default_rng(seed).standard_normal(n)
        problem = SplitProblem(g=prox_quadratic(y, 1.0), f=prox_l1(mu, dim=n),
                               L=identity_operator(n), lam=lam)

        def oracle(prob):
            u_star = soft_threshold_optimum(y, mu)
            return prob.g.value(u_star) + prob.f.value(prob.L.apply(u_star))

        return problem, f"lasso_n{n}_seed{seed}", oracle

    if config.problem in ("tv1d", "tv2d"):
        default_shape = (32,) if config.problem == "tv1d" else (16, 16)
        shape = tuple(p.get("grid_shape", default_shape))
        inst = make_tv_instance(shape=shape, mu=float(p.get("mu", 0.15)), seed=seed,
                                noise_sigma=p.get("noise_sigma"),
                                spacing=p.get("spacing", 1.0))
        boundary = p.get("boundary", "dirichlet")
        problem = build_tv_problem(inst, lam=lam, boundary=boundary)
        shape_id = "x".join(str(s) for s in inst.grid.shape)

        if config.problem == "tv1d":
            def oracle(prob):
                h = inst.grid.spacing[0]
                mu_eff = inst.mu / h
                if boundary == "dirichlet":
                    u_star = taut_string_dirichlet(inst.noisy_signal, mu_eff)
                else:
                    u_star = taut_string_denoise(inst.noisy_signal, mu_eff)
                return prob.g.value(u_star) + prob.f.value(prob.L.apply(u_star))
        else:
            def oracle(prob):
                return tv_dual_solve(prob, gap_tol=1e-10).primal_value

        return problem, f"{config.problem}_{shape_id}_seed{seed}", oracle

    if config.problem == "least_gradient":
        shape = tuple(p.get("grid_shape", (16, 16)))
        kind = p.get("conductivity", "linear")
        inst = make_least_gradient_instance(shape=shape, kind=kind,
                                            spacing=p.get("spacing", 1.0),
                                            inclusion=float(p.get("inclusion", 2.0)),
                                            axis=int(p.get("axis", 0)))
        problem = build_least_gradient_problem(inst, lam=lam)
        shape_id = "x".join(str(s) for s in inst.grid.shape)

        def oracle(prob):
            # u_true is certified optimal when the dual-field stationarity
            # defect vanishes; otherwise no independent value exists here.
            defect = interior_stationarity_defect(prob, inst.u_true)
            if defect <= 1e-10:
                return prob.g.value(inst.u_true) + prob.f.value(prob.L.apply(inst.u_true))
            return None

        return problem, f"least_gradient_{kind}_{shape_id}", oracle

    # custom_matrix: a CSV that is unreadable or does not fit g and f is a config error
    try:
        L = matrix_operator(load_matrix_csv(p["matrix_csv"]))
        g_spec = dict(p.get("g", {"label": "quadratic"}))
        f_spec = dict(p.get("f", {"label": "l1"}))
        g = functional_from_label(g_spec.pop("label"), L.domain_dim, g_spec)
        f = functional_from_label(f_spec.pop("label"), L.codomain_dim, f_spec)
        problem = SplitProblem(g=g, f=f, L=L, lam=lam)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"custom_matrix: {exc}") from exc
    return problem, f"custom_{L.domain_dim}x{L.codomain_dim}", None


def _stopping(config: RunConfig) -> StoppingRule:
    p = config.params
    tol = p.get("tol", 1e-9)
    return StoppingRule(tol=None if tol is None else float(tol),
                        max_iter=int(p.get("max_iter", 100_000)))


def write_trace_csv(path, trace: RunTrace) -> None:
    rows = zip(range(1, trace.n_iter + 1), trace.residuals.tolist(), trace.energies.tolist(),
               trace.setzer_defects.tolist(), trace.x_increments.tolist())
    with open(path, "w") as fh:
        fh.write("k,residual,energy,setzer_defect,x_increment\n")
        fh.write("".join(["%d,%.17g,%.17g,%.17g,%.17g\n" % row for row in rows]))


def _certificates_for_run(problem: SplitProblem, trace: RunTrace, oracle) -> list:
    final = trace.final
    lam = problem.lam
    certs = [dual_certificate(problem, final.b, final.d)]

    v_star = oracle(problem) if oracle is not None else None
    if v_star is None:
        v_star = dual_value(problem, lam * final.b)
        details_src = "reference value: weak-duality bound at the converged dual point"
    else:
        details_src = "reference value: independent oracle"
    cert_primal = primal_recovery_check(problem, final.u, final.d, v_star)
    certs.append(replace(cert_primal, details=f"{cert_primal.details}; {details_src}"))

    pair = dual_resolvents(problem)
    certs.append(Certificate.from_defect(
        "inclusion", inclusion_defect(pair, final.x, final.p, lam), 1e-7,
        details="resolvent residuals of the optimality inclusion at (x, p)"))

    if trace.twin_defect is not None:  # exact runs; approximate runs carry no twin
        certs.append(lockstep_certificate(trace))
    return certs


def run(config: RunConfig, out_dir) -> int:
    """Execute one solver run; write artifacts; exit 0 iff all certificates pass."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem, instance_id, oracle = _build_problem(config)
    stop = _stopping(config)
    # the certificates read only the final iterate: snapshot k=0 and the last
    t0 = time.perf_counter()
    if config.solver == "asb":
        trace = asb_iterate(problem, stop=stop, record_stride=0)
    elif config.solver == "drs":
        trace = run_drs(problem, stop=stop, record_stride=0)
    else:
        trace = asb_iterate_approx(problem, config.schedule, stop=stop,
                                   seed=int(config.params.get("seed", 0)), record_stride=0)
    wall = time.perf_counter() - t0

    certs = _certificates_for_run(problem, trace, oracle)
    gap = duality_gap(problem, trace.final.u, problem.lam * trace.final.b)
    row = SummaryRow(
        instance_id=f"{instance_id}_{config.solver}",
        iterations=trace.n_iter,
        final_residual=float(trace.residuals[-1]),
        final_energy=float(trace.energies[-1]),
        duality_gap=gap,
        certificates_passed=sum(c.passed for c in certs),
        certificates_total=len(certs),
        wall_time=wall,
    )
    _emit(out, row, certs, trace)
    return 0 if all(c.passed for c in certs) else 1


def _emit(out: Path, row: SummaryRow, certs, trace: RunTrace) -> None:
    write_trace_csv(out / "trace.csv", trace)
    (out / "certificates.json").write_text(certificates_to_json(certs))
    (out / "summary.txt").write_text(row.line() + "\n")
    print(row.line())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="splitbreg",
        description="Run splitting-solver experiments from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--solver", choices=SOLVERS, help="override config solver")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--max-iter", type=int, help="override config max_iter")
    parser.add_argument("--tol", type=float, help="override config tol")
    args = parser.parse_args(argv)

    try:
        payload = json.loads(Path(args.config).read_text())
        # overrides apply to an object; parse_config rejects anything else
        if isinstance(payload, dict) and isinstance(payload.setdefault("params", {}), dict):
            if args.solver:
                payload["solver"] = args.solver
            for key, value in (("seed", args.seed), ("max_iter", args.max_iter),
                               ("tol", args.tol)):
                if value is not None:
                    payload["params"][key] = value
        config = parse_config(payload)
    except (OSError, ValueError) as exc:  # ConfigError, JSON and decoding errors
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        return run(config, args.out)
    except ConfigError as exc:  # found only once the custom_matrix CSV is loaded
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver-level failure: report and signal
        print(f"run failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
