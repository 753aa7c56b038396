"""Batch experiment harness.

Loads a problem from a JSON config, runs the requested solver, and
always writes ``trace.csv`` (17-significant-digit columns, byte-stable
for a fixed config and seed), ``certificates.json`` and ``summary.txt``;
:func:`run` formats the summary line and also prints it.  Exit status
is 0 when every emitted certificate passes, 1 when one fails, 2 for a
malformed config and 3 when the solver fails.

The params keys a problem accepts, with their defaults, are one table
per problem (``_PARAMS``); :func:`parse_config` fills the defaults in
once.  ``tol`` and ``max_iter`` default to :class:`StoppingRule`'s own,
and an ``asb_approx`` run without a schedule, or a schedule without
``ratio`` or ``scale``, takes :class:`ErrorSchedule`'s.

Every certificate is defined in :mod:`splitbreg.diagnostics`; this
module only gathers their inputs: the run's final record, the oracle's
answer and the resolvent pair.  Every problem comes with an oracle for a
minimizer, which returns None where no independent one exists
(custom_matrix, an uncertified least-gradient ``u_true``, a tv2d dual
solve whose gap did not reach its tolerance); the primal certificate
then falls back to the weak-duality bound at the converged dual point.
That dual point is the final record's ``p``; the summary's
``duality_gap`` is taken at it, and the tv2d dual solve starts from it:
its certificate is its own duality gap, which no start can bias.

Every run carries four certificates.  The equivalence certificate comes
from the one-step checks every solver, ``asb_approx`` included, makes at
its own points (see :func:`splitbreg.asb._drive`), so no solver runs
twice and no second recursion is advanced.  For both traces of one
instance, run it once with ``--solver asb`` and once with
``--solver drs`` under ``"tol": null``.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .applications import (build_least_gradient_problem, build_tv_problem,
                           make_least_gradient_instance, make_tv_instance)
from .asb import SplitProblem, asb_iterate, asb_iterate_approx, dual_resolvents, run_drs
# equivalence_report is not called here; perfbench/tracing.py wraps this name
from .diagnostics import (RunTrace, certificates_to_json, dual_certificate, duality_gap,
                          equivalence_certificate, equivalence_report, inclusion_certificate,
                          inclusion_defect, primal_recovery_check)
from .drs import StoppingRule
from .functionals import (FUNCTIONAL_LABELS, ErrorSchedule, functional_from_label, prox_l1,
                          prox_quadratic)
from .linops import identity_operator, load_matrix_csv, matrix_operator
from .oracles import (interior_stationarity_defect, soft_threshold_optimum,
                      taut_string_denoise, taut_string_dirichlet, tv_dual_solve)

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

SOLVERS = ("asb", "drs", "asb_approx")

# The params keys each problem accepts, each with its default; parse_config
# fills the defaults in, so later readers index params[key].  A key mapped
# to _UNSET has no default and stays absent unless the config gives it.
_UNSET = object()
_COMMON = {"lambda": 1.0, "tol": StoppingRule.tol, "max_iter": StoppingRule.max_iter,
           "seed": 0, "schedule": None, "allow_nonsummable": False}
_GRID = {"grid_shape": [16, 16], "spacing": 1.0}
_TV = {**_GRID, "noise_sigma": None, "boundary": "dirichlet", "mu": 0.15}
_PARAMS = {
    "lasso": {**_COMMON, "n": 10, "y": _UNSET, "mu": 1.0},
    "tv1d": {**_COMMON, **_TV, "grid_shape": [32]},
    "tv2d": {**_COMMON, **_TV},
    "least_gradient": {**_COMMON, **_GRID, "conductivity": "linear", "inclusion": 2.0,
                       "axis": 0},
    "custom_matrix": {**_COMMON, "matrix_csv": _UNSET, "g": {"label": "quadratic"},
                      "f": {"label": "l1"}},
}
PROBLEMS = tuple(_PARAMS)
# the values each choice key accepts
_CHOICES = {"boundary": ("dirichlet", "free"), "conductivity": ("linear", "two_phase")}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    problem: str
    solver: str
    params: dict
    schedule: Optional[ErrorSchedule] = None  # asb_approx defaults to ErrorSchedule's


def parse_config(payload: dict) -> RunConfig:
    """Validate the config document; unknown keys are rejected.

    ``params`` comes back with every default of the problem's table filled
    in; an explicit ``null`` replaces a default like any other value, so
    it is rejected wherever a key does not take ``null``.  Every key's type
    and range is checked here; only the custom_matrix CSV, and whether its
    g has an exact u-step, are checked later, when :func:`run` builds the
    problem (still exit 2).
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"config must be a JSON object, got {type(payload).__name__}")
    allowed_top = {"problem", "solver", "params"}
    for key in payload:
        if key not in allowed_top:
            raise ConfigError(f"unknown config key {key!r}")
    problem = payload.get("problem")
    if problem not in PROBLEMS:
        raise ConfigError(f"key 'problem' must be one of {PROBLEMS}, got {_shown(problem)}")
    solver = payload.get("solver", "asb")
    if solver not in SOLVERS:
        raise ConfigError(f"key 'solver' must be one of {SOLVERS}, got {_shown(solver)}")
    given = payload.get("params", {})
    if not isinstance(given, dict):
        raise ConfigError("key 'params' must be an object")
    table = _PARAMS[problem]
    for key in given:
        if key not in table:
            raise ConfigError(f"unknown params key {key!r} for problem {problem!r}")
    params = copy.deepcopy({key: v for key, v in table.items() if v is not _UNSET})
    params.update(given)
    schedule = _check_params(problem, params)
    if "y" in params:  # a lasso n is the length of y; a given n must agree
        n = len(params["y"])
        if given.get("n", n) != n:
            raise ConfigError(f"key 'n' must equal len(y) = {n}, got {_shown(given['n'])}")
        params["n"] = n
    if solver == "asb_approx" and schedule is None:
        schedule = ErrorSchedule("geometric")
    return RunConfig(problem=problem, solver=solver, params=params, schedule=schedule)


_SHOWN_CHARS = 40  # a rejected value is echoed up to this many characters


def _shown(v) -> str:
    """``repr(v)``, cut to ``_SHOWN_CHARS`` with an ellipsis, so an error stays one short line."""
    r = repr(v)
    return r if len(r) <= _SHOWN_CHARS else r[:_SHOWN_CHARS - 3] + "..."


def _number(key: str, v, low: float, *, strict: bool = False, integer: bool = False) -> None:
    """A finite number ``>= low`` (``> low`` if strict), integral if asked."""
    # abs(v) <= max is false for nan and inf, and for an int beyond float
    # range, on which math.isfinite would raise OverflowError
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"key {key!r} must be a finite number, got {_shown(v)}")
    if integer and v != int(v):
        raise ConfigError(f"key {key!r} must be an integer, got {_shown(v)}")
    if v < low or (strict and v == low):
        raise ConfigError(f"key {key!r} must be {'>' if strict else '>='} {low:g}, "
                          f"got {_shown(v)}")


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
    if not isinstance(p["allow_nonsummable"], bool):
        raise ConfigError("key 'allow_nonsummable' must be true or false")
    schedule = (None if p["schedule"] is None
                else _parse_schedule(p["schedule"], p["allow_nonsummable"]))
    if "y" in p:
        _numbers("y", p["y"])

    if "grid_shape" in p:
        ndims = {"tv1d": (1,), "tv2d": (2,), "least_gradient": (1, 2)}[problem]
        shape = p["grid_shape"]
        if not isinstance(shape, list) or len(shape) not in ndims:
            raise ConfigError(f"key 'grid_shape' must be a list of {' or '.join(map(str, ndims))} "
                              f"node counts for {problem!r}, got {_shown(shape)}")
        for n in shape:
            _number("grid_shape", n, 2, integer=True)
        spacing = p["spacing"]
        for h in (spacing if isinstance(spacing, list) else [spacing]):
            _number("spacing", h, 0.0, strict=True)
        if isinstance(spacing, list) and len(spacing) != len(shape):
            raise ConfigError("key 'spacing' must give one value per grid axis")
    for key, choices in _CHOICES.items():
        if key in p and p[key] not in choices:
            raise ConfigError(f"key {key!r} must be {' or '.join(map(repr, choices))}")
    if problem == "least_gradient":
        if p["conductivity"] == "two_phase" and len(shape) != 2:
            raise ConfigError("key 'conductivity': two-phase instances need a 2-D grid_shape")
        _number("axis", p["axis"], 0, integer=True)
        if p["axis"] >= len(shape):
            raise ConfigError(f"key 'axis' must name one of the {len(shape)} grid axes")

    if problem == "custom_matrix":
        if not isinstance(p.get("matrix_csv"), str):
            raise ConfigError("custom_matrix requires key 'matrix_csv' (a CSV file path)")
        for side in ("g", "f"):
            spec = p[side]
            label = spec.get("label") if isinstance(spec, dict) else None
            if not isinstance(label, str) or label not in FUNCTIONAL_LABELS:
                raise ConfigError(f"key {side!r} must be an object with a 'label' "
                                  f"in {sorted(FUNCTIONAL_LABELS)}")
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
        raise ConfigError(f"unknown schedule type {_shown(kind)}")
    extra = set(spec) - {"type", *_SCHEDULE_KEYS[kind]}
    if extra:
        raise ConfigError(f"unknown schedule keys {sorted(extra)} for type {kind!r}")
    _optional(spec, "ratio", 0.0, prefix="schedule.")
    _optional(spec, "scale", 0.0, prefix="schedule.")
    fields = {key: float(spec[key]) for key in _SCHEDULE_KEYS[kind] if key in spec}
    try:
        schedule = (ErrorSchedule("geometric", scale=0.0) if kind == "zero"
                    else ErrorSchedule(kind, **fields))
    except ValueError as exc:  # e.g. a geometric ratio outside [0, 1)
        raise ConfigError(f"key 'schedule': {exc}") from exc
    if not schedule.summable and not allow_nonsummable:
        raise ConfigError(
            f"key 'schedule': {kind} magnitudes are not summable; "
            "set 'allow_nonsummable' to run this negative control anyway"
        )
    return schedule


def _build_problem(config: RunConfig):
    """Returns (problem, instance_id, oracle).

    ``oracle(problem, final)`` returns an independently computed
    minimizer of the instance with a note on how it was found ("" when
    there is nothing to add), or None where there is none (custom_matrix,
    a least-gradient ``u_true`` that is not certified optimal, and a tv2d
    dual solve that stopped at its iteration cap).  ``final`` is the
    run's final snapshot; only the tv2d dual solve reads it, to start
    from its dual point ``p``.
    """
    p = config.params
    lam = float(p["lambda"])
    seed = int(p["seed"])

    if config.problem == "lasso":
        n, mu = int(p["n"]), float(p["mu"])
        y = (np.asarray(p["y"], dtype=float) if "y" in p
             else 2.0 * np.random.default_rng(seed).standard_normal(n))
        problem = SplitProblem(g=prox_quadratic(y, 1.0), f=prox_l1(mu, dim=n),
                               L=identity_operator(n), lam=lam)

        def oracle(prob, final):
            return soft_threshold_optimum(y, mu), ""

        return problem, f"lasso_n{n}_seed{seed}", oracle

    if config.problem in ("tv1d", "tv2d"):
        inst = make_tv_instance(shape=tuple(p["grid_shape"]), mu=float(p["mu"]), seed=seed,
                                noise_sigma=p["noise_sigma"], spacing=p["spacing"])
        boundary = p["boundary"]
        problem = build_tv_problem(inst, lam=lam, boundary=boundary)
        shape_id = "x".join(str(s) for s in inst.grid.shape)

        if config.problem == "tv1d":
            def oracle(prob, final):
                h = inst.grid.spacing[0]
                mu_eff = inst.mu / h
                if boundary == "dirichlet":
                    return taut_string_dirichlet(inst.noisy_signal, mu_eff), ""
                return taut_string_denoise(inst.noisy_signal, mu_eff), ""
        else:
            def oracle(prob, final):
                dual = tv_dual_solve(prob, gap_tol=1e-10, b0=final.p)
                if not dual.certified:
                    return None
                return dual.u, "dual solve warm-started, gap-certified; "

        return problem, f"{config.problem}_{shape_id}_seed{seed}", oracle

    if config.problem == "least_gradient":
        kind = p["conductivity"]
        inst = make_least_gradient_instance(shape=tuple(p["grid_shape"]), kind=kind,
                                            spacing=p["spacing"],
                                            inclusion=float(p["inclusion"]), axis=int(p["axis"]))
        problem = build_least_gradient_problem(inst, lam=lam)
        shape_id = "x".join(str(s) for s in inst.grid.shape)

        def oracle(prob, final):
            # u_true is certified optimal when the dual-field stationarity
            # defect vanishes; otherwise no independent minimizer exists here.
            defect = interior_stationarity_defect(prob, inst.u_true)
            return (inst.u_true, "") if defect <= 1e-10 else None

        return problem, f"least_gradient_{kind}_{shape_id}", oracle

    # custom_matrix: a CSV that is unreadable or does not fit g and f, or a g
    # that SplitProblem refuses, is a config error
    try:
        L = matrix_operator(load_matrix_csv(p["matrix_csv"]))
        g_spec, f_spec = dict(p["g"]), dict(p["f"])
        g = functional_from_label(g_spec.pop("label"), L.domain_dim, g_spec)
        f = functional_from_label(f_spec.pop("label"), L.codomain_dim, f_spec)
        problem = SplitProblem(g=g, f=f, L=L, lam=lam)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"custom_matrix: {exc}") from exc
    return problem, f"custom_{L.domain_dim}x{L.codomain_dim}", lambda prob, final: None


def _stopping(config: RunConfig) -> StoppingRule:
    p = config.params
    return StoppingRule(tol=None if p["tol"] is None else float(p["tol"]),
                        max_iter=int(p["max_iter"]))


def write_trace_csv(path, trace: RunTrace) -> None:
    rows = zip(range(1, trace.n_iter + 1), trace.residuals.tolist(), trace.energies.tolist(),
               trace.setzer_defects.tolist(), trace.x_increments.tolist())
    with open(path, "w") as fh:
        fh.write("k,residual,energy,setzer_defect,x_increment\n")
        fh.write("".join(["%d,%.17g,%.17g,%.17g,%.17g\n" % row for row in rows]))


def _certificates_for_run(problem: SplitProblem, trace: RunTrace, oracle) -> list:
    final = trace.final
    return [dual_certificate(problem, final.b, final.d),
            primal_recovery_check(problem, final, oracle(problem, final)),
            inclusion_certificate(inclusion_defect(dual_resolvents(problem), final.x, final.p,
                                                  problem.lam)),
            equivalence_certificate(trace)]


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
                                   seed=int(config.params["seed"]), record_stride=0)
    wall = time.perf_counter() - t0

    certs = _certificates_for_run(problem, trace, oracle)
    passed = sum(c.passed for c in certs)
    gap = duality_gap(problem, trace.final.u, trace.final.p)
    line = (f"instance={instance_id}_{config.solver} iterations={trace.n_iter} "
            f"final_residual={trace.residuals[-1]:.6e} final_energy={trace.energies[-1]:.12e} "
            f"duality_gap={gap:.6e} certificates={passed}/{len(certs)} wall_time={wall:.3f}s")
    write_trace_csv(out / "trace.csv", trace)
    (out / "certificates.json").write_text(certificates_to_json(certs))
    (out / "summary.txt").write_text(line + "\n")
    print(line)
    return 0 if passed == len(certs) else 1


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
