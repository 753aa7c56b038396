import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import splitbreg.asb
import splitbreg.cli
import splitbreg.linops
import splitbreg.oracles
from splitbreg.applications import build_least_gradient_problem, make_least_gradient_instance
from splitbreg.cli import _PARAMS, PROBLEMS, SOLVERS, ConfigError, main, parse_config, run
from splitbreg.diagnostics import RunTrace
from splitbreg.drs import StoppingRule
from splitbreg.functionals import ErrorSchedule


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def _certs(out_dir):
    return json.loads((out_dir / "certificates.json").read_text())


LASSO_Y3 = {
    "problem": "lasso",
    "solver": "asb",
    "params": {"y": [3.0], "mu": 1.0, "lambda": 1.0, "tol": 1e-12, "max_iter": 5000},
}


def test_parse_config_validation():
    with pytest.raises(ConfigError, match="'problem'"):
        parse_config({"problem": "ridge"})
    with pytest.raises(ConfigError, match="'solver'"):
        parse_config({"problem": "lasso", "solver": "sgd"})
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config({"problem": "lasso", "extra": 1})
    with pytest.raises(ConfigError, match="unknown params key"):
        parse_config({"problem": "lasso", "params": {"grid_shape": [4]}})
    with pytest.raises(ConfigError, match="'lambda'"):
        parse_config({"problem": "lasso", "params": {"lambda": -1}})
    with pytest.raises(ConfigError, match="allow_nonsummable"):
        parse_config({"problem": "lasso", "params": {"schedule": {"type": "harmonic"}}})
    # explicit override admits the negative control
    parse_config({"problem": "lasso",
                  "params": {"schedule": {"type": "harmonic"}, "allow_nonsummable": True}})
    with pytest.raises(ConfigError, match="unknown schedule"):
        parse_config({"problem": "lasso", "params": {"schedule": {"type": "geometric", "rate": 0.5}}})
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config({"problem": "lasso", "outputs": ["plots"]})
    with pytest.raises(ConfigError, match="'n' must equal len"):
        parse_config({"problem": "lasso", "params": {"n": 5, "y": [1.0, 2.0]}})
    parse_config({"problem": "lasso", "params": {"n": 2, "y": [1.0, 2.0]}})


def test_lasso_run_hits_known_energy(tmp_path, capsys):
    config = parse_config(LASSO_Y3)
    code = run(config, tmp_path / "out")
    assert code == 0
    line = (tmp_path / "out" / "summary.txt").read_text()
    assert "final_energy=2.500000000000e+00" in line
    certs = _certs(tmp_path / "out")
    assert len(certs) == 4
    assert all(c["passed"] for c in certs)
    assert {c["kind"] for c in certs} == {"dual_optimal", "primal_optimal",
                                          "inclusion", "equivalence"}


def test_tv1d_run_passes_all_certificates(tmp_path):
    payload = {"problem": "tv1d", "solver": "asb",
               "params": {"seed": 42, "mu": 0.15, "tol": 1e-11, "max_iter": 30000}}
    code = run(parse_config(payload), tmp_path / "out")
    assert code == 0
    certs = _certs(tmp_path / "out")
    assert sum(c["passed"] for c in certs) == 4


def test_trace_csv_is_byte_stable(tmp_path):
    config = parse_config(LASSO_Y3)
    run(config, tmp_path / "a")
    run(config, tmp_path / "b")
    assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()
    header = (tmp_path / "a" / "trace.csv").read_text().splitlines()[0]
    assert header == "k,residual,energy,setzer_defect,x_increment"


def test_trace_csv_setzer_column_is_nan_past_the_check_window(tmp_path):
    payload = {"problem": "lasso", "solver": "drs",
               "params": {"n": 12, "tol": None, "max_iter": 250}}
    assert run(parse_config(payload), tmp_path / "out") == 0
    lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert lines[0] == "k,residual,energy,setzer_defect,x_increment"
    setzer = [row.split(",")[3] for row in lines[1:]]
    assert len(setzer) == 250
    assert all(v != "nan" for v in setzer[:200]) and set(setzer[200:]) == {"nan"}


def _write_trace_csv_loop(path, trace):
    # the per-row f-string writer that write_trace_csv replaced, kept as its reference
    with open(path, "w") as fh:
        fh.write("k,residual,energy,setzer_defect,x_increment\n")
        for j in range(trace.n_iter):
            fh.write(
                f"{j + 1},{trace.residuals[j]:.17g},{trace.energies[j]:.17g},"
                f"{trace.setzer_defects[j]:.17g},{trace.x_increments[j]:.17g}\n"
            )


def test_write_trace_csv_matches_the_row_loop(tmp_path):
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-310,
               2.2250738585072014e-308, 0.1, 1 / 3, -2 / 3, 1.2345678901234567e300,
               9007199254740993.0, 123456789012345678.0, 1e-7, 1e16, 12345.678901234567]
    rng = np.random.default_rng(5)
    n = len(special)
    columns = [np.array(special), np.array(special[::-1]), rng.permutation(special),
               rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)]
    trace = RunTrace(
        kind="asb", iterates=[], residuals=columns[0], energies=columns[1],
        setzer_defects=columns[2], x_increments=columns[3],
        alpha_injected=np.zeros(n), converged=False, n_iter=n)
    splitbreg.cli.write_trace_csv(tmp_path / "fast.csv", trace)
    _write_trace_csv_loop(tmp_path / "loop.csv", trace)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
    assert "nan" in (tmp_path / "fast.csv").read_text()


def test_exit_status_negative_fixture(tmp_path):
    payload = {"problem": "lasso", "solver": "asb",
               "params": {"y": [3.0], "mu": 1.0, "tol": None, "max_iter": 3}}
    code = run(parse_config(payload), tmp_path / "out")
    assert code == 1  # far from optimal: certificates must fail


def test_equivalence_check_catches_a_wrong_dual_resolvent(tmp_path, monkeypatch):
    # a slightly wrong dual resolvent on the DRS side only: the alternating
    # sweep never calls it, so the DRS map checked at a plain run's points
    # must catch the mismatch
    exact = splitbreg.asb.dual_resolvent
    monkeypatch.setattr(splitbreg.asb, "dual_resolvent",
                        lambda F, x, lam: exact(F, x, lam) + 1e-6)
    payload = {"problem": "lasso", "params": {"y": [3.0], "max_iter": 50}}
    assert run(parse_config(payload), tmp_path / "run") == 1
    equivalence = [c for c in _certs(tmp_path / "run") if c["kind"] == "equivalence"]
    assert len(equivalence) == 1 and not equivalence[0]["passed"]


def _clear_structure_memos():
    splitbreg.linops._grid_gradient.cache_clear()
    splitbreg.asb._u_step_structure.cache_clear()


def test_run_factors_the_u_step_once(tmp_path, monkeypatch):
    # the solver's factor also serves the inclusion certificate's resolvents;
    # the memos start empty, or an earlier factor of this grid would be reused
    _clear_structure_memos()
    factors = []
    exact = splitbreg.asb.spd_factor
    monkeypatch.setattr(splitbreg.asb, "spd_factor",
                        lambda system, what: factors.append(what) or exact(system, what))
    payload = {"problem": "tv1d", "params": {"grid_shape": [64], "seed": 1}}
    assert run(parse_config(payload), tmp_path / "run") == 0
    assert factors == ["u-step normal system"]


def _outputs(out):
    # the three files, the summary without its wall time
    summary = re.sub(r" wall_time=\S+", "", (out / "summary.txt").read_text())
    return (out / "trace.csv").read_bytes(), (out / "certificates.json").read_bytes(), summary


def _custom_matrix_payload(tmp_path):
    mpath = tmp_path / "op.csv"
    m = np.random.default_rng(0).standard_normal((6, 4))
    mpath.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in m) + "\n")
    return {"problem": "custom_matrix",
            "params": {"matrix_csv": str(mpath), "g": {"label": "quadratic"},
                       "f": {"label": "l1", "weight": 0.5}, "tol": 1e-12, "max_iter": 2000}}


@pytest.mark.parametrize("solver", ["asb", "drs", "asb_approx"])
@pytest.mark.parametrize("name", ["tv1d", "least_gradient_two_lambdas", "custom_matrix"])
def test_a_memo_hit_writes_what_a_cold_memo_writes(tmp_path, name, solver):
    # a cold run, then the same structure again from the memo: tv1d's second
    # run reuses its grid and factor; least gradient's indicator g has no lam
    # in its key, so its second lam reuses the first one's factor; the custom
    # matrix is read afresh from its CSV and builds a new operator each run
    if name == "tv1d":
        payloads = [{"problem": "tv1d", "params": {"grid_shape": [64], "seed": 3}}] * 2
    elif name == "least_gradient_two_lambdas":
        payloads = [{"problem": "least_gradient",
                     "params": {"grid_shape": [10, 10], "conductivity": "two_phase",
                                "lambda": lam, "max_iter": 3000}} for lam in (0.05, 0.2)]
    else:
        payloads = [_custom_matrix_payload(tmp_path)] * 2
    payloads = [dict(p, solver=solver) for p in payloads]
    _clear_structure_memos()
    for i, payload in enumerate(payloads):
        run(parse_config(payload), tmp_path / f"memo{i}")
    info = splitbreg.asb._u_step_structure.cache_info()
    assert (info.hits, info.misses) == ((0, 2) if name == "custom_matrix" else (1, 1))
    _clear_structure_memos()
    run(parse_config(payloads[-1]), tmp_path / "cold")
    assert _outputs(tmp_path / "memo1") == _outputs(tmp_path / "cold")


def test_a_batch_on_one_grid_factors_the_u_step_once(tmp_path, monkeypatch):
    # 60 noisy signals of one length at one lam share one operator and factor
    factors = []
    exact = splitbreg.asb.spd_factor
    monkeypatch.setattr(splitbreg.asb, "spd_factor",
                        lambda system, what: factors.append(what) or exact(system, what))
    for seed in range(60):
        payload = {"problem": "tv1d", "params": {"grid_shape": [256], "mu": 0.15, "seed": seed,
                                                 "tol": 1e-9, "max_iter": 20000}}
        assert run(parse_config(payload), tmp_path / "out") == 0
    assert factors == ["u-step normal system"]


def test_main_reports_config_errors(tmp_path, capsys):
    bad = _write_config(tmp_path, {"problem": "lasso", "params": {"lambda": -1}})
    code = main(["--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "lambda" in capsys.readouterr().err
    good = _write_config(tmp_path, LASSO_Y3, name="good.json")
    assert main(["--config", str(good), "--max-iter", "0", "--out", str(tmp_path / "out")]) == 2
    assert "config error: key 'max_iter' must be >= 1" in capsys.readouterr().err


def test_main_runs_and_applies_overrides(tmp_path, capsys):
    cfg = _write_config(tmp_path, LASSO_Y3)
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--max-iter", "4000", "--tol", "1e-12", "--seed", "5", "--solver", "drs"])
    assert code == 0
    out = capsys.readouterr().out
    assert "certificates=4/4" in out
    assert "seed5" in out  # --seed override reached the instance
    # --solver replaced the config's asb, and the summary names the solver that ran
    assert out.split()[0] == "instance=lasso_n1_seed5_drs"
    assert (tmp_path / "out" / "summary.txt").read_text() == out


@pytest.mark.parametrize("field,value", [("scale", -1), ("ratio", -0.5), ("scale", "x")])
def test_schedule_field_errors_name_the_schedule(field, value):
    spec = {"type": "geometric", field: value}
    with pytest.raises(ConfigError, match=rf"^key 'schedule\.{field}' must be "):
        parse_config({"problem": "lasso", "solver": "asb_approx", "params": {"schedule": spec}})


def test_a_400_digit_value_gives_one_short_error_line(tmp_path, capsys):
    # the CI's config: the rejected value is echoed cut short, with an ellipsis
    cfg = tmp_path / "max_iter_400_digits.json"
    cfg.write_text('{"problem": "lasso", "params": {"max_iter": 1%s}}' % ("0" * 400))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    line, = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: key 'max_iter' must be a finite number, got 1000")
    assert line.endswith("...") and len(line) < 120


def test_drs_solver_via_cli(tmp_path):
    payload = {"problem": "lasso", "solver": "drs",
               "params": {"y": [3.0], "mu": 1.0, "tol": 1e-12, "max_iter": 5000}}
    code = run(parse_config(payload), tmp_path / "out")
    assert code == 0
    certs = _certs(tmp_path / "out")
    assert len(certs) == 4 and all(c["passed"] for c in certs)


def test_asb_approx_solver_via_cli(tmp_path):
    payload = {"problem": "lasso", "solver": "asb_approx",
               "params": {"y": [3.0], "mu": 1.0, "tol": 1e-12, "max_iter": 5000,
                          "schedule": {"type": "geometric", "ratio": 0.5}}}
    code = run(parse_config(payload), tmp_path / "out")
    assert code == 0
    certs = _certs(tmp_path / "out")
    # an approximate run certifies the inexact correspondence too
    assert len(certs) == 4 and all(c["passed"] for c in certs)
    assert certs[-1]["kind"] == "equivalence" and "asb_approx" in certs[-1]["details"]


@pytest.mark.parametrize("problem,params", [
    ("lasso", {}),
    ("tv1d", {"grid_shape": [64], "seed": 3}),
], ids=["lasso", "tv1d"])
def test_nonsummable_errors_fail_convergence_not_the_correspondence(tmp_path, problem, params):
    # a harmonic schedule keeps the sweep an inexact DRS recursion, which the
    # equivalence certificate checks, but one whose errors never die out, so
    # the run does not converge and inclusion fails; the default geometric
    # schedule certifies both
    codes = {}
    for name, schedule in (("harmonic", {"schedule": {"type": "harmonic", "scale": 1.0},
                                         "allow_nonsummable": True}),
                           ("geometric", {})):
        payload = {"problem": problem, "solver": "asb_approx",
                   "params": {**params, **schedule, "max_iter": 3000}}
        codes[name] = run(parse_config(payload), tmp_path / name)
        certs = {c["kind"]: c for c in _certs(tmp_path / name)}
        assert len(certs) == 4 and certs["equivalence"]["passed"]
        assert certs["inclusion"]["passed"] is (name == "geometric")
    assert codes == {"harmonic": 1, "geometric": 0}


@pytest.mark.parametrize("payload", [
    {"problem": "lasso", "params": {}},
    {"problem": "tv1d", "params": {"grid_shape": [64], "seed": 3}},
    {"problem": "least_gradient", "params": {"grid_shape": [12, 9],
                                             "conductivity": "two_phase", "lambda": 0.3}},
], ids=["lasso", "tv1d", "least_gradient"])
def test_zero_schedule_writes_the_exact_trace(tmp_path, payload):
    # a zero schedule injects nothing, so the approximate run, its one-step
    # checks included, is the exact sweep byte for byte
    traces = {}
    for solver, schedule in (("asb", None), ("asb_approx", {"type": "zero"})):
        config = parse_config({**payload, "solver": solver,
                               "params": {**payload["params"], "schedule": schedule}})
        run(config, tmp_path / solver)
        traces[solver] = (tmp_path / solver / "trace.csv").read_bytes()
    assert traces["asb_approx"] == traces["asb"]
    assert b",nan," not in traces["asb"].splitlines()[1]


@pytest.mark.parametrize("params", [{}, {"schedule": None},
                                    {"schedule": {"type": "geometric", "ratio": 0.25}}],
                         ids=["default", "null", "explicit"])
def test_approx_schedule_is_built_once(tmp_path, monkeypatch, params):
    # parse_config builds the schedule; run must reuse it, not build another
    builds = []
    check = ErrorSchedule.__post_init__
    monkeypatch.setattr(ErrorSchedule, "__post_init__",
                        lambda self: builds.append(self) or check(self))
    payload = {"problem": "lasso", "solver": "asb_approx",
               "params": {"y": [3.0], "tol": 1e-12, "max_iter": 5000, **params}}
    config = parse_config(payload)
    assert len(builds) == 1 and builds[0] is config.schedule
    assert run(config, tmp_path / "out") == 0
    assert len(builds) == 1


def test_parse_config_evaluates_no_magnitude(monkeypatch):
    calls = []
    magnitude = ErrorSchedule.magnitude
    monkeypatch.setattr(ErrorSchedule, "magnitude",
                        lambda self, k: calls.append(k) or magnitude(self, k))
    for params in ({}, {"schedule": {"type": "geometric", "ratio": 0.9, "scale": 0.1}},
                   {"schedule": {"type": "zero"}},
                   {"schedule": {"type": "harmonic"}, "allow_nonsummable": True}):
        parse_config({"problem": "lasso", "solver": "asb_approx", "params": params})
    assert calls == []


def test_custom_matrix_problem(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 4))
    mpath = tmp_path / "op.csv"
    mpath.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in m) + "\n")
    payload = {
        "problem": "custom_matrix",
        "solver": "asb",
        "params": {
            "matrix_csv": str(mpath),
            "g": {"label": "quadratic", "target": list(rng.standard_normal(4))},
            "f": {"label": "l1", "weight": 0.5},
            "tol": 1e-12,
            "max_iter": 20000,
        },
    }
    code = run(parse_config(payload), tmp_path / "out")
    certs = _certs(tmp_path / "out")
    assert (tmp_path / "out" / "trace.csv").exists()
    assert code in (0, 1)  # no oracle: primal certificate uses the dual bound
    assert {c["kind"] for c in certs} >= {"dual_optimal", "inclusion"}


@pytest.mark.parametrize("problem,as_int,as_float", [
    ("tv1d", {"grid_shape": [16], "seed": 2}, {"grid_shape": [16.0], "seed": 2.0}),
    ("least_gradient", {"grid_shape": [8, 8]}, {"grid_shape": [8.0, 8.0]}),
])
def test_integral_floats_name_the_same_instance(tmp_path, problem, as_int, as_float):
    runs = {}
    for name, params in (("int", as_int), ("float", as_float)):
        out = tmp_path / name
        assert run(parse_config({"problem": problem, "params": params}), out) == 0
        runs[name] = ((out / "summary.txt").read_text().split()[0],
                      (out / "trace.csv").read_bytes())
    assert runs["int"] == runs["float"]
    assert ".0" not in runs["float"][0]


def test_approx_run_keeps_pinned_coordinates(tmp_path, capsys):
    # an injective L with a pinned g: the u-step error moves only the free
    # coordinate, so every recorded u is feasible and every energy finite
    payload = _custom(g={"label": "indicator_point", "anchor": [1.0, 2.0], "mask": [True, False]},
                      f={"label": "l1", "weight": 0.5})(tmp_path)
    payload["solver"] = "asb_approx"
    cfg = _write_config(tmp_path, payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "certificates=4/4" in capsys.readouterr().out
    energies = [float(row.split(",")[2])
                for row in (tmp_path / "out" / "trace.csv").read_text().splitlines()[1:]]
    assert energies and all(math.isfinite(e) for e in energies)


@pytest.mark.parametrize("solver,max_iter,iterations", [
    ("asb", 100, 30), ("drs", 100, 30), ("asb_approx", 100, 30), ("asb", 20, 20),
], ids=["asb", "drs", "asb_approx", "asb_max_iter_20"])
def test_overflowing_lasso_certifies_no_wrong_dual_point(tmp_path, solver, max_iter, iterations):
    # at y = +-1e300 the sweep's final b is [0, 0], while the dual optimum is
    # [1, -1]; a Moreau-form dual resolvent cancelled to 0 there and passed it.
    # Increments whose squares overflow still have finite norms, so the run
    # stops at k = 30, or at max_iter 20 before that.  The inclusion defect
    # is such a norm too: it says by how much the check fails, not inf
    payload = {"problem": "lasso", "solver": solver,
               "params": {"y": [1e300, -1e300], "max_iter": max_iter}}
    cfg = _write_config(tmp_path, payload)
    with np.errstate(over="ignore"):
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    inclusion = [c for c in _certs(tmp_path / "out") if c["kind"] == "inclusion"]
    assert not inclusion[0]["passed"]
    assert 1e290 < inclusion[0]["defect"] < math.inf
    assert f" iterations={iterations} " in (tmp_path / "out" / "summary.txt").read_text()


@pytest.mark.parametrize("solver", ["asb", "drs", "asb_approx"])
def test_lasso_overflowing_to_a_non_finite_u_exits_3(tmp_path, capsys, solver):
    # at y = +-1e308 the driver's scalars overflow from k = 1 on while every
    # vector stays finite, so the run goes on; the u-solve at k = 4 is not finite
    payload = {"problem": "lasso", "solver": solver, "params": {"y": [1e308, -1e308]}}
    cfg = _write_config(tmp_path, payload)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "run failed: non-finite u at iteration 4"


def _overflowing_custom_matrix(tmp_path):
    mpath = tmp_path / "huge.csv"
    mpath.write_text("1e200,0\n0,1e200\n1,1\n")
    return {"problem": "custom_matrix", "params": {"matrix_csv": str(mpath)}}


@pytest.mark.parametrize("payload,system", [
    ({"problem": "tv1d", "params": {"spacing": 1e-170}}, "u-step normal system"),
    ({"problem": "least_gradient", "params": {"grid_shape": [6, 6], "spacing": [1e-200, 1.0]}},
     "conductivity system"),
    (_overflowing_custom_matrix, "u-step normal system"),
], ids=["tv1d", "least_gradient", "custom_matrix"])
def test_an_overflowed_normal_system_exits_3_without_a_warning(tmp_path, capsys, payload,
                                                                system):
    # 1/h^2 or 1e200^2 overflows to inf in the assembled system, which is
    # refused as such, not read as a split and called singular
    if callable(payload):
        payload = payload(tmp_path)
    cfg = _write_config(tmp_path, payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"run failed: {system} has non-finite entries"
    assert "Warning" not in err


@pytest.mark.parametrize("spacing", [1e-15, 1e-50, 1e-150])
def test_tv1d_at_tiny_spacing_certifies_against_an_exact_oracle(tmp_path, spacing):
    # mu/h is so large that the minimizer is 0; the taut-string oracle must
    # return exactly that, or the boundary jump inflates its energy by mu/h
    cfg = _write_config(tmp_path, {"problem": "tv1d", "params": {"spacing": spacing}})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert all(c["passed"] for c in _certs(tmp_path / "out"))
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert " certificates=4/4 " in summary


def test_least_gradient_via_cli(tmp_path):
    payload = {"problem": "least_gradient", "solver": "asb",
               "params": {"grid_shape": [8, 8], "tol": 1e-12, "max_iter": 20000}}
    code = run(parse_config(payload), tmp_path / "out")
    assert code == 0
    assert sum(c["passed"] for c in _certs(tmp_path / "out")) == 4


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("shape, conductivity", [([2, 2], "linear"), ([2, 2], "two_phase"),
                                                 ([2], "linear")])
def test_least_gradient_with_no_free_node_certifies(tmp_path, shape, conductivity, solver):
    # every node is on the boundary: g pins every coordinate, the u-step
    # system is empty, and the stationarity oracle has no free node to check
    inst = make_least_gradient_instance(tuple(shape), kind=conductivity)
    problem = build_least_gradient_problem(inst)
    assert problem.g.params["mask"].all()
    assert splitbreg.oracles.interior_stationarity_defect(problem, inst.u_true) == 0.0
    payload = {"problem": "least_gradient", "solver": solver,
               "params": {"grid_shape": shape, "conductivity": conductivity}}
    assert run(parse_config(payload), tmp_path / "out") == 0
    assert " certificates=4/4 " in (tmp_path / "out" / "summary.txt").read_text()


@pytest.mark.parametrize("payload", [
    {"problem": "tv2d", "params": {"grid_shape": [6, 6], "tol": 1e-11}},
    {"problem": "tv1d", "params": {"grid_shape": [64], "boundary": "free"}},
], ids=["tv2d_dual_solve", "tv1d_free_taut_string"])
def test_tv_oracles_via_cli(tmp_path, payload):
    assert run(parse_config(payload), tmp_path / "out") == 0
    certs = _certs(tmp_path / "out")
    assert len(certs) == 4 and all(c["passed"] for c in certs)
    primal = next(c for c in certs if c["kind"] == "primal_optimal")
    assert primal["details"].endswith("reference value: independent oracle")


def test_tv2d_oracle_starts_from_the_run_dual_point(tmp_path):
    payload = {"problem": "tv2d", "params": {"grid_shape": [8, 8], "lambda": 20.0}}
    assert run(parse_config(payload), tmp_path / "out") == 0
    primal = next(c for c in _certs(tmp_path / "out") if c["kind"] == "primal_optimal")
    assert "; dual solve warm-started, gap-certified; " in primal["details"]
    assert " certificates=4/4 " in (tmp_path / "out" / "summary.txt").read_text()


def test_uncertified_tv2d_oracle_falls_back_to_the_weak_duality_bound(tmp_path, monkeypatch):
    # capped at 25 iterations a cold dual solve stops with a gap near 1e-2; its
    # value is no reference, and a correct run must not fail against it.  The
    # CLI's warm start certifies within 25 iterations, so it starts cold here
    monkeypatch.setattr(splitbreg.oracles, "_DUAL_MAX_ITER", 25)
    cold = splitbreg.oracles.tv_dual_solve
    monkeypatch.setattr(splitbreg.cli, "tv_dual_solve",
                        lambda prob, gap_tol, b0: cold(prob, gap_tol=gap_tol))
    payload = {"problem": "tv2d", "params": {"grid_shape": [6, 6], "tol": 1e-11}}
    assert run(parse_config(payload), tmp_path / "out") == 0
    primal = next(c for c in _certs(tmp_path / "out") if c["kind"] == "primal_optimal")
    assert primal["passed"]
    assert primal["details"].endswith(
        "reference value: weak-duality bound at the converged dual point")


# every default of the params table, spelled out
_SPELLED_OUT = {
    "common": {"lambda": 1.0, "tol": 1e-9, "max_iter": 100000, "seed": 0, "schedule": None,
               "allow_nonsummable": False},
    "lasso": {"n": 10, "mu": 1.0},
    "tv1d": {"grid_shape": [32], "spacing": 1.0, "noise_sigma": None, "boundary": "dirichlet",
             "mu": 0.15},
    "tv2d": {"grid_shape": [16, 16], "spacing": 1.0, "noise_sigma": None,
             "boundary": "dirichlet", "mu": 0.15},
    "least_gradient": {"grid_shape": [16, 16], "spacing": 1.0, "conductivity": "linear",
                       "inclusion": 2.0, "axis": 0},
    "custom_matrix": {"g": {"label": "quadratic"}, "f": {"label": "l1"}},
}


@pytest.mark.parametrize("problem", PROBLEMS)
def test_spelled_out_defaults_build_what_empty_params_build(tmp_path, problem):
    spelled = {**_SPELLED_OUT["common"], **_SPELLED_OUT[problem]}
    required = {}
    if problem == "custom_matrix":
        (tmp_path / "m.csv").write_text("1,0\n0,1\n1,1\n")
        required = {"matrix_csv": str(tmp_path / "m.csv")}
    assert set(spelled) == {key for key, default in _PARAMS[problem].items()
                            if default is not splitbreg.cli._UNSET}
    default, explicit = (parse_config({"problem": problem, "solver": "asb_approx",
                                       "params": {**required, **p}}) for p in ({}, spelled))
    (prob_d, id_d, _), (prob_e, id_e, _) = map(splitbreg.cli._build_problem, (default, explicit))
    assert id_d == id_e
    assert default.params == explicit.params
    assert default.schedule == explicit.schedule == ErrorSchedule("geometric", 1.0, 0.5)
    assert splitbreg.cli._stopping(default) == splitbreg.cli._stopping(explicit)
    assert splitbreg.cli._stopping(default) == StoppingRule(1e-9, 100000)
    assert prob_d.lam == prob_e.lam
    a, b = prob_d.L.matrix, prob_e.L.matrix
    assert a.shape == b.shape and (a != b).nnz == 0
    for side in ("g", "f"):
        fd, fe = getattr(prob_d, side), getattr(prob_e, side)
        assert fd.label == fe.label and fd.params.keys() == fe.params.keys()
        for key in fd.params:
            np.testing.assert_array_equal(fd.params[key], fe.params[key])
    if problem in ("lasso", "tv1d", "least_gradient"):  # tv2d's defaults take 65k iterations
        assert run(parse_config({"problem": problem}), tmp_path / "out") == 0


def test_schedule_fields_default_to_ratio_half_and_scale_one():
    def schedule(spec):
        return parse_config({"problem": "lasso", "solver": "asb_approx",
                             "params": {"schedule": spec, "allow_nonsummable": True}}).schedule
    assert (schedule(None) == schedule({"type": "geometric"})
            == schedule({"type": "geometric", "ratio": 0.5, "scale": 1.0}))
    assert schedule({"type": "harmonic"}) == schedule({"type": "harmonic", "scale": 1.0})


@pytest.mark.parametrize("spec,expected", [
    ({"type": "zero"}, ErrorSchedule("geometric", scale=0.0)),
    ({"type": "harmonic"}, ErrorSchedule("harmonic")),
], ids=["zero", "harmonic"])
def test_schedule_types_parse_to_their_error_schedules(spec, expected):
    payload = {"problem": "lasso", "solver": "asb_approx",
               "params": {"schedule": spec, "allow_nonsummable": True}}
    assert parse_config(payload).schedule == expected


def _readme_params_table():
    """{problem: set of keys} from the README's params table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("`params` keys and their defaults, per problem:", 1)[1]
    keys, current = {}, ()
    for line in section.splitlines()[3:]:
        if not line.startswith("|"):
            break
        who, key = (cell.strip() for cell in line.strip("|").split("|")[:2])
        if who:
            current = PROBLEMS if who == "every problem" else re.findall(r"`(\w+)`", who)
        for problem in current:
            keys.setdefault(problem, set()).update(re.findall(r"`(\w+)`", key.split("(")[0]))
    return keys


def test_readme_params_table_lists_the_accepted_keys():
    assert _readme_params_table() == {problem: set(table) for problem, table in _PARAMS.items()}


def _singular_custom_matrix(tmp_path):
    mpath = tmp_path / "singular.csv"
    mpath.write_text("1,0\n0,0\n")
    # g = 0 with a rank-deficient L: the u-step has no unique minimizer
    return {"problem": "custom_matrix",
            "params": {"matrix_csv": str(mpath), "g": {"label": "zero"}, "max_iter": 10}}


@pytest.mark.parametrize("code,payload", [
    (0, LASSO_Y3),
    (1, {"problem": "lasso", "params": {"y": [3.0], "tol": None, "max_iter": 3}}),
    (2, {"problem": "lasso", "params": {"lambda": -1}}),
    (3, _singular_custom_matrix),
], ids=["certified", "certificate_failed", "config_error", "solver_failure"])
def test_main_exit_status_contract(tmp_path, capsys, code, payload):
    if callable(payload):
        payload = payload(tmp_path)
    cfg = _write_config(tmp_path, payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    prefix = {2: "config error: ", 3: "run failed: "}.get(code)
    assert err.startswith(prefix) if prefix else err == ""


def _custom(csv="1,0\n0,1\n1,1\n", matrix_csv=None, **specs):
    """A custom_matrix payload reading ``csv`` from a file under the test's tmp_path.

    ``csv=None`` leaves the file missing; ``matrix_csv(tmp_path)``, when
    given, names another path instead.
    """
    def payload(tmp_path):
        path = tmp_path / "m.csv"
        if csv is not None:
            path.write_text(csv)
        src = str(path) if matrix_csv is None else matrix_csv(tmp_path)
        return {"problem": "custom_matrix", "params": {"matrix_csv": src, **specs}}
    return payload


@pytest.mark.parametrize("payload", [
    {"problem": "lasso", "params": {"max_iter": "abc"}},
    {"problem": "lasso", "params": {"lambda": "x"}},
    [{"problem": "lasso"}],
    {"problem": "custom_matrix", "params": {}},
    {"problem": "tv1d", "params": {"grid_shape": [1]}},
    {"problem": "tv1d", "params": {"grid_shape": [8, 8]}},
    {"problem": "tv2d", "params": {"grid_shape": "16x16"}},
    {"problem": "lasso", "params": {"max_iter": 2.5}},
    {"problem": "lasso", "params": {"tol": -1.0}},
    {"problem": "lasso", "params": {"y": []}},
    {"problem": "lasso", "params": "none"},
    {"problem": "least_gradient", "params": {"grid_shape": [8], "conductivity": "two_phase"}},
    {"problem": "least_gradient", "params": {"axis": 2}},
    {"problem": "custom_matrix", "params": {"matrix_csv": "m.csv", "g": {"label": ["zero"]}}},
    {"problem": "lasso", "solver": "asb_approx",
     "params": {"schedule": {"type": "geometric", "ratio": 1.5}}},
    {"problem": "lasso", "params": {"schedule": {"type": ["zero"]}}},
    {"problem": "lasso", "params": {"debug_drs_lambda": 2.0}},
    {"problem": "lasso", "params": {"max_iter": 0}},
    {"problem": "lasso", "params": {"n": 5, "y": [1.0, 2.0]}},
    _custom(csv=None),
    _custom(matrix_csv=lambda tmp_path: str(tmp_path)),  # a directory
    _custom(csv="a,b\nc,d\n"),
    _custom(f={"label": "weighted_l21"}),
    _custom(f={"label": "weighted_l21", "block_size": 0}),
    _custom(f={"label": "weighted_l21", "block_size": 2}),
    _custom(g={"label": "indicator_point"}),
    _custom(g={"label": "indicator_point", "anchor": [1.0, 2.0], "mask": [True]}),
    _custom(g={"label": "quadratic", "target": [1.0, 2.0, 3.0]}),
    _custom(g={"label": "quadratic", "scale": "x"}),
    _custom(f={"label": "l1", "weight": -1}),
    _custom(g={"label": "zero", "bogus": 1}),
    _custom(g={"label": "l1"}),
    _custom(g={"label": "weighted_l21", "block_size": 1}),
    _custom(csv=""),
    {"problem": "lasso", "solver": "asb_approx", "params": {"schedule": {"type": "harmonic"}}},
    {"problem": "lasso", "solver": "asb_approx",
     "params": {"schedule": {"type": "zero", "scale": 5.0, "ratio": 0.9}}},
    {"problem": "lasso", "solver": "asb_approx",
     "params": {"schedule": {"type": "harmonic", "ratio": 1.5}, "allow_nonsummable": True}},
    {"problem": "tv2d", "params": {"grid_shape": [6, 6], "spacing": [1.0]}},
    {"problem": "tv1d", "params": {"boundary": "periodic"}},
    {"problem": "least_gradient", "params": {"conductivity": "three_phase"}},
    _custom(g={"label": "indicator_point", "anchor": [1.0, 2.0], "mask": [1, 0]}),
    {"problem": "lasso", "params": {"max_iter": 10**400}},
    {"problem": "tv1d", "params": {"grid_shape": [10**400]}},
    _custom(csv="1,0\n0,nan\n1,1\n"),
    _custom(csv="1,0\n0,1\n-inf,1\n"),
], ids=["max_iter_str", "lambda_str", "top_level_list", "missing_matrix_csv", "grid_1_node",
        "tv1d_2d_grid", "grid_str", "max_iter_float", "tol_negative", "y_empty", "params_str",
        "two_phase_1d", "axis_out_of_range", "label_list", "ratio_out_of_range",
        "schedule_type_list", "debug_drs_lambda", "max_iter_0", "n_conflicts_with_y",
        "csv_missing", "csv_directory", "csv_non_numeric", "l21_no_block_size",
        "l21_block_size_0", "l21_blocks_misfit_rows", "indicator_no_anchor",
        "indicator_mask_length", "quadratic_target_length", "quadratic_scale_str",
        "l1_negative_weight", "zero_unknown_key", "g_l1_no_u_step",
        "g_l21_no_u_step", "csv_empty", "harmonic_schedule_not_allowed",
        "zero_schedule_with_scale_and_ratio",
        "harmonic_schedule_with_ratio", "spacing_per_axis_length", "boundary_unknown",
        "conductivity_unknown", "mask_not_boolean", "max_iter_beyond_float",
        "grid_shape_beyond_float", "csv_nan", "csv_inf"])
def test_main_rejects_malformed_config(tmp_path, capsys, payload):
    if callable(payload):
        payload = payload(tmp_path)
    cfg = _write_config(tmp_path, payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


@pytest.mark.parametrize("entry", ["nan", "inf"])
def test_a_non_finite_matrix_entry_is_named_in_the_config_error(tmp_path, capsys, entry):
    # the CSV parses, and load_matrix_csv refuses it before any operator is built
    cfg = _write_config(tmp_path, _custom(csv=f"1,0\n0,{entry}\n1,1\n")(tmp_path))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"config error: custom_matrix: non-finite entries in {tmp_path / 'm.csv'}\n")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 40) | st.just(10**400) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
_PARAM_KEYS = sorted(set().union(*_PARAMS.values()))


@settings(max_examples=300, deadline=None)
@given(problem=st.sampled_from(PROBLEMS),
       params=st.dictionaries(st.sampled_from(_PARAM_KEYS), _JSON, max_size=4),
       top=_JSON)
def test_parse_config_raises_only_config_errors(problem, params, top):
    # anything else would escape main() as a traceback with the wrong exit code
    for payload in ({"problem": problem, "params": params}, top):
        try:
            parse_config(payload)
        except ConfigError:
            pass


@settings(max_examples=200, deadline=None)
@given(ratio=st.floats(0.0, 1.0, exclude_max=True),
       scale=st.floats(0.0, allow_infinity=False) | st.integers(0, 10))
@example(ratio=0.99995, scale=1.0)
def test_every_geometric_schedule_in_range_parses_summable(ratio, scale):
    spec = {"type": "geometric", "ratio": ratio, "scale": scale}
    schedule = parse_config({"problem": "lasso", "solver": "asb_approx",
                             "params": {"schedule": spec}}).schedule
    assert schedule.summable
    assert schedule == ErrorSchedule("geometric", scale=scale, ratio=ratio)


_READS = {"geometric": {"ratio", "scale"}, "harmonic": {"scale"}, "zero": set()}


def _well_formed(spec) -> bool:
    """A known type, only keys that type reads, and finite nonnegative numbers
    (geometric ratio < 1)."""
    if not isinstance(spec, dict):
        return False
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in _READS:
        return False
    if not set(spec) <= {"type"} | _READS[kind]:
        return False
    ratio_high = 1.0 if kind == "geometric" else math.inf
    return all(not isinstance(v, bool) and isinstance(v, (int, float)) and 0.0 <= v < high
               for v, high in ((spec.get("ratio", 0.5), ratio_high),
                               (spec.get("scale", 1.0), math.inf)))


# arbitrary values for "schedule" come from test_parse_config_raises_only_config_errors;
# these specs are near-valid, so that both outcomes are drawn
_ODD = st.sampled_from([None, True, "0.5", [0.5], {}])
_SCHEDULE_SPECS = st.fixed_dictionaries(
    {"type": st.sampled_from(["geometric", "harmonic", "zero", "cubic", None])},
    optional={"ratio": st.floats(-0.5, 1.5) | st.integers(0, 1) | _ODD,
              "scale": st.floats(-0.5, 10.0) | st.floats() | st.integers(0, 3) | _ODD,
              "rate": _ODD})


@settings(max_examples=300, deadline=None)
@given(spec=_SCHEDULE_SPECS, allow=st.booleans())
@example(spec={"type": "geometric", "ratio": 0.99995}, allow=False)
@example(spec={"type": "harmonic", "scale": -1.0}, allow=True)
def test_schedule_specs_parse_or_raise_config_error(spec, allow):
    payload = {"problem": "lasso", "solver": "asb_approx",
               "params": {"schedule": spec, "allow_nonsummable": allow}}
    if spec is None:  # a null schedule means the default
        assert parse_config(payload).schedule == ErrorSchedule("geometric", ratio=0.5)
        return
    accepted = _well_formed(spec) and (spec["type"] != "harmonic" or allow)
    try:
        schedule = parse_config(payload).schedule
    except ConfigError:
        assert not accepted
    else:
        assert accepted
        assert schedule.summable == (spec["type"] != "harmonic")
