import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import splitbreg.asb
import splitbreg.cli
from splitbreg.cli import (_COMMON_KEYS, _PROBLEM_KEYS, PROBLEMS, ConfigError, main,
                           parse_config, run)
from splitbreg.diagnostics import RunTrace
from splitbreg.functionals import ErrorSchedule, geometric_schedule


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


def test_trace_csv_setzer_column_is_nan_past_the_twin_window(tmp_path):
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
        alpha_injected=np.zeros(n), beta_injected=np.zeros(n), converged=False, n_iter=n)
    splitbreg.cli.write_trace_csv(tmp_path / "fast.csv", trace)
    _write_trace_csv_loop(tmp_path / "loop.csv", trace)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
    assert "nan" in (tmp_path / "fast.csv").read_text()


def test_exit_status_negative_fixture(tmp_path):
    payload = {"problem": "lasso", "solver": "asb",
               "params": {"y": [3.0], "mu": 1.0, "tol": None, "max_iter": 3}}
    code = run(parse_config(payload), tmp_path / "out")
    assert code == 1  # far from optimal: certificates must fail


def test_twin_catches_a_wrong_dual_resolvent(tmp_path, monkeypatch):
    # a slightly wrong dual resolvent on the DRS side only: the alternating
    # sweep never calls it, so the lockstep twin of a plain run must catch
    # the mismatch
    exact = splitbreg.asb.dual_resolvent
    monkeypatch.setattr(splitbreg.asb, "dual_resolvent",
                        lambda F, x, lam: exact(F, x, lam) + 1e-6)
    payload = {"problem": "lasso", "params": {"y": [3.0], "max_iter": 50}}
    assert run(parse_config(payload), tmp_path / "run") == 1
    equivalence = [c for c in _certs(tmp_path / "run") if c["kind"] == "equivalence"]
    assert len(equivalence) == 1 and not equivalence[0]["passed"]


def test_run_factors_the_u_step_once(tmp_path, monkeypatch):
    # the solver's factor also serves the inclusion certificate's resolvents
    factors = []
    exact = splitbreg.asb.spd_factor
    monkeypatch.setattr(splitbreg.asb, "spd_factor",
                        lambda system, what: factors.append(what) or exact(system, what))
    payload = {"problem": "tv1d", "params": {"grid_shape": [64], "seed": 1}}
    assert run(parse_config(payload), tmp_path / "run") == 0
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
                 "--max-iter", "4000", "--tol", "1e-12", "--seed", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "certificates=4/4" in out
    assert "seed5" in out  # --seed override reached the instance


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
    # equivalence is an exact-mode property; approx runs carry 3 certificates
    assert len(certs) == 3 and all(c["passed"] for c in certs)


@pytest.mark.parametrize("params", [{}, {"schedule": None},
                                    {"schedule": {"type": "geometric", "ratio": 0.25}}],
                         ids=["default", "null", "explicit"])
def test_approx_schedule_is_built_once(tmp_path, monkeypatch, params):
    # parse_config builds the schedule; run must reuse it, not build another
    builds = []
    build = splitbreg.cli.geometric_schedule
    monkeypatch.setattr(splitbreg.cli, "geometric_schedule",
                        lambda *a: builds.append(a) or build(*a))
    payload = {"problem": "lasso", "solver": "asb_approx",
               "params": {"y": [3.0], "tol": 1e-12, "max_iter": 5000, **params}}
    config = parse_config(payload)
    assert run(config, tmp_path / "out") == 0
    assert len(builds) == 1
    assert config.schedule.magnitude(1) == builds[0][0]


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
    assert "certificates=3/3" in capsys.readouterr().out
    energies = [float(row.split(",")[2])
                for row in (tmp_path / "out" / "trace.csv").read_text().splitlines()[1:]]
    assert energies and all(math.isfinite(e) for e in energies)


@pytest.mark.parametrize("solver", ["asb", "drs", "asb_approx"])
def test_overflowing_lasso_certifies_no_wrong_dual_point(tmp_path, solver):
    # at y = +-1e300 the sweep's final b is [0, 0], while the dual optimum is
    # [1, -1]; a Moreau-form dual resolvent cancelled to 0 there and passed it
    payload = {"problem": "lasso", "solver": solver,
               "params": {"y": [1e300, -1e300], "max_iter": 100}}
    cfg = _write_config(tmp_path, payload)
    with np.errstate(over="ignore"):
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    inclusion = [c for c in _certs(tmp_path / "out") if c["kind"] == "inclusion"]
    assert not inclusion[0]["passed"]


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


def test_least_gradient_via_cli(tmp_path):
    payload = {"problem": "least_gradient", "solver": "asb",
               "params": {"grid_shape": [8, 8], "tol": 1e-12, "max_iter": 20000}}
    code = run(parse_config(payload), tmp_path / "out")
    assert code == 0
    assert sum(c["passed"] for c in _certs(tmp_path / "out")) == 4


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
    {"problem": "lasso", "solver": "asb_approx",
     "params": {"schedule": {"type": "zero", "scale": 5.0, "ratio": 0.9}}},
    {"problem": "lasso", "solver": "asb_approx",
     "params": {"schedule": {"type": "harmonic", "ratio": 1.5}, "allow_nonsummable": True}},
], ids=["max_iter_str", "lambda_str", "top_level_list", "missing_matrix_csv", "grid_1_node",
        "tv1d_2d_grid", "grid_str", "max_iter_float", "tol_negative", "y_empty", "params_str",
        "two_phase_1d", "axis_out_of_range", "label_list", "ratio_out_of_range",
        "schedule_type_list", "debug_drs_lambda", "max_iter_0", "n_conflicts_with_y",
        "csv_missing", "csv_directory", "csv_non_numeric", "l21_no_block_size",
        "l21_block_size_0", "l21_blocks_misfit_rows", "indicator_no_anchor",
        "indicator_mask_length", "quadratic_target_length", "quadratic_scale_str",
        "l1_negative_weight", "zero_unknown_key", "g_l1_no_u_step",
        "g_l21_no_u_step", "csv_empty", "zero_schedule_with_scale_and_ratio",
        "harmonic_schedule_with_ratio"])
def test_main_rejects_malformed_config(tmp_path, capsys, payload):
    if callable(payload):
        payload = payload(tmp_path)
    cfg = _write_config(tmp_path, payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
_PARAM_KEYS = sorted(_COMMON_KEYS.union(*_PROBLEM_KEYS.values()))


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
    assert schedule == geometric_schedule(ratio, scale)


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
        assert parse_config(payload).schedule == geometric_schedule(0.5)
        return
    accepted = _well_formed(spec) and (spec["type"] != "harmonic" or allow)
    try:
        schedule = parse_config(payload).schedule
    except ConfigError:
        assert not accepted
    else:
        assert accepted
        assert schedule.summable == (spec["type"] != "harmonic")
