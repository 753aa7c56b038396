"""The CLI contract as a shell sees it: ``python -m splitbreg.cli`` in its own interpreter.

``test_cli.py`` checks the contract in-process, through ``main()``.  Only
a separate interpreter shows the status the process hands its caller,
a warning printed to stderr before the error line, and a ``trace.csv``
that does not depend on the interpreter's hash seed.  Each run starts
``sys.executable`` with ``PYTHONPATH`` at the package this suite
imported and ``-W default``, so a warning is printed whatever the
caller's filters; the run's working directory is the test's
``tmp_path``, where its config and CSV files are written.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitbreg

_SRC = str(Path(splitbreg.__file__).resolve().parents[1])

_CSVS = {
    "m.csv": "1,0\n0,1\n1,1\n",
    # a 6 x 7 bidiagonal difference matrix: its normal system is tridiagonal
    # without coming from the grid builder
    "bidiagonal.csv": "".join(",".join("-1" if j == i else "1" if j == i + 1 else "0"
                                       for j in range(7)) + "\n" for i in range(6)),
    "zero_g.csv": "1,2,0\n0,1,3\n1,0,1\n2,1,1\n",
}


def _cli(tmp_path, name, payload, **env):
    """Run one config through the CLI in a new interpreter; returns the finished process."""
    for csv, text in _CSVS.items():
        (tmp_path / csv).write_text(text)
    (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    return subprocess.run(
        [sys.executable, "-W", "default", "-m", "splitbreg.cli",
         "--config", f"{name}.json", "--out", name],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": _SRC, **env},
        capture_output=True, text=True, timeout=120)


def test_a_certified_run_exits_0_and_writes_its_three_files(tmp_path):
    proc = _cli(tmp_path, "lasso", {"problem": "lasso",
                                    "params": {"y": [3.0, -0.5], "tol": 1e-12, "max_iter": 5000}})
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "lasso"
    for name in ("trace.csv", "certificates.json", "summary.txt"):
        assert (out / name).stat().st_size > 0
    assert proc.stdout == (out / "summary.txt").read_text()
    assert " certificates=4/4 " in proc.stdout


def test_a_failed_certificate_exits_1(tmp_path):
    proc = _cli(tmp_path, "short", {"problem": "lasso",
                                    "params": {"y": [3.0], "tol": None, "max_iter": 3}})
    assert proc.returncode == 1, proc.stderr
    assert " certificates=" in proc.stdout and " certificates=4/4 " not in proc.stdout


def test_a_config_error_exits_2_with_no_traceback(tmp_path):
    proc = _cli(tmp_path, "missing", {"problem": "custom_matrix",
                                      "params": {"matrix_csv": "missing.csv"}})
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[0].startswith("config error: ")
    assert "Traceback" not in proc.stderr


def test_a_refused_normal_system_exits_3_without_a_warning(tmp_path):
    # 1/h^2 overflows to inf in the assembled u-step system, which is refused
    # before any factor is tried; a warning from the overflow would show here
    proc = _cli(tmp_path, "overflow", {"problem": "tv1d", "params": {"spacing": 1e-170}})
    assert proc.returncode == 3
    assert proc.stderr.splitlines()[-1] == (
        "run failed: u-step normal system has non-finite entries")
    assert "Warning" not in proc.stderr


# One config per code path whose trace must not depend on the hash seed: the
# seeded error injection of the approximate sweep; a 2-D, non-square
# least-gradient grid with a spacing per axis, whose system is a Kronecker
# sum (per-axis spectral factor), as Dirichlet tv2d's is; free tv2d (splu)
# with the tv2d dual-solve oracle; a tridiagonal custom system (dpttrf); and
# the u-step's edge cases, a point indicator that pins every coordinate (the
# empty system) and a zero g (nothing pinned, no curvature).
_STABLE = {
    "tv1d": {"problem": "tv1d", "solver": "asb", "params": {"grid_shape": [64], "seed": 3}},
    "tv1d_approx": {"problem": "tv1d", "solver": "asb_approx",
                    "params": {"grid_shape": [64], "seed": 3}},
    "lg": {"problem": "least_gradient", "solver": "drs",
           "params": {"grid_shape": [12, 9], "spacing": [0.5, 2.0], "conductivity": "two_phase",
                      "tol": None, "max_iter": 300}},
    "tv2d": {"problem": "tv2d", "params": {"grid_shape": [6, 6], "tol": 1e-11}},
    "tv2d_free": {"problem": "tv2d",
                  "params": {"grid_shape": [6, 7], "boundary": "free", "tol": 1e-11}},
    "custom": {"problem": "custom_matrix",
               "params": {"matrix_csv": "bidiagonal.csv",
                          "g": {"label": "quadratic",
                                "target": [1.0, 3.0, 2.0, 5.0, 4.0, 6.0, 2.5]},
                          "f": {"label": "l1", "weight": 0.5}, "tol": 1e-11}},
    "fully_pinned": {"problem": "custom_matrix", "solver": "drs",
                     "params": {"matrix_csv": "m.csv",
                                "g": {"label": "indicator_point", "anchor": [1.0, 2.0]},
                                "f": {"label": "l1", "weight": 0.5}, "max_iter": 50}},
    "zero_g": {"problem": "custom_matrix", "solver": "drs",
               "params": {"matrix_csv": "zero_g.csv", "g": {"label": "zero"},
                          "f": {"label": "quadratic", "target": [1.0, 2.0, -1.0, 0.5]},
                          "max_iter": 3000}},
}


@pytest.mark.parametrize("name", _STABLE)
def test_trace_csv_is_byte_stable_across_hash_seeds(tmp_path, name):
    # the same exit code, whatever it is, and the same trace.csv bytes
    runs = [_cli(tmp_path, f"{name}_{seed}", _STABLE[name], PYTHONHASHSEED=seed)
            for seed in ("1", "2")]
    assert runs[0].returncode == runs[1].returncode
    assert ((tmp_path / f"{name}_1" / "trace.csv").read_bytes()
            == (tmp_path / f"{name}_2" / "trace.csv").read_bytes())
