"""Names the benchmark in ``perfbench/`` reaches into.

``perfbench/tracing.py`` swaps names that ``splitbreg.cli`` imports for
timing wrappers, and tells the main solve apart by the absence of an
``init`` keyword; ``perfbench/worker.py`` stamps ``kernels.NUMBA_ENABLED``
on every run.  A refactor that drops one of these breaks the traced
benchmark, so they are checked here.
"""

import importlib.util
from pathlib import Path

import pytest

from splitbreg import cli, kernels

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist_on_cli(tracing):
    names = [*tracing._SPAN_NAMES, *tracing._SOLVERS]
    assert [n for n in names if not callable(getattr(cli, n, None))] == []


def test_kernels_keep_the_numba_flag():
    assert kernels.NUMBA_ENABLED is False


@pytest.mark.parametrize("solver", ["asb", "drs"])
def test_traced_run_solves_once(tracing, tmp_path, capsys, solver):
    # one main solve and one solver build for the inclusion certificate;
    # the equivalence certificate comes from the main solve's twin
    config = cli.parse_config({"problem": "lasso", "solver": solver,
                               "params": {"y": [3.0, -0.5], "tol": 1e-12, "max_iter": 500}})
    tracer = tracing.Tracer()
    with tracer.traced_run(cli, "lasso"):
        assert cli.run(config, tmp_path / "out") == 0
    names = [rec["name"] for rec in tracer.spans]
    assert names.count("cli.main_solve") == 1
    assert not [n for n in names if n.startswith("cli.equiv.")]
    assert sum(n in tracing.SOLVER_BUILD_SPANS for n in names) == 2
    main = next(rec for rec in tracer.spans if rec["name"] == "cli.main_solve")
    # snapshots at k=0 and at the final iterate only
    assert main["attrs"]["snapshot_bytes"] == (4 + 5) * 2 * 8
