"""Names the benchmark in ``perfbench/`` reaches into.

``perfbench/tracing.py`` swaps names that ``splitbreg.cli`` imports for
timing wrappers, and tells the main solve apart by the absence of an
``init`` keyword; ``perfbench/worker.py`` stamps ``kernels.NUMBA_ENABLED``
on every run; ``perfbench/probes.py`` and ``perfbench/worker.py`` import
public names from the package, some inside functions.  A refactor that
drops one of these breaks the benchmark, so they are checked here.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import splitbreg
from splitbreg import cli, kernels

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_TRACING = _PERFBENCH / "tracing.py"


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
    # the equivalence certificate comes from the main solve's one-step checks
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


def _resolves(module: str, name: str) -> bool:
    """Whether ``from <module> import <name>`` finds an attribute or a submodule."""
    return (hasattr(importlib.import_module(module), name)
            or importlib.util.find_spec(f"{module}.{name}") is not None)


def test_perfbench_imports_resolve():
    # every ``from splitbreg... import`` in perfbench, function-local ones included
    imported = {(node.module, alias.name)
                for path in sorted(_PERFBENCH.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "splitbreg"
                for alias in node.names}
    assert ("splitbreg", "dual_resolvents") in imported  # the walk sees local imports
    assert [pair for pair in sorted(imported) if not _resolves(*pair)] == []


def test_every_public_name_resolves():
    modules = [splitbreg] + [importlib.import_module(f"splitbreg.{info.name}")
                             for info in pkgutil.iter_modules(splitbreg.__path__)]
    missing = [f"{m.__name__}.{name}" for m in modules for name in m.__all__
               if not hasattr(m, name)]
    assert missing == []
