"""Spans and call counts recorded from outside the package.

Every span is taken around a call into a public ``splitbreg`` function
that ``splitbreg.cli`` makes: the names ``cli`` imports are swapped for
timing wrappers for the duration of one traced ``cli.run`` and restored
afterwards.  ``L``, ``f`` and ``g`` calls are counted by handing
``cli.run`` a problem whose operator and functionals are counting shims
(built with ``dataclasses.replace`` in the wrapped problem builders).
Counts land on the innermost open span, so ratios are measured where
the work happens.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter
from contextlib import contextmanager

# cli-module name -> span name.  The solvers are resolved per call, since
# the same function serves the main solve and the equivalence rerun.
_SPAN_NAMES = {
    "make_tv_instance": "applications.make_instance",
    "make_least_gradient_instance": "applications.make_instance",
    "build_tv_problem": "applications.build_problem",
    "build_least_gradient_problem": "applications.build_problem",
    "dual_resolvents": "asb.dual_resolvents",
    "taut_string_dirichlet": "oracles.taut_string",
    "taut_string_denoise": "oracles.taut_string",
    "tv_dual_solve": "oracles.tv_dual_solve",
    "interior_stationarity_defect": "oracles.interior_stationarity",
    "dual_certificate": "diagnostics.dual_certificate",
    "primal_recovery_check": "diagnostics.primal_recovery_check",
    "inclusion_defect": "diagnostics.inclusion_defect",
    "duality_gap": "diagnostics.duality_gap",
    "equivalence_report": "diagnostics.equivalence_report",
    "write_trace_csv": "cli.emit.write_trace_csv",
    "certificates_to_json": "cli.emit.certificates_to_json",
}
_SOLVERS = {"asb_iterate": "asb", "run_drs": "drs"}

# Spans whose call builds one u-step solver (a factorization on the
# direct path).
SOLVER_BUILD_SPANS = ("cli.main_solve", "cli.equiv.asb", "cli.equiv.drs",
                      "asb.dual_resolvents")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._clock0 = time.perf_counter()
        self.instance = None

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "instance": self.instance, "start": time.perf_counter() - self._clock0,
               "end": None, "counts": Counter(), "attrs": {}}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._clock0
            self._stack.pop()

    def count(self, what: str) -> None:
        if self._stack:
            self._stack[-1]["counts"][what] += 1

    def counted(self, what: str, fn):
        def shim(*args, **kwargs):
            self.count(what)
            return fn(*args, **kwargs)
        return shim

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def counting_problem(self, problem):
        """The same problem with counting shims around L, f and g."""
        L = dataclasses.replace(problem.L,
                                apply=self.counted("linops.apply", problem.L.apply),
                                adjoint_apply=self.counted("linops.adjoint",
                                                           problem.L.adjoint_apply))

        def shim(F):
            return dataclasses.replace(F, prox=self.counted("functionals.prox", F.prox),
                                       value=self.counted("functionals.value", F.value))

        return dataclasses.replace(problem, L=L, f=shim(problem.f), g=shim(problem.g))

    def _builder(self, span_name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(span_name):
                problem = fn(*args, **kwargs)
            return self.counting_problem(problem)
        return wrapper

    def _solver(self, kind: str, fn):
        def wrapper(problem, *args, **kwargs):
            # cli passes ``init`` only for the fixed-length equivalence rerun
            name = f"cli.equiv.{kind}" if "init" in kwargs else "cli.main_solve"
            with self.span(name) as rec:
                trace = fn(problem, *args, **kwargs)
            if name == "cli.main_solve":
                rec["attrs"]["iterations"] = trace.n_iter
                rec["attrs"]["snapshot_bytes"] = sum(
                    a.nbytes for it in trace.iterates
                    for a in (it.u, it.d, it.b, it.x, it.p) if a is not None)
            return trace
        return wrapper

    def _dual_solve(self, span_name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(span_name) as rec:
                result = fn(*args, **kwargs)
            rec["attrs"]["dual_iters"] = result.iterations
            return result
        return wrapper

    @contextmanager
    def patched(self, cli):
        """Swap cli's imported functions for traced ones; restore on exit."""
        originals = {}
        for name, span_name in _SPAN_NAMES.items():
            fn = originals[name] = getattr(cli, name)
            if name.startswith("build_"):
                wrapped = self._builder(span_name, fn)
            elif name == "tv_dual_solve":
                wrapped = self._dual_solve(span_name, fn)
            else:
                wrapped = self.timed(span_name, fn)
            setattr(cli, name, wrapped)
        for name, kind in _SOLVERS.items():
            originals[name] = getattr(cli, name)
            setattr(cli, name, self._solver(kind, originals[name]))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)

    @contextmanager
    def traced_run(self, cli, instance: str):
        """One traced ``cli.run``: patched names under a root span."""
        self.instance = instance
        with self.patched(cli), self.span("cli.run"):
            yield

    def self_times(self) -> dict:
        """Seconds per span name, each span less the time its children cover."""
        child_time = Counter()
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        totals = Counter()
        for rec in self.spans:
            totals[rec["name"]] += rec["end"] - rec["start"] - child_time[rec["id"]]
        return dict(totals)

    def dump(self, path) -> None:
        payload = {"spans": [dict(rec, counts=dict(rec["counts"])) for rec in self.spans],
                   "self_time_s": self.self_times()}
        with open(path, "w") as fh:
            json.dump(payload, fh)
