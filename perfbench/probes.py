"""Per-layer probes timed around public ``splitbreg`` calls.

Each probe runs on a problem built from one of the workload's configs,
at that workload's array sizes, with inputs taken from a short real run
where the layer's cost depends on its input (the warm-started CG u-step
does).  Times are medians over repeats.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from splitbreg import (StoppingRule, asb_iterate, drs_iterate, dual_resolvents,
                       initial_state, kernels)

_REPEATS = 5


def per_call_us(fn, *args, min_batch_s: float = 0.02) -> float:
    """Median per-call time in microseconds over batches of calls."""
    fn(*args)
    t0 = time.perf_counter()
    fn(*args)
    one = max(time.perf_counter() - t0, 1e-7)
    number = max(1, int(min_batch_s / one))
    samples = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        for _ in range(number):
            fn(*args)
        samples.append((time.perf_counter() - t0) / number)
    return 1e6 * statistics.median(samples)


def _elapsed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def ustep_us(problem, n_inputs: int = 200) -> float:
    """One ``pair.JA(y, lam)`` solve, fed the JA inputs of a real DRS run.

    The inputs ``y_k = 2 p_k - x_k`` are the first ``n_inputs`` iterates of
    a run from zero (as many as the equivalence rerun makes), replayed in
    order through a fresh pair, so a warm-started u-step sees the
    sequence it sees in a real run.
    """
    lam = problem.lam
    run = drs_iterate(dual_resolvents(problem), np.zeros(problem.f.dim), lam=lam,
                      stop=StoppingRule(tol=None, max_iter=n_inputs))
    pair = dual_resolvents(problem)
    samples = []
    for state in run.states[:-1]:
        y = 2.0 * state.p - state.x
        t0 = time.perf_counter()
        pair.JA(y, lam)
        samples.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(samples)


def instrumentation(problem, n_iter: int) -> dict:
    """``asb_iterate`` at record_stride=1 against bare ``drs_iterate``.

    Both run ``n_iter`` iterations with tol=None from the same start.
    asb_iterate builds its u-step solver inside the call, so its cost at
    max_iter=0 is subtracted; drs_iterate gets a prebuilt pair.
    """
    lam = problem.lam
    init = initial_state(problem)
    x0, p0 = lam * (init.b + init.d), lam * init.b

    def asb(k):
        return _elapsed(asb_iterate, problem, init=init,
                        stop=StoppingRule(tol=None, max_iter=k), record_stride=1)

    asb_s, drs_s = [], []
    for _ in range(3):
        asb_s.append(asb(n_iter) - asb(0))
        pair = dual_resolvents(problem)
        drs_s.append(_elapsed(drs_iterate, pair, x0, p0, lam=lam,
                              stop=StoppingRule(tol=None, max_iter=n_iter)))
    asb_t, drs_t = statistics.median(asb_s), statistics.median(drs_s)
    return {"asb.instr_ratio": asb_t / drs_t, "drs.bare_iter_us": 1e6 * drs_t / n_iter}


def layer_calls(problem, seed: int) -> dict:
    """One L apply, one L adjoint and one prox of f on seeded random vectors."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(problem.L.domain_dim)
    v = rng.standard_normal(problem.L.codomain_dim)
    return {
        "linops.apply_us": per_call_us(problem.L.apply, u),
        "linops.adjoint_us": per_call_us(problem.L.adjoint_apply, v),
        "functionals.prox_us": per_call_us(problem.f.prox, v, 1.0 / problem.lam),
    }


def kernel_calls(problem, seed: int) -> dict:
    """The public kernels at the workload's sizes.

    Shrinkage runs on a vector of the codomain size of ``L`` (blocks of
    two for block shrinkage); the taut string runs on the odd reflection
    of a signal with one sample per unknown, as the 1-D oracle builds it.
    """
    rng = np.random.default_rng(seed)
    m = problem.L.codomain_dim - problem.L.codomain_dim % 2
    x = rng.standard_normal(m)
    thresh = np.abs(rng.standard_normal(m))
    y = rng.standard_normal(2 * problem.L.domain_dim + 1)
    r = np.concatenate([[0.0], np.cumsum(y)])
    lo, hi = r - 0.5, r + 0.5
    lo[0] = hi[0] = r[0]
    lo[-1] = hi[-1] = r[-1]
    return {
        "kernels.soft_threshold_us": per_call_us(kernels.soft_threshold, x, thresh),
        "kernels.block_shrink_us": per_call_us(kernels.block_shrink, x, thresh[: m // 2], 2),
        "kernels.taut_string_us": per_call_us(kernels.taut_string_slopes, lo, hi),
    }
