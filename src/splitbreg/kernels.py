"""Hot numeric kernels: shrinkage and the taut-string walk.

Every kernel has two interchangeable implementations: a loop version
compiled with numba's ``@njit`` and a vectorized pure-numpy fallback.
The active path is chosen at import time; set the environment variable
``SPLITBREG_NUMBA=0`` to force the numpy fallback (the fallback is also
used automatically when numba is not importable).

All kernels take and return C-contiguous float64 arrays.  The
finite-difference stencils are not kernels: they are sparse matrices
assembled in :mod:`splitbreg.linops`.
"""

import os

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "soft_threshold",
    "block_shrink",
    "taut_string_slopes",
    "NUMPY_IMPLS",
    "LOOP_IMPLS",
]


def _numba_requested():
    flag = os.environ.get("SPLITBREG_NUMBA", "1").strip().lower()
    return flag not in ("0", "false", "off", "no")


# ---------------------------------------------------------------------------
# loop implementations (numba-compilable)
# ---------------------------------------------------------------------------

def _soft_threshold_loops(x, thresh):
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        a = abs(x[i]) - thresh[i]
        if a > 0.0:
            out[i] = a if x[i] > 0.0 else -a
        else:
            out[i] = 0.0
    return out


def _block_shrink_loops(y, thresh, block_size):
    n_blocks = y.shape[0] // block_size
    out = np.empty_like(y)
    for b in range(n_blocks):
        s = 0.0
        base = b * block_size
        for j in range(block_size):
            s += y[base + j] * y[base + j]
        nrm = np.sqrt(s)
        if nrm > thresh[b]:
            scale = 1.0 - thresh[b] / nrm
            for j in range(block_size):
                out[base + j] = y[base + j] * scale
        else:
            for j in range(block_size):
                out[base + j] = 0.0
    return out


def _taut_string_slopes_loops(lo, hi):
    # Shortest path through the tube lo <= g <= hi on the integer grid
    # 0..m, pinned at both ends (lo[0]==hi[0], lo[m]==hi[m]).  Returns the
    # per-interval slopes, i.e. the increments of the taut string.
    m = lo.shape[0] - 1
    slopes = np.empty(m)
    x0 = 0
    g0 = lo[0]
    while x0 < m:
        smin = -np.inf
        smax = np.inf
        tlo = -1
        thi = -1
        knot = -1
        knot_val = 0.0
        t = x0 + 1
        while t <= m:
            dx = float(t - x0)
            slo = (lo[t] - g0) / dx
            shi = (hi[t] - g0) / dx
            if slo > smin:
                smin = slo
                tlo = t
            if shi < smax:
                smax = shi
                thi = t
            if smin > smax:
                if tlo == t:
                    # lower bound at t unreachable under the cap: bend at
                    # the upper-bound contact (slope increases afterwards)
                    knot = thi
                    knot_val = hi[thi]
                else:
                    knot = tlo
                    knot_val = lo[tlo]
                break
            t += 1
        if knot < 0:
            # cone stayed open through the pinned endpoint: straight segment
            knot = m
            knot_val = lo[m]
        s = (knot_val - g0) / float(knot - x0)
        for i in range(x0, knot):
            slopes[i] = s
        x0 = knot
        g0 = knot_val
    return slopes


# ---------------------------------------------------------------------------
# numpy fallbacks
# ---------------------------------------------------------------------------

def _soft_threshold_numpy(x, thresh):
    return np.sign(x) * np.maximum(np.abs(x) - thresh, 0.0)


def _block_shrink_numpy(y, thresh, block_size):
    blocks = y.reshape(-1, block_size)
    sq = np.zeros(blocks.shape[0])
    for j in range(block_size):
        sq += blocks[:, j] * blocks[:, j]
    nrm = np.sqrt(sq)
    scale = np.where(nrm > thresh, 1.0 - thresh / np.where(nrm > 0.0, nrm, 1.0), 0.0)
    return (blocks * scale[:, None]).reshape(-1)


# ---------------------------------------------------------------------------
# path selection
# ---------------------------------------------------------------------------

LOOP_IMPLS = {
    "soft_threshold": _soft_threshold_loops,
    "block_shrink": _block_shrink_loops,
    "taut_string_slopes": _taut_string_slopes_loops,
}

NUMPY_IMPLS = {
    "soft_threshold": _soft_threshold_numpy,
    "block_shrink": _block_shrink_numpy,
    # the taut string walk is inherently sequential; the fallback runs the
    # same loop uncompiled
    "taut_string_slopes": _taut_string_slopes_loops,
}

NUMBA_ENABLED = _numba_requested()
if NUMBA_ENABLED:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - numba is a declared dependency
        NUMBA_ENABLED = False

if NUMBA_ENABLED:
    _ACTIVE = {name: njit(cache=True)(fn) for name, fn in LOOP_IMPLS.items()}
else:
    _ACTIVE = dict(NUMPY_IMPLS)

soft_threshold = _ACTIVE["soft_threshold"]
block_shrink = _ACTIVE["block_shrink"]
taut_string_slopes = _ACTIVE["taut_string_slopes"]
