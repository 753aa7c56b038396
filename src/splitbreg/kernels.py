"""Hot numeric kernels: shrinkage and the taut-string walk.

Soft thresholding and block shrinkage are vectorized numpy; the
taut-string walk is inherently sequential and runs as a plain loop
over Python floats.  All kernels take and return C-contiguous float64
arrays.  The finite-difference stencils are not kernels: they are
sparse matrices assembled in :mod:`splitbreg.linops`.
"""

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "soft_threshold",
    "block_shrink",
    "taut_string_slopes",
]

# There is no compiled kernel path; the flag stays for environment stamps
# that record which path ran.
NUMBA_ENABLED = False


def soft_threshold(x, thresh):
    # sign(x) * max(|x| - thresh, 0) up to the sign of a zero result, in
    # three ufuncs
    return np.maximum(x - thresh, np.minimum(x + thresh, 0.0))


def _block_norms(blocks):
    # Euclidean norm of each row, its squares summed column by column: the
    # same bits as np.linalg.norm(blocks, axis=1) for rows of up to 7
    # entries (numpy sums 8 or more pairwise), without its overhead.
    sq = blocks[:, 0] * blocks[:, 0]
    for j in range(1, blocks.shape[1]):
        sq += blocks[:, j] * blocks[:, j]
    return np.sqrt(sq)


def block_shrink(y, thresh, block_size):
    blocks = y.reshape(-1, block_size)
    nrm = _block_norms(blocks)
    scale = np.where(nrm > thresh, 1.0 - thresh / np.where(nrm > 0.0, nrm, 1.0), 0.0)
    return (blocks * scale[:, None]).reshape(-1)


def taut_string_slopes(lo, hi):
    # Shortest path through the tube lo <= g <= hi on the integer grid
    # 0..m, pinned at both ends (lo[0]==hi[0], lo[m]==hi[m]).  Returns the
    # per-interval slopes, i.e. the increments of the taut string.
    m = lo.shape[0] - 1
    slopes = np.empty(m)
    lo, hi = lo.tolist(), hi.tolist()  # the walk reads one entry at a time
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
        slopes[x0:knot] = s
        x0 = knot
        g0 = knot_val
    return slopes
