"""Hot numeric kernels: norms, shrinkage and the taut-string walk.

Every norm the package takes goes through this module: :func:`_norm`
for a whole vector, :func:`_block_norms` for the rows of a block
matrix.  Both give the bits of numpy's ``norm`` (of the vector, or
along the rows) where the sum of squares is finite, except that
:func:`_block_norms` also rescales a row whose sum underflows; where
the sum overflows, both rescale by the largest magnitude.

Soft thresholding and block shrinkage are vectorized numpy; block
shrinkage and the weighted-l21 dual resolvent scale each block by one
ball ratio, :func:`_ball_ratio`.  The taut-string walk is inherently
sequential and runs as a plain loop over Python floats.  All kernels
take and return C-contiguous float64 arrays.  The finite-difference
stencils are not kernels: they are sparse matrices assembled in
:mod:`splitbreg.linops`.
"""

import math

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


def _norm(v: np.ndarray) -> float:
    """``||v||`` of a 1-D float vector.

    It is finite for every finite v whose norm is below the float maximum.
    Where ``v.dot(v)`` is finite this is numpy's ``norm(v)`` bit for bit.
    Only where the sum of squares overflows to ``inf`` is the norm taken as
    ``m ||v/m||`` with ``m = max|v|``; an infinite entry still gives
    ``inf``, and a nan entry nan.
    """
    n = math.sqrt(v.dot(v))
    if n != math.inf:
        return n
    m = float(np.max(np.abs(v)))
    if m == math.inf:  # an infinite entry: the norm is inf
        return m
    w = v / m
    return m * math.sqrt(w.dot(w))


_TINY = np.finfo(float).tiny


def _squares(blocks):
    # Each row's squares summed column by column: the sum whose root
    # numpy's norm(blocks, axis=1) takes, bit for bit, for rows of up to 7
    # entries (numpy sums 8 or more pairwise), without its overhead.
    sq = blocks[:, 0] * blocks[:, 0]
    for j in range(1, blocks.shape[1]):
        sq += blocks[:, j] * blocks[:, j]
    return sq


def _scale_rows(blocks, scale):
    # blocks * scale[:, None], bit for bit, as one strided multiply per
    # column into one C-ordered output, flattened without a copy
    out = np.empty(blocks.shape)
    for j in range(blocks.shape[1]):
        np.multiply(blocks[:, j], scale, out=out[:, j])
    return out.reshape(-1)


def _block_norms(blocks):
    # Euclidean norm of each row, sqrt of _squares.  When a square under- or
    # overflows, the rows whose sum is below the smallest normal float or
    # infinite are summed again from their entries over their largest
    # magnitude; every other row keeps its bits.  An all-zero or infinite
    # row gives 0/0 or inf/inf there and keeps its plain norm, 0 or inf.
    try:
        with np.errstate(over="raise", under="raise"):
            return np.sqrt(_squares(blocks))
    except FloatingPointError:
        pass
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        sq = _squares(blocks)
        nrm = np.sqrt(sq)
        lost = (sq < _TINY) | (sq == np.inf)
        rows = blocks[lost]
        big = np.abs(rows).max(axis=1)
        unit = rows / big[:, None]
        rescaled = big * np.sqrt((unit * unit).sum(axis=1))
    nrm[lost] = np.where(np.isnan(rescaled), nrm[lost], rescaled)
    return nrm


def _ball_ratio(blocks, radius):
    # radius / nrm where nrm > radius, else 1: fmin caps the quotient at 1,
    # including the inf of a tiny nonzero norm, and takes 1 over the nan of
    # 0/0 (a zero-radius block of norm 0) or of a nan norm
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = radius / _block_norms(blocks)
    return np.fmin(ratio, 1.0, out=ratio)


def block_shrink(y, thresh, block_size):
    blocks = y.reshape(-1, block_size)
    ratio = _ball_ratio(blocks, thresh)
    return _scale_rows(blocks, np.subtract(1.0, ratio, out=ratio))


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
