import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from splitbreg import kernels
from splitbreg.functionals import (FUNCTIONAL_LABELS, ErrorSchedule, dual_resolvent,
                                   functional_from_label,
                                   prox_indicator_point, prox_l1, prox_quadratic,
                                   prox_weighted_l21, zero_functional)


def _catalogue(dim=8):
    rng = np.random.default_rng(0)
    anchor = rng.standard_normal(dim)
    mask = np.zeros(dim, dtype=bool)
    mask[:3] = True
    return [
        prox_l1(1.0, dim=dim),
        prox_l1(np.abs(rng.standard_normal(dim)), dim=dim),
        prox_weighted_l21(np.abs(rng.standard_normal(dim // 2)) + 0.1, block_size=2),
        prox_quadratic(rng.standard_normal(dim), 0.7),
        prox_indicator_point(anchor, mask),
        prox_indicator_point(anchor),
    ]


def test_l1_examples():
    f = prox_l1(1.0, dim=1)
    assert np.array_equal(f.prox(np.array([2.0]), 1.0), [1.0])
    assert np.array_equal(f.prox(np.array([0.5]), 1.0), [0.0])
    assert np.array_equal(f.prox(np.array([-3.0]), 1.0), [-2.0])
    assert f.value(np.array([-3.0])) == 3.0
    x = np.array([0.8, 0.0, -0.2])
    assert np.array_equal(prox_l1(0.0, dim=3).prox(x, 1.0), x)  # zero weight: identity
    with pytest.raises(ValueError):
        prox_l1(-0.5, dim=2)
    with pytest.raises(ValueError):
        prox_l1(1.0)  # scalar weight needs an explicit dim
    with pytest.raises(ValueError, match="dim does not match the number of weights"):
        prox_l1([1.0, 2.0], dim=3)


def test_weighted_l21_examples():
    f = prox_weighted_l21(np.array([1.0]), block_size=2)
    out = f.prox(np.array([3.0, 4.0]), 1.0)
    assert np.allclose(out, [2.4, 3.2], atol=1e-15)
    assert np.array_equal(f.prox(np.zeros(2), 1.0), [0.0, 0.0])
    f0 = prox_weighted_l21(np.array([0.0]), block_size=2)
    y = np.array([0.3, -0.7])
    assert np.array_equal(f0.prox(y, 1.0), y)
    assert f.value(np.array([3.0, 4.0])) == 5.0
    with pytest.raises(ValueError):
        prox_weighted_l21(np.array([-1.0]), block_size=2)
    with pytest.raises(ValueError, match="block_size must be positive"):
        prox_weighted_l21(np.array([1.0]), block_size=0)


def test_quadratic_examples():
    z = np.array([1.0, -2.0])
    f = prox_quadratic(z, 1.0)
    for t in (0.1, 1.0, 10.0):
        assert np.allclose(f.prox(z, t), z)
    f0 = prox_quadratic(np.zeros(1), 1.0)
    assert np.array_equal(f0.prox(np.array([4.0]), 1.0), [2.0])
    x = np.array([0.3, 0.4])
    assert np.allclose(f.prox(x, 1e-8), x, atol=1e-6)
    with pytest.raises(ValueError):
        prox_quadratic(z, 0.0)


def test_indicator_examples():
    anchor = np.array([7.0, 0.0])
    full = prox_indicator_point(anchor)
    assert np.array_equal(full.prox(np.array([1.0, 2.0]), 0.5), anchor)
    assert full.value(anchor) == 0.0
    assert full.value(np.array([7.0, 0.1])) == np.inf

    none = prox_indicator_point(anchor, np.zeros(2, dtype=bool))
    x = np.array([1.0, 2.0])
    assert np.array_equal(none.prox(x, 1.0), x)

    mixed = prox_indicator_point(anchor, np.array([True, False]))
    assert np.array_equal(mixed.prox(np.array([1.0, 2.0]), 1.0), [7.0, 2.0])


def test_indicator_value_is_equality_on_the_pinned_coordinates():
    # value equality, not bit equality, on the pinned coordinates only;
    # +inf anywhere off the set, a nan there included
    mixed = prox_indicator_point(np.array([0.0, 5.0, -2.0, 1.0]),
                                 np.array([True, False, True, False]))
    assert mixed.value(np.array([-0.0, 9.0, -2.0, np.nan])) == 0.0
    assert mixed.value([0.0, 5.0, -2.0, 1.0]) == 0.0
    assert mixed.value(np.array([0.0, 5.0, np.nextafter(-2.0, 0.0), 1.0])) == np.inf
    assert mixed.value(np.array([np.nan, 5.0, -2.0, 1.0])) == np.inf
    assert prox_indicator_point(np.array([1.0, 2.0])).value(np.array([1.0, 2.5])) == np.inf
    assert prox_indicator_point(np.array([1.0]), np.array([False])).value(np.array([3.0])) == 0.0


def test_zero_functional():
    f = zero_functional(3)
    x = np.array([1.0, -2.0, 3.0])
    assert f.value(x) == 0.0
    assert np.array_equal(f.prox(x, 2.0), x)
    assert f.conjugate_value(np.zeros(3)) == 0.0
    assert f.conjugate_value(x) == np.inf


def test_dual_resolvent_examples():
    l1 = prox_l1(1.0, dim=1)
    assert np.array_equal(dual_resolvent(l1, np.array([2.0]), 1.0), [1.0])
    quad = prox_quadratic(np.zeros(1), 1.0)
    assert np.array_equal(dual_resolvent(quad, np.array([4.0]), 1.0), [2.0])
    with pytest.raises(ValueError):
        dual_resolvent(l1, np.array([1.0]), 0.0)


def test_dual_resolvent_against_conjugate_closed_forms():
    rng = np.random.default_rng(3)
    for lam in (0.1, 1.0, 10.0):
        w = np.abs(rng.standard_normal(6)) + 0.2
        l1 = prox_l1(w, dim=6)
        x = 3.0 * rng.standard_normal(6)
        # prox of lam * (l1 conjugate) is the projection onto the weight box
        assert np.allclose(dual_resolvent(l1, x, lam), np.clip(x, -w, w), atol=1e-12)

        wb = np.abs(rng.standard_normal(3)) + 0.2
        l21 = prox_weighted_l21(wb, block_size=2)
        x = 3.0 * rng.standard_normal(6)
        blocks = x.reshape(-1, 2)
        nrm = np.linalg.norm(blocks, axis=1)
        scale = np.minimum(1.0, wb / np.where(nrm > 0, nrm, 1.0))
        proj = (blocks * scale[:, None]).reshape(-1)
        assert np.allclose(dual_resolvent(l21, x, lam), proj, atol=1e-12)

        z = rng.standard_normal(6)
        rho = 0.7
        quad = prox_quadratic(z, rho)
        x = rng.standard_normal(6)
        assert np.allclose(dual_resolvent(quad, x, lam), (x - lam * z) / (1.0 + lam / rho),
                           atol=1e-12)

        anchor = rng.standard_normal(6)
        mask = np.array([True, True, False, False, True, False])
        ind = prox_indicator_point(anchor, mask)
        x = rng.standard_normal(6)
        expect = np.zeros(6)
        expect[mask] = x[mask] - lam * anchor[mask]
        assert np.allclose(dual_resolvent(ind, x, lam), expect, atol=1e-12)


def test_weighted_l21_dual_resolvent_scale_at_zero_weights_and_norms():
    # the per-block scale is w / ||x_b|| where the norm exceeds w, else 1,
    # bit for bit, and without a warning: blocks of zero weight and zero
    # norm, zero weight and a norm of ~1e-170 (its squares underflow),
    # zero norm alone, zero weight alone, norm at the weight, an infinite
    # and a nan norm
    w = np.array([0.0, 0.0, 2.0, 0.0, 1.5, 1.5, 0.5, 0.5, 2.0])
    x = np.array([0.0, -0.0, 1e-170, -2e-170, 0.0, 0.0, 3.0, -4.0, 0.9, 1.2,
                  3.0, -4.0, 1.5e308, 1.5e308, np.nan, 1.0, 0.3, 0.4])
    f = prox_weighted_l21(w, block_size=2)
    blocks = x.reshape(-1, 2)
    with np.errstate(all="ignore"):  # the reference divides 0 by 0 where it does not select
        nrm = kernels._block_norms(blocks)
        scale = np.divide(w, nrm, out=np.ones_like(nrm), where=nrm > w)
    expected = (blocks * scale[:, None]).reshape(-1)
    assert nrm[0] == 0.0 and nrm[1] > 0.0 and nrm[6] == np.inf and np.isnan(nrm[7])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dual_resolvent(f, x, 0.7)
    assert got.tobytes() == expected.tobytes()
    assert got[:2].tobytes() == np.array([0.0, -0.0]).tobytes()
    assert got[2:4].tobytes() == np.array([0.0, -0.0]).tobytes()  # onto the zero ball
    assert got[6:8].tobytes() == np.array([0.0, -0.0]).tobytes()
    assert np.allclose(got[10:14], [0.9, -1.2, 0.0, 0.0], rtol=1e-15, atol=0.0)


def test_weighted_l21_oracles_where_squares_underflow():
    # entries ~1e-170 square to 0: the norm must still be their norm
    f = prox_weighted_l21(np.array([1e-200]), block_size=1)
    x = np.array([1e-170])
    assert f.prox(x, 1.0)[0] == pytest.approx(1e-170, rel=1e-15, abs=0.0)
    # projected onto the ball's edge
    assert dual_resolvent(f, x, 1.0)[0] == pytest.approx(1e-200, rel=1e-15, abs=0.0)
    g = prox_weighted_l21(np.array([1.0, 2.0]), block_size=2)
    y = np.array([3e-170, 4e-170, 0.0, 0.0])
    assert g.value(y) == pytest.approx(5e-170, rel=1e-15, abs=0.0)
    assert np.allclose(g.prox(y, 1.0), 0.0, rtol=0, atol=0)  # inside the threshold
    # a dual point far inside the ball at any scale is feasible (the
    # feasibility slack hides this case from the conjugate either way)
    assert f.conjugate_value(x) == 0.0 and g.conjugate_value(y) == 0.0


def test_weighted_l21_oracles_where_squares_overflow():
    # entries ~1e200 square to inf: the norm must still be finite
    g = prox_weighted_l21(np.array([1.0]), block_size=2)
    x = np.array([3e200, 4e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.allclose(dual_resolvent(g, x, 1.0), [0.6, 0.8], rtol=1e-15, atol=0)
        assert g.value(x) == pytest.approx(5e200, rel=1e-15, abs=0.0)
        assert np.array_equal(g.prox(x, 1.0), x)  # a shrink by 1 of 5e200 rounds to nothing
        assert g.conjugate_value(x) == np.inf
        assert prox_weighted_l21(np.array([1e201]), block_size=2).conjugate_value(x) == 0.0


def test_weighted_l21_oracles_at_tiny_nonzero_norms_do_not_warn():
    # a block norm of 1e-310 is exact, so w / nrm overflows where it is not
    # used: the prox shrinks the block to 0 and the projection keeps it
    f = prox_weighted_l21(np.array([1.0, 2.0, 2.0]), block_size=2)
    x = np.array([1e-310, 0.0, 3e-310, -4e-310, 3.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shrunk = f.prox(x, 1.0)
        projected = dual_resolvent(f, x, 1.0)
    assert shrunk[:4].tobytes() == np.array([0.0, 0.0, 0.0, -0.0]).tobytes()
    assert np.allclose(shrunk[4:], [1.8, 2.4], rtol=1e-15, atol=0.0)
    assert projected[:4].tobytes() == x[:4].tobytes()
    assert np.allclose(projected[4:], [1.2, 1.6], rtol=1e-15, atol=0.0)


@settings(max_examples=300, deadline=None)
@given(x=arrays(float, st.integers(1, 20), elements=st.floats(allow_nan=False)))
def test_block_norms_of_single_entries_are_magnitudes(x):
    # sqrt(x * x) is |x| wherever the square neither under- nor overflows;
    # where it does, the row is rescaled to |x| too, so every row is |x|
    assert kernels._block_norms(x.reshape(-1, 1)).tobytes() == np.abs(x).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), block_size=st.integers(1, 3), n_blocks=st.integers(1, 12))
def test_block_norms_rescale_only_rows_that_under_or_overflow(data, block_size, n_blocks):
    # rows mixing magnitudes from 1e-320 to 1e300: every row whose sum of
    # squares stays normal keeps the plain column-by-column bits, and every
    # row gets its norm to a few ulps of the scaled reference
    magnitude = st.sampled_from([0.0, 1e-320, 1e-200, 1e-160, 1e-100, 1.0, 1e100, 1e160, 1e300])
    x = np.array([data.draw(magnitude) * data.draw(st.floats(-1.0, 1.0))
                  for _ in range(n_blocks * block_size)]).reshape(n_blocks, block_size)
    got = kernels._block_norms(x)
    with np.errstate(all="ignore"):
        sq = (x * x).sum(axis=1)
        plain = np.sqrt(sq)
        big = np.abs(x).max(axis=1)
        reference = big * np.linalg.norm(x / np.where(big > 0, big, 1.0)[:, None], axis=1)
    normal = (sq >= np.finfo(float).tiny) & (sq < np.inf)
    assert got[normal].tobytes() == plain[normal].tobytes()
    assert np.allclose(got, reference, rtol=4 * np.finfo(float).eps, atol=0)


_SCALE_MAGNITUDE = st.sampled_from([0.0, 1e-170, 3e-170, 1.0, 1e200, 3e200])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), block_size=st.integers(1, 4), n_blocks=st.integers(1, 12),
       lam=st.floats(1e-3, 1e3))
def test_weighted_l21_projection_scales_rows_as_the_broadcast_did(data, block_size, n_blocks,
                                                                  lam):
    # one strided multiply per block column gives blocks * scale[:, None]
    # bit for bit: zero weights, zero-norm blocks, and entries near 1e-170
    # (squares underflow) and 1e200 (squares overflow)
    entry = st.tuples(_SCALE_MAGNITUDE, st.floats(-1.0, 1.0)).map(lambda p: p[0] * p[1])
    blocks = np.array(data.draw(st.lists(entry, min_size=n_blocks * block_size,
                                         max_size=n_blocks * block_size)))
    blocks = blocks.reshape(n_blocks, block_size)
    blocks[data.draw(st.lists(st.booleans(), min_size=n_blocks, max_size=n_blocks))] = 0.0
    w = np.array(data.draw(st.lists(_SCALE_MAGNITUDE, min_size=n_blocks, max_size=n_blocks)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = w / kernels._block_norms(blocks)
    expected = (blocks * np.fmin(scale, 1.0)[:, None]).reshape(-1)
    got = dual_resolvent(prox_weighted_l21(w, block_size), blocks.reshape(-1), lam)
    assert np.array_equal(got, expected) and got.tobytes() == expected.tobytes()


def test_moreau_identity_across_catalogue():
    # x must recompose as prox_{lam F}(x) + lam * prox_{F*/lam}(x/lam),
    # the conjugate prox being reconstructed through dual_resolvent
    rng = np.random.default_rng(9)
    for F in _catalogue():
        for lam in (0.1, 1.0, 10.0):
            for _ in range(10):
                x = 3.0 * rng.standard_normal(F.dim)
                dual_part = lam * dual_resolvent(F, x / lam, 1.0 / lam)
                assert np.linalg.norm(F.prox(x, lam) + dual_part - x) <= 1e-10


@st.composite
def _projection_cases(draw):
    """An l1, weighted-l21 or zero functional, an input and a lam, from wide ranges.

    Nonzero weights lie in [1e-3, 1e3] and nonzero inputs in [1e-6, 1e6] in
    magnitude, so no square of a block entry underflows.
    """
    label = draw(st.sampled_from(["l1", "weighted_l21", "zero"]))
    n_blocks = draw(st.integers(1, 6))
    block_size = 1 if label != "weighted_l21" else draw(st.integers(1, 4))
    w = draw(arrays(float, n_blocks, elements=st.just(0.0) | st.floats(1e-3, 1e3)))
    F = {"l1": lambda: prox_l1(w),
         "weighted_l21": lambda: prox_weighted_l21(w, block_size),
         "zero": lambda: zero_functional(n_blocks)}[label]()
    magnitude = st.just(0.0) | st.floats(1e-6, 1e6)
    x = draw(arrays(float, F.dim, elements=st.builds(lambda m, s: s * m, magnitude,
                                                     st.sampled_from([-1.0, 1.0]))))
    return F, x, draw(st.floats(1e-3, 1e3))


@settings(max_examples=500, deadline=None)
@given(case=_projection_cases())
def test_dual_resolvent_projection_matches_the_moreau_form(case):
    # For l1, weighted_l21 and zero, F* is an indicator, and dual_resolvent
    # projects onto its set directly.  The Moreau form stays the reference:
    # over 200k random draws of weights, block sizes, lam and inputs (weights
    # and inputs spanning 1e-3..1e3 and 1e-6..1e6), the largest difference
    # was 1.44 eps (max|x| + max w); the bound is 4 eps (max|x| + max w).
    F, x, lam = case
    proj = dual_resolvent(F, x, lam)
    moreau = x - lam * F.prox(x / lam, 1.0 / lam)
    w = F.params.get("weights", np.zeros(1))
    bound = 4.0 * np.finfo(float).eps * (np.max(np.abs(x)) + np.max(w))
    assert np.max(np.abs(proj - moreau)) <= bound
    # and the projection lands in the set
    if F.label == "weighted_l21":
        nrm = np.linalg.norm(proj.reshape(-1, F.params["block_size"]), axis=1)
        assert np.all(nrm <= w * (1.0 + 4.0 * np.finfo(float).eps))
    else:
        assert np.all(np.abs(proj) <= (w if F.label == "l1" else 0.0))


def test_dual_resolvent_does_not_cancel_far_outside_the_box():
    # the Moreau form x - lam * prox(x / lam, 1 / lam) rounds to 0 here
    l1 = prox_l1(1.0, dim=2)
    assert np.array_equal(dual_resolvent(l1, np.array([1e300, -1e300]), 1.0), [1.0, -1.0])
    l21 = prox_weighted_l21(np.array([2.0]), block_size=2)
    assert np.allclose(dual_resolvent(l21, np.array([3e150, 4e150]), 1.0), [1.2, 1.6],
                       rtol=1e-15, atol=0)


def test_prox_is_firmly_nonexpansive():
    rng = np.random.default_rng(4)
    for F in _catalogue():
        for t in (0.5, 2.0):
            for _ in range(25):
                x = 2.0 * rng.standard_normal(F.dim)
                y = 2.0 * rng.standard_normal(F.dim)
                px, py = F.prox(x, t), F.prox(y, t)
                diff = px - py
                assert float(np.dot(diff, diff)) <= float(np.dot(diff, x - y)) + 1e-10
                assert np.linalg.norm(diff) <= np.linalg.norm(x - y) + 1e-10


_ENTRY = st.floats(-10.0, 10.0)
_WEIGHT = st.floats(0.0, 10.0)
_STEP = st.floats(0.1, 10.0)


@st.composite
def _functionals(draw):
    """A catalogue functional of random dimension and data, entries within +-10."""
    label = draw(st.sampled_from(sorted(FUNCTIONAL_LABELS)))
    if label == "weighted_l21":
        n_blocks = draw(st.integers(1, 4))
        return prox_weighted_l21(draw(arrays(float, n_blocks, elements=_WEIGHT)),
                                 block_size=draw(st.integers(1, 3)))
    dim = draw(st.integers(1, 8))
    if label == "l1":
        return prox_l1(draw(arrays(float, dim, elements=_WEIGHT)))
    if label == "quadratic":
        return prox_quadratic(draw(arrays(float, dim, elements=_ENTRY)), draw(_STEP))
    if label == "indicator_point":
        mask = draw(st.none() | arrays(bool, dim))
        return prox_indicator_point(draw(arrays(float, dim, elements=_ENTRY)), mask)
    return zero_functional(dim)


@settings(max_examples=300, deadline=None)
@given(F=_functionals(), data=st.data(), t=_STEP, lam=_STEP)
def test_moreau_and_firm_nonexpansiveness_properties(F, data, t, lam):
    # the two spot tests above, over random catalogue functionals
    x, y = (data.draw(arrays(float, F.dim, elements=_ENTRY)) for _ in range(2))
    dual_part = lam * dual_resolvent(F, x / lam, 1.0 / lam)
    assert np.linalg.norm(F.prox(x, lam) + dual_part - x) <= 1e-10
    diff = F.prox(x, t) - F.prox(y, t)
    assert float(np.dot(diff, diff)) <= float(np.dot(diff, x - y)) + 1e-10
    assert np.linalg.norm(diff) <= np.linalg.norm(x - y) + 1e-10


@settings(max_examples=200, deadline=None)
@given(data=st.data(), block_size=st.integers(1, 3), n_blocks=st.integers(1, 40),
       t=_STEP, seed=st.integers(0, 2**16))
def test_block_norms_match_the_linalg_norm_formula_bitwise(data, block_size, n_blocks, t,
                                                           seed):
    # the weighted-l2 value and block shrinkage sum each block's squares
    # column by column; for blocks of 1-3 entries that is the reduction
    # np.linalg.norm(axis=1) makes, so both agree with it bit for bit.
    # Drawn edge values plus seeded noise, so that the sums round.
    x = data.draw(arrays(float, n_blocks * block_size, elements=st.floats(-1e8, 1e8)))
    x = x + np.random.default_rng(seed).standard_normal(x.shape)
    w = data.draw(arrays(float, n_blocks, elements=_WEIGHT))
    nrm = np.linalg.norm(x.reshape(-1, block_size), axis=1)
    F = prox_weighted_l21(w, block_size)
    assert F.value(x) == float(np.sum(w * nrm))
    thresh = t * w
    scale = np.where(nrm > thresh, 1.0 - thresh / np.where(nrm > 0.0, nrm, 1.0), 0.0)
    expected = (x.reshape(-1, block_size) * scale[:, None]).reshape(-1)
    assert kernels.block_shrink(x, thresh, block_size).tobytes() == expected.tobytes()
    assert F.prox(x, t).tobytes() == expected.tobytes()


def test_prox_optimality_probes():
    rng = np.random.default_rng(8)
    for F in _catalogue():
        for _ in range(4):
            x = 2.0 * rng.standard_normal(F.dim)
            t = float(np.exp(rng.uniform(-1.5, 1.5)))
            p = F.prox(x, t)
            base = F.value(p) + np.dot(p - x, p - x) / (2.0 * t)
            for _ in range(25):
                z = p + rng.standard_normal(F.dim) * rng.uniform(0.01, 2.0)
                if F.label == "indicator_point":
                    z = F.prox(z, 1.0)  # probe feasible points too
                cand = F.value(z) + np.dot(z - x, z - x) / (2.0 * t)
                assert base <= cand + 1e-10


def test_error_schedule_validation():
    ErrorSchedule("geometric", ratio=0.5)
    ErrorSchedule("geometric", scale=0.0)
    ErrorSchedule("harmonic")  # non-summable, and the type says so: fine
    with pytest.raises(ValueError):
        ErrorSchedule("geometric", ratio=1.0)
    with pytest.raises(ValueError):
        ErrorSchedule("geometric", scale=-1.0, ratio=0.5)


@pytest.mark.parametrize("build", [
    lambda: ErrorSchedule("harmonic", scale=-1.0),
    lambda: ErrorSchedule("harmonic", scale=float("inf")),
    lambda: ErrorSchedule("geometric", ratio=float("nan")),
    lambda: ErrorSchedule("geometric", ratio=-0.5),
    lambda: ErrorSchedule("geometric", scale=float("nan"), ratio=0.5),
    lambda: ErrorSchedule("harmonic", ratio=1.5),
    lambda: ErrorSchedule("cubic"),
], ids=["harmonic_negative_scale", "harmonic_inf_scale", "ratio_nan", "ratio_negative",
        "scale_nan", "harmonic_ratio_1.5", "unknown_kind"])
def test_error_schedule_rejects_malformed_numbers(build):
    with pytest.raises(ValueError):
        build()


def test_schedule_summability_follows_from_the_kind():
    assert ErrorSchedule("geometric", ratio=0.5).summable
    assert ErrorSchedule("geometric", scale=3.0, ratio=0.0).summable
    # sum scale * ratio**k = scale * ratio / (1 - ratio) is finite for any ratio < 1
    assert ErrorSchedule("geometric", ratio=0.99995).summable
    assert ErrorSchedule("geometric", scale=0.0).summable
    assert not ErrorSchedule("harmonic").summable
    assert not ErrorSchedule("harmonic", scale=0.0).summable


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def test_schedule_magnitudes_match_the_closed_forms_bitwise():
    ks = range(1, 501)
    for ratio, scale in ((0.5, 1.0), (0.25, 1.0), (0.9, 0.1), (0.99995, 3.0), (0.0, 2.0),
                         (0.7, 0.0), (1.0 / 3.0, 1e-3)):
        schedule = ErrorSchedule("geometric", scale=scale, ratio=ratio)
        assert _bits([schedule.magnitude(k) for k in ks]) == _bits([scale * ratio**k for k in ks])
    for scale in (1.0, 0.01, 0.0, 7.5):
        schedule = ErrorSchedule("harmonic", scale=scale)
        assert _bits([schedule.magnitude(k) for k in ks]) == _bits([scale / k for k in ks])
    zero = ErrorSchedule("geometric", scale=0.0)
    assert _bits([zero.magnitude(k) for k in ks]) == _bits([0.0] * 500)


def test_functional_from_label():
    f = functional_from_label("l1", 4, {"weight": 2.0})
    assert f.label == "l1" and f.dim == 4
    f = functional_from_label("weighted_l21", 6, {"block_size": 2})
    assert f.dim == 6
    f = functional_from_label("quadratic", 3, {"target": [1.0, 2.0, 3.0]})
    assert f.label == "quadratic"
    f = functional_from_label("indicator_point", 2, {"anchor": [0.0, 1.0]})
    assert f.label == "indicator_point"
    assert functional_from_label("zero", 5, {}).label == "zero"
    with pytest.raises(ValueError, match="unknown functional label"):
        functional_from_label("huber", 3, {})


def test_l1_prox_keeps_its_bits_when_the_step_alternates():
    # the prox keeps the thresholds of its last step; a new step forms its own
    rng = np.random.default_rng(12)
    w = np.abs(rng.standard_normal(9))
    F = prox_l1(w)
    x = 3.0 * rng.standard_normal(9)
    t1, t2 = 0.7, 1.0 / 3.0
    steps = [t1, t2, t1, t1, float(np.float64(t2)), np.full(9, t1), np.full(9, t2)]
    for t in steps:
        assert F.prox(x, t).tobytes() == kernels.soft_threshold(x, t * w).tobytes()
    # the l1 dual resolvent clips to the box [-w, w] for every lam
    assert dual_resolvent(F, x, 0.2).tobytes() == np.minimum(np.maximum(x, -w), w).tobytes()
