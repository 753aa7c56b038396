import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from splitbreg import kernels
from splitbreg.functionals import (FUNCTIONAL_LABELS, ErrorSchedule, dual_resolvent,
                                   functional_from_label,
                                   geometric_schedule, harmonic_schedule,
                                   prox_indicator_point, prox_l1, prox_quadratic,
                                   prox_weighted_l21, zero_functional, zero_schedule)


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
    geometric_schedule(0.5)
    zero_schedule()
    harmonic_schedule()  # non-summable, and the type says so: fine
    with pytest.raises(ValueError):
        geometric_schedule(1.0)
    with pytest.raises(ValueError):
        geometric_schedule(0.5, scale=-1.0)


@pytest.mark.parametrize("build", [
    lambda: harmonic_schedule(-1.0),
    lambda: harmonic_schedule(float("inf")),
    lambda: geometric_schedule(float("nan")),
    lambda: geometric_schedule(-0.5),
    lambda: geometric_schedule(0.5, scale=float("nan")),
    lambda: ErrorSchedule("harmonic", ratio=1.5),
    lambda: ErrorSchedule("cubic"),
], ids=["harmonic_negative_scale", "harmonic_inf_scale", "ratio_nan", "ratio_negative",
        "scale_nan", "harmonic_ratio_1.5", "unknown_kind"])
def test_error_schedule_rejects_malformed_numbers(build):
    with pytest.raises(ValueError):
        build()


def test_schedule_summability_follows_from_the_kind():
    assert geometric_schedule(0.5).summable and geometric_schedule(0.0, scale=3.0).summable
    # sum scale * ratio**k = scale * ratio / (1 - ratio) is finite for any ratio < 1
    assert geometric_schedule(0.99995).summable
    assert zero_schedule().summable
    assert not harmonic_schedule().summable and not harmonic_schedule(0.0).summable


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def test_schedule_magnitudes_match_the_closed_forms_bitwise():
    ks = range(1, 501)
    for ratio, scale in ((0.5, 1.0), (0.25, 1.0), (0.9, 0.1), (0.99995, 3.0), (0.0, 2.0),
                         (0.7, 0.0), (1.0 / 3.0, 1e-3)):
        schedule = geometric_schedule(ratio, scale)
        assert _bits([schedule.magnitude(k) for k in ks]) == _bits([scale * ratio**k for k in ks])
    for scale in (1.0, 0.01, 0.0, 7.5):
        schedule = harmonic_schedule(scale)
        assert _bits([schedule.magnitude(k) for k in ks]) == _bits([scale / k for k in ks])
    assert _bits([zero_schedule().magnitude(k) for k in ks]) == _bits([0.0] * 500)


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
