"""Convex functionals with value, prox, and closed-form conjugate oracles.

The solvers interact with a functional only through its prox (and,
via the Moreau identity, the resolvent of its conjugate's subgradient);
subgradient sets are never materialized.  Values may be ``+inf`` exactly
for indicator-type functionals: energy traces must distinguish
infeasible points from merely expensive ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import kernels
from .linops import as_vector

__all__ = [
    "ProxFunctional",
    "ErrorSchedule",
    "prox_l1",
    "prox_weighted_l21",
    "prox_quadratic",
    "prox_indicator_point",
    "zero_functional",
    "dual_resolvent",
    "functional_from_label",
    "FUNCTIONAL_LABELS",
]

# Feasibility tolerance for indicator-type conjugate values: a point this
# close to the domain counts as inside.  Converged dual iterates sit on the
# boundary up to roundoff; anything clearly outside still evaluates to +inf.
CONJUGATE_FEAS_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ProxFunctional:
    """Proper convex lsc functional with prox oracle.

    ``prox(x, t)`` returns ``argmin_z value(z) + ||z - x||^2 / (2 t)``.
    ``conjugate_value`` evaluates the Fenchel conjugate in closed form
    when available (None otherwise).  ``params`` carries the defining
    data (weights, target, anchor, ...) for consumers that need more
    than the oracles, e.g. the quadratic/indicator direct solvers.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    prox: Callable[[np.ndarray, float], np.ndarray]
    label: str
    conjugate_value: Optional[Callable[[np.ndarray], float]] = None
    params: dict = field(default_factory=dict)


def prox_l1(weights, dim: Optional[int] = None) -> ProxFunctional:
    """Weighted l1 norm; prox is componentwise soft thresholding."""
    if np.iterable(weights):
        w = as_vector(weights)
        if dim is not None and dim != w.shape[0]:
            raise ValueError("dim does not match the number of weights")
        dim = w.shape[0]
    else:
        if dim is None:
            raise ValueError("dim is required with a scalar weight")
        w = np.full(int(dim), float(weights))
    if np.any(w < 0):
        raise ValueError("l1 weights must be nonnegative")
    slack = CONJUGATE_FEAS_TOL * (1.0 + w)
    # the last float step t and its thresholds t * w: a solver passes one t
    # object on every call.  Floats are immutable, so the same object is the
    # same step, bit for bit; any other t (an array) is never kept
    scaled = (None, None)

    def value(x):
        return float((w * np.abs(x)).sum())

    def prox(x, t):
        nonlocal scaled
        t_last, thresh = scaled
        if t is not t_last:
            thresh = t * w
            scaled = (t, thresh) if isinstance(t, float) else (None, None)
        return kernels.soft_threshold(np.ascontiguousarray(x, dtype=float), thresh)

    def conjugate_value(y):
        # indicator of the weighted sup-norm box
        return 0.0 if np.all(np.abs(y) <= w + slack) else np.inf

    # f* is the indicator of the box [-w, w], whose bounds dual_resolvent reads
    return ProxFunctional(dim=dim, value=value, prox=prox, label="l1",
                          conjugate_value=conjugate_value, params={"weights": w, "box": (-w, w)})


def prox_weighted_l21(weights, block_size: int) -> ProxFunctional:
    """Sum of weighted per-block Euclidean norms; prox is block shrinkage."""
    w = as_vector(weights)
    if np.any(w < 0):
        raise ValueError("block weights must be nonnegative")
    block_size = int(block_size)
    if block_size < 1:
        raise ValueError("block_size must be positive")
    dim = w.shape[0] * block_size
    slack = CONJUGATE_FEAS_TOL * (1.0 + w)

    def value(x):
        nrm = kernels._block_norms(np.asarray(x, dtype=float).reshape(-1, block_size))
        return float((w * nrm).sum())

    def prox(x, t):
        return kernels.block_shrink(np.ascontiguousarray(x, dtype=float), t * w, block_size)

    def conjugate_value(y):
        # indicator of the product of per-block Euclidean balls
        nrm = kernels._block_norms(np.asarray(y, dtype=float).reshape(-1, block_size))
        return 0.0 if np.all(nrm <= w + slack) else np.inf

    return ProxFunctional(dim=dim, value=value, prox=prox, label="weighted_l21",
                          conjugate_value=conjugate_value,
                          params={"weights": w, "block_size": block_size})


def prox_quadratic(target, scale: float = 1.0) -> ProxFunctional:
    """``(scale/2) ||x - target||^2`` with its closed-form prox."""
    z = as_vector(target)
    scale = float(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")

    def value(x):
        d = np.asarray(x, dtype=float) - z
        return 0.5 * scale * float(np.dot(d, d))

    def prox(x, t):
        return (np.asarray(x, dtype=float) + (t * scale) * z) / (1.0 + t * scale)

    def conjugate_value(y):
        y = np.asarray(y, dtype=float)
        return float(np.dot(y, z)) + float(np.dot(y, y)) / (2.0 * scale)

    return ProxFunctional(dim=z.shape[0], value=value, prox=prox, label="quadratic",
                          conjugate_value=conjugate_value,
                          params={"target": z, "scale": scale})


def prox_indicator_point(anchor, mask=None) -> ProxFunctional:
    """Indicator of ``{x : x[mask] == anchor[mask]}``; prox is the projection.

    With ``mask=None`` every coordinate is constrained.  The value is 0
    only at bitwise equality on the constrained coordinates: the prox
    overwrites them with the anchor values, so feasibility of solver
    iterates holds exactly, not approximately.
    """
    a = as_vector(anchor)
    if mask is None:
        m = np.ones(a.shape[0], dtype=bool)
    else:
        m = np.asarray(mask, dtype=bool)
        if m.shape != a.shape:
            raise ValueError("mask must match the anchor shape")
    anchored = a[m]
    pinned = np.flatnonzero(m)

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.0 if (x[pinned] == anchored).all() else np.inf

    def prox(x, t):
        out = np.array(x, dtype=float, copy=True)
        out[m] = anchored
        return out

    def conjugate_value(y):
        # support function of the affine set: finite only when the free
        # coordinates of y vanish (within the feasibility tolerance)
        y = np.asarray(y, dtype=float)
        free = y[~m]
        if free.size and np.max(np.abs(free)) > CONJUGATE_FEAS_TOL * (1.0 + np.max(np.abs(y))):
            return np.inf
        return float(np.dot(y[m], anchored))

    return ProxFunctional(dim=a.shape[0], value=value, prox=prox, label="indicator_point",
                          conjugate_value=conjugate_value,
                          params={"anchor": a, "mask": m})


def dual_resolvent(F: ProxFunctional, x: np.ndarray, lam: float) -> np.ndarray:
    """Resolvent of ``lam * dF*`` at x.

    When ``F*`` is the indicator of a closed convex set, as for ``l1``
    (the weight box), ``weighted_l21`` (a product of balls, radius
    ``w_b`` per block) and ``zero`` (the origin), the resolvent is the
    projection onto that set for every ``lam``, computed directly: the
    Moreau form below cancels to 0 at ``|x| >> w``.  Any other F goes
    through the Moreau identity,
    ``(Id + lam dF*)^(-1)(x) = x - lam * F.prox(x / lam, 1 / lam)``, so
    the conjugate's prox never has to be implemented separately.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    x = np.asarray(x, dtype=float)
    if F.label == "l1":
        lower, upper = F.params["box"]
        return np.minimum(np.maximum(x, lower), upper)
    if F.label == "weighted_l21":
        blocks = x.reshape(-1, F.params["block_size"])
        return kernels._scale_rows(blocks, kernels._ball_ratio(blocks, F.params["weights"]))
    if F.label == "zero":
        return np.zeros_like(x)
    return x - lam * F.prox(x / lam, 1.0 / lam)


def zero_functional(dim: int) -> ProxFunctional:
    """The zero functional: value 0 everywhere, prox = identity.

    Its conjugate is the indicator of the origin, so a dual point is
    admissible only when the paired adjoint image vanishes.
    """
    dim = int(dim)

    def conjugate_value(y):
        y = np.asarray(y, dtype=float)
        return 0.0 if np.max(np.abs(y), initial=0.0) <= CONJUGATE_FEAS_TOL else np.inf

    return ProxFunctional(
        dim=dim,
        value=lambda x: 0.0,
        prox=lambda x, t: np.array(x, dtype=float, copy=True),
        label="zero",
        conjugate_value=conjugate_value,
    )


# catalogue label -> the parameter keys functional_from_label reads for it
FUNCTIONAL_LABELS = {"l1": ("weight",), "weighted_l21": ("block_size", "weights", "weight"),
                     "quadratic": ("target", "scale"), "indicator_point": ("anchor", "mask"),
                     "zero": ()}


def functional_from_label(label: str, dim: int, params: dict) -> ProxFunctional:
    """Build a catalogue functional from its label and parameter map."""
    if label == "zero":
        return zero_functional(dim)
    if label == "l1":
        return prox_l1(params.get("weight", 1.0), dim=dim)
    if label == "weighted_l21":
        block_size = int(params["block_size"])
        weights = params.get("weights")
        if weights is None:
            weights = np.full(dim // block_size, float(params.get("weight", 1.0)))
        return prox_weighted_l21(weights, block_size)
    if label == "quadratic":
        target = params.get("target", np.zeros(dim))
        return prox_quadratic(as_vector(target, dim=dim), float(params.get("scale", 1.0)))
    if label == "indicator_point":
        anchor = as_vector(params["anchor"], dim=dim)
        mask = params.get("mask")
        return prox_indicator_point(anchor, None if mask is None else np.asarray(mask, dtype=bool))
    raise ValueError(f"unknown functional label {label!r}; expected one of {sorted(FUNCTIONAL_LABELS)}")


@dataclass(frozen=True)
class ErrorSchedule:
    """Per-iteration perturbation magnitudes for the approximate solvers.

    ``magnitude(k)``, for k >= 1, bounds the image-space error of the
    first subproblem and the error of the second: ``scale * ratio**k``
    for a ``"geometric"`` schedule, ``scale / k`` for a ``"harmonic"``
    one.  Summability follows from the kind in closed form: geometric
    schedules (the zero schedule is one, at scale 0) are summable, the
    harmonic one is not.  Every kind needs a finite ``0 <= ratio < 1``
    and a finite ``scale >= 0``.
    """

    kind: str
    scale: float = 1.0
    ratio: float = 0.5

    def __post_init__(self):
        if self.kind not in ("geometric", "harmonic"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not (math.isfinite(self.ratio) and 0.0 <= self.ratio < 1.0):
            raise ValueError(f"schedule ratio must be finite and in [0, 1), got {self.ratio!r}")
        if not (math.isfinite(self.scale) and self.scale >= 0.0):
            raise ValueError(f"schedule scale must be finite and >= 0, got {self.scale!r}")

    @property
    def summable(self) -> bool:
        return self.kind == "geometric"

    def magnitude(self, k: int) -> float:
        if self.kind == "harmonic":
            return self.scale / k
        return self.scale * self.ratio**k

