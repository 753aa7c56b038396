"""End-to-end problem builders: TV denoising and weighted least gradient.

The least-gradient pipeline is a synthetic forward/inverse pair: the
forward model solves the discrete conductivity equation for a voltage
field, records the magnitude of the induced current density nodewise,
and the inverse problem reconstructs the voltage by minimizing the
current-weighted total variation subject to the exact boundary values.
All pieces share one discretization, so the forward-model identity
``|J| = sigma * ||grad u||`` holds by construction, not approximately.
The grid helpers (the boundary mask, the cell-origin weights, the
linear field and the two-phase inclusion) index each axis with a slice
or an outer-product factor, so one code path serves 1-D and 2-D grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .asb import SplitProblem
from .functionals import prox_indicator_point, prox_l1, prox_quadratic, prox_weighted_l21
from .kernels import _block_norms
from .linops import GridSpec, gradient_operator, interior_gradient_operator, spd_factor

__all__ = [
    "TvInstance",
    "LeastGradientInstance",
    "boundary_mask",
    "linear_field",
    "make_tv_instance",
    "build_tv_problem",
    "forward_model",
    "build_least_gradient_problem",
    "two_phase_conductivity",
    "make_least_gradient_instance",
]


def boundary_mask(grid: GridSpec) -> np.ndarray:
    """Boolean mask over row-major nodes, True on the grid boundary."""
    m = np.ones(grid.shape, dtype=bool)
    m[(slice(1, -1),) * grid.ndim] = False
    return m.reshape(-1)


def linear_field(grid: GridSpec, axis: int = 0) -> np.ndarray:
    """Nodal field varying linearly from 0 to 1 along one axis."""
    if not 0 <= axis < grid.ndim:
        raise ValueError(f"axis must name one of the {grid.ndim} grid axes, got {axis!r}")
    ramps = [np.linspace(0.0, 1.0, n) if ax == axis else np.ones(n)
             for ax, n in enumerate(grid.shape)]
    return reduce(np.multiply.outer, ramps).reshape(-1)


@dataclass(frozen=True, eq=False)
class TvInstance:
    grid: GridSpec
    noisy_signal: np.ndarray
    mu: float

    def __post_init__(self):
        if self.noisy_signal.shape[0] != self.grid.n_nodes:
            raise ValueError("signal length must match the grid")


def make_tv_instance(shape=(32,), mu: float = 0.15, seed: int = 42,
                     noise_sigma: Optional[float] = None, spacing=1.0) -> TvInstance:
    """Seeded piecewise-constant signal plus Gaussian noise.

    ``noise_sigma`` defaults to 0.1 of the clean signal's amplitude.
    """
    grid = GridSpec(shape, spacing)
    rng = np.random.default_rng(seed)
    if grid.ndim == 1:
        n = grid.shape[0]
        n_jumps = max(1, n // 8)
        levels = rng.uniform(-1.0, 1.0, size=n_jumps + 1)
        cuts = np.sort(rng.choice(np.arange(1, n), size=n_jumps, replace=False))
        clean = np.empty(n)
        start = 0
        for seg, stop in enumerate(np.append(cuts, n)):
            clean[start:stop] = levels[seg]
            start = stop
    else:
        n1, n2 = grid.shape
        blocks1 = max(1, n1 // 8)
        blocks2 = max(1, n2 // 8)
        levels = rng.uniform(-1.0, 1.0, size=(blocks1, blocks2))
        clean = levels[
            np.minimum(np.arange(n1) * blocks1 // n1, blocks1 - 1)[:, None],
            np.minimum(np.arange(n2) * blocks2 // n2, blocks2 - 1)[None, :],
        ].reshape(-1)
    amplitude = float(np.max(clean) - np.min(clean)) or 1.0
    sigma = 0.1 * amplitude if noise_sigma is None else float(noise_sigma)
    noisy = clean + sigma * rng.standard_normal(clean.shape[0])
    return TvInstance(grid=grid, noisy_signal=noisy, mu=float(mu))


def build_tv_problem(inst: TvInstance, lam: float = 1.0,
                     boundary: str = "dirichlet") -> SplitProblem:
    """Quadratic fidelity plus mu-weighted (isotropic in 2-D) TV.

    ``boundary="dirichlet"`` uses the zero-ghost gradient (the signal is
    treated as pinned to zero past its ends); ``boundary="free"`` uses
    interior differences only, leaving constants unpenalized.
    """
    if boundary not in ("dirichlet", "free"):
        raise ValueError("boundary must be 'dirichlet' or 'free'")
    grid = inst.grid
    L = gradient_operator(grid) if boundary == "dirichlet" else interior_gradient_operator(grid)
    g = prox_quadratic(inst.noisy_signal, 1.0)
    if grid.ndim == 1:
        f = prox_l1(inst.mu, dim=L.codomain_dim)
    else:
        n_blocks = L.codomain_dim // 2
        f = prox_weighted_l21(np.full(n_blocks, inst.mu), block_size=2)
    return SplitProblem(g=g, f=f, L=L, lam=lam)


@dataclass(frozen=True, eq=False)
class LeastGradientInstance:
    """Synthetic current-density imaging instance.

    ``j_magnitude`` lives on the gradient blocks (cell-origin nodes) and
    equals ``sigma * ||grad u_true||`` there by construction;
    ``boundary_data`` is ``u_true`` restricted to the boundary nodes in
    row-major order.
    """

    grid: GridSpec
    conductivity: np.ndarray
    boundary_data: np.ndarray
    j_magnitude: np.ndarray
    u_true: np.ndarray


def _block_weights(grid: GridSpec, sigma: np.ndarray) -> np.ndarray:
    """Conductivity sampled at the cell-origin node of each gradient block."""
    return sigma.reshape(grid.shape)[(slice(-1),) * grid.ndim].reshape(-1)


def forward_model(grid: GridSpec, conductivity, boundary_data) -> LeastGradientInstance:
    """Solve the discrete conductivity equation and record |J| nodewise.

    Minimizes the sigma-weighted Dirichlet energy of the interior
    gradient subject to the given boundary values (one sparse SPD solve
    on the free nodes, assembled from the operator's CSR matrix), then
    sets ``|J| = sigma ||grad u_true||`` per block.
    """
    sigma = np.asarray(conductivity, dtype=float)
    if sigma.shape[0] != grid.n_nodes:
        raise ValueError("conductivity must be given per node")
    if np.any(sigma <= 0):
        raise ValueError("conductivity must be positive everywhere")
    mask = boundary_mask(grid)
    boundary_data = np.asarray(boundary_data, dtype=float)
    if boundary_data.shape[0] != int(mask.sum()):
        raise ValueError("boundary data must cover exactly the boundary nodes")

    L = interior_gradient_operator(grid)
    w_blocks = _block_weights(grid, sigma)
    free = ~mask
    anchor_ext = np.zeros(grid.n_nodes)
    anchor_ext[mask] = boundary_data

    # K = L^T W L with W the per-component conductivity; solve K_ff u_f = -K_fb u_b
    l_free = L.matrix[:, np.flatnonzero(free)]
    w_comp = sp.diags(np.repeat(w_blocks, grid.ndim))
    rhs = -(l_free.T @ (w_comp @ (L.matrix @ anchor_ext)))
    u_free = spd_factor(l_free.T @ w_comp @ l_free, what="conductivity system").solve(rhs)

    u_true = anchor_ext.copy()
    u_true[free] = u_free
    grads = L.apply(u_true).reshape(-1, grid.ndim)
    j_mag = w_blocks * _block_norms(grads)
    return LeastGradientInstance(grid=grid, conductivity=sigma,
                                 boundary_data=boundary_data,
                                 j_magnitude=j_mag, u_true=u_true)


def build_least_gradient_problem(inst: LeastGradientInstance, lam: float = 1.0) -> SplitProblem:
    """Current-weighted TV minimization with the boundary pinned exactly."""
    grid = inst.grid
    mask = boundary_mask(grid)
    anchor = np.zeros(grid.n_nodes)
    anchor[mask] = inst.boundary_data
    g = prox_indicator_point(anchor, mask)
    f = prox_weighted_l21(inst.j_magnitude, block_size=grid.ndim)
    L = interior_gradient_operator(grid)
    return SplitProblem(g=g, f=f, L=L, lam=lam)


def two_phase_conductivity(grid: GridSpec, inclusion: float = 2.0) -> np.ndarray:
    """Unit background conductivity with a centred square inclusion."""
    if grid.ndim != 2:
        raise ValueError("two-phase instances are 2-D")
    sigma = np.ones(grid.shape)
    sigma[tuple(slice(n // 4, n - n // 4) for n in grid.shape)] = float(inclusion)
    return sigma.reshape(-1)


def make_least_gradient_instance(shape=(16, 16), kind: str = "linear",
                                 spacing=1.0, inclusion: float = 2.0,
                                 axis: int = 0) -> LeastGradientInstance:
    """Convenience builder for the shipped least-gradient experiments."""
    grid = GridSpec(shape, spacing)
    if kind == "linear":
        sigma = np.ones(grid.n_nodes)
    elif kind == "two_phase":
        sigma = two_phase_conductivity(grid, inclusion=inclusion)
    else:
        raise ValueError("kind must be 'linear' or 'two_phase'")
    field = linear_field(grid, axis=axis)
    mask = boundary_mask(grid)
    return forward_model(grid, sigma, field[mask])
