"""Observables: effective velocity, equation residuals, hybrid energy
functionals, block Lyapunov functionals, and decay-rate fitting.

The effective velocity z = u + (kappa/lam) grad |nabla|^(2 s* - 2) a
mixes the damped velocity with the nonlocal force so that, to leading
order at low frequency, the density satisfies a fractional heat
equation driven by -div z and z itself is damped at rate lam.  The two
residual functions below measure how well a numerically computed
trajectory satisfies those reformulated equations, using a centered
difference in time across three consecutive snapshots.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import (
    FieldState,
    RieszParams,
    SpectralGrid,
    _require_mean_zero,
    half_divergence,
    half_grad_frac,
    half_l2,
    lp_norm,  # noqa: F401  (kept importable here; bench/spans.py wraps it)
    spectral_inner,
    state_fields,
)
from .littlewood_paley import (  # noqa: F401  (besov_norm, dyadic_block: as lp_norm above)
    BesovSpec,
    LPPartition,
    ShellNorms,
    besov_norm,
    dyadic_block,
)

__all__ = [
    "FunctionalRecord",
    "DecayFit",
    "effective_velocity",
    "density_equation_residual",
    "z_equation_residual",
    "energy_functionals",
    "lyapunov_block",
    "lyapunov_blocks",
    "lyapunov_equivalence",
    "fit_decay",
    "default_fit_window",
]

_Z_SINGULAR = "the effective velocity (|nabla|^(2 s* - 2) is singular at xi = 0)"


@dataclass(frozen=True)
class FunctionalRecord:
    """Hybrid energy functional and its dissipation counterpart at one time."""

    t: float
    energy: float
    dissipation: float
    components: dict


@dataclass(frozen=True)
class DecayFit:
    """Least-squares slope of log(norm) against log(1 + t)."""

    window: tuple
    slope: float
    predicted: float
    rel_err: float
    r_squared: float


def _z_hat(grid: SpectralGrid, a_hat: np.ndarray, u_hat: np.ndarray, params: RieszParams) -> np.ndarray:
    """Half spectrum of z = u + (kappa/lam) grad |nabla|^(2 s* - 2) a."""
    return u_hat + params.kappa / params.lam * half_grad_frac(grid, a_hat, 2.0 * params.s_star - 2.0)


def effective_velocity(grid: SpectralGrid, state: FieldState, params: RieszParams) -> np.ndarray:
    """z = u + (kappa/lam) grad |nabla|^(2 s* - 2) a (linear in the state)."""
    a, u = state_fields(grid, state)
    _require_mean_zero(a, _Z_SINGULAR)
    beta = params.kappa / params.lam
    return u + beta * grid.irfft(half_grad_frac(grid, grid.rfft(a), 2.0 * params.s_star - 2.0))


def _centered_triplet(snapshots) -> tuple[FieldState, FieldState, FieldState]:
    if len(snapshots) != 3:
        raise ValueError("need exactly three consecutive snapshots")
    s0, s1, s2 = snapshots
    if not (s0.t < s1.t < s2.t):
        raise ValueError("snapshot times must be strictly increasing")
    return s0, s1, s2


def density_equation_residual(
    grid: SpectralGrid, snapshots, params: RieszParams
) -> float:
    """Relative residual of the low-frequency density reformulation.

    Checks  da/dt + (kappa/lam) |nabla|^(2 s*) a + div z + div(a u) = 0
    at the middle snapshot, normalized by the largest constituent term.
    """
    s0, s1, s2 = _centered_triplet(snapshots)
    (a0, _), (a1, u1), (a2, _) = (state_fields(grid, s) for s in (s0, s1, s2))
    _require_mean_zero(a1, _Z_SINGULAR)
    beta = params.kappa / params.lam
    a_hat = grid.rfft(a1)
    terms = [
        grid.rfft((a2 - a0) / (s2.t - s0.t)),
        beta * grid.half_xi_norm ** (2.0 * params.s_star) * a_hat,
        half_divergence(grid, _z_hat(grid, a_hat, grid.rfft(u1), params)),
        half_divergence(grid, grid.rfft(a1 * u1)),
    ]
    scale = max(half_l2(grid, t) for t in terms)
    if scale == 0.0:
        return 0.0
    return half_l2(grid, sum(terms)) / scale


def z_equation_residual(grid: SpectralGrid, snapshots, params: RieszParams) -> float:
    """Relative residual of the damped effective-velocity equation.

    Checks  dz/dt + lam z + beta grad |nabla|^(2s*-2) div z
            + beta^2 grad |nabla|^(4s*-2) a
            + beta grad |nabla|^(2s*-2) div(a u) + u . grad u = 0
    with beta = kappa/lam, normalized by ||z|| at the middle snapshot.
    """
    s0, s1, s2 = _centered_triplet(snapshots)
    (a0, u0), (a1, u1), (a2, u2) = (state_fields(grid, s) for s in (s0, s1, s2))
    for a in (a0, a1, a2):
        _require_mean_zero(a, _Z_SINGULAR)
    beta = params.kappa / params.lam
    sigma = 2.0 * params.s_star - 2.0
    dt = s2.t - s0.t
    a_hat, u_hat = grid.rfft(a1), grid.rfft(u1)
    z_hat = _z_hat(grid, a_hat, u_hat, params)
    # (u . grad) u: grad_u[i, j] = d_j u_i in one inverse transform
    grad_u = grid.irfft(np.stack([g * u_hat for g in grid.half_grad], axis=1))
    advection = np.sum(u1[np.newaxis] * grad_u, axis=1)
    residual = (
        _z_hat(grid, grid.rfft((a2 - a0) / dt), grid.rfft((u2 - u0) / dt), params)
        + params.lam * z_hat
        + beta * half_grad_frac(grid, half_divergence(grid, z_hat), sigma)
        + beta**2 * half_grad_frac(grid, a_hat, 4.0 * params.s_star - 2.0)
        + beta * half_grad_frac(grid, half_divergence(grid, grid.rfft(a1 * u1)), sigma)
        + grid.rfft(advection)
    )
    denom = half_l2(grid, z_hat)
    if denom == 0.0:
        return 0.0
    return half_l2(grid, residual) / denom


def _admissible_p(dim: int, p: float) -> bool:
    if p < 2:
        return False
    if dim <= 4:
        return p <= 4
    return p <= 2.0 * dim / (dim - 2.0)


def energy_functionals(
    grid: SpectralGrid,
    state: FieldState,
    partition: LPPartition,
    params: RieszParams,
    p: float = 2.0,
    j1: int = 0,
) -> FunctionalRecord:
    """Hybrid energy functional and its instantaneous dissipation counterpart.

    The energy is the sum of four hybrid norms: low-frequency density at
    regularity d/p - 1 and velocity at d/p (both in the p-based scale),
    high-frequency density at d/2 + 1 and velocity at d/2 + 2 - s* (in
    the 2-based scale).  The dissipation counterpart shifts the
    low-frequency density index up by 2 s* and adds the full-range norm
    of da/dt = -div u - div(a u) at index d/p, evaluated spectrally.
    Each of a, u and a u is transformed once; shell norms are shared
    between the components that use them.
    """
    if not _admissible_p(grid.dim, p):
        warnings.warn(
            f"p={p} is outside the admissible range for d={grid.dim}; "
            "the functionals are still computed",
            stacklevel=2,
        )
    a, u = state_fields(grid, state)
    return _energy_record(ShellNorms(partition, grid.rfft(a)), a, u, state.t, params, p, j1)


def _energy_record(a_shells: ShellNorms, a: np.ndarray, u: np.ndarray, t: float, params: RieszParams,
                   p: float = 2.0, j1: int = 0) -> FunctionalRecord:
    """:func:`energy_functionals` of the state ``(a, u)`` at time ``t``, read from the shell norms of a."""
    partition = a_shells.partition
    grid = partition.grid
    d = grid.dim
    u_hat = grid.rfft(u)
    u_shells = ShellNorms(partition, u_hat)
    comp = {
        "a_low": a_shells.besov(BesovSpec(d / p - 1.0, p, 1, "low", j1)),
        "u_low": u_shells.besov(BesovSpec(d / p, p, 1, "low", j1)),
        "a_high": a_shells.besov(BesovSpec(d / 2.0 + 1.0, 2, 1, "high", j1)),
        "u_high": u_shells.besov(BesovSpec(d / 2.0 + 2.0 - params.s_star, 2, 1, "high", j1)),
    }
    energy = sum(comp.values())
    dadt_hat = -half_divergence(grid, u_hat + grid.rfft(a * u))
    dissipation = (
        a_shells.besov(BesovSpec(d / p - 1.0 + 2.0 * params.s_star, p, 1, "low", j1))
        + comp["u_low"]
        + comp["a_high"]
        + comp["u_high"]
        + ShellNorms(partition, dadt_hat).besov(BesovSpec(d / p, p, 1, "full", j1))
    )
    return FunctionalRecord(t=t, energy=energy, dissipation=dissipation, components=comp)


def _lyapunov_parts(
    grid: SpectralGrid,
    state: FieldState,
    j: int,
    c_tilde: float,
    partition: LPPartition,
    params: RieszParams,
    j1: int,
) -> tuple[float, float]:
    """Quadratic part and full value L_j^2 of the block Lyapunov functional."""
    if j < j1 - 1:
        raise ValueError(f"block Lyapunov functional requires j >= j1 - 1 = {j1 - 1}, got {j}")
    partition.check_j(j)
    a, u = state_fields(grid, state)
    kept, modes = _lyapunov_lattice(partition, j)
    return _lyapunov_kernel(partition, j, kept, modes, grid._box_rfft(a, kept), grid._box_rfft(u, kept),
                            c_tilde, params)


def _lyapunov_lattice(partition: LPPartition, j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The box of the supports of shell j and S_(j-1), and the alias-free lattice of the cubic term."""
    shell, low = partition.shell_box(j), partition.low_box(j - 1)
    return tuple(map(max, shell, low)), partition.grid._product_modes(low, shell, shell)


def _lyapunov_kernel(
    partition: LPPartition,
    j: int,
    kept: tuple[int, ...],
    modes: tuple[int, ...],
    a_box: np.ndarray,
    u_box: np.ndarray,
    c_tilde: float,
    params: RieszParams,
) -> tuple[float, float]:
    """Quadratic part and L_j^2 from the box arrays of a and u, on ``_lyapunov_lattice``'s box and lattice.

    The quadratic and cross terms are Parseval sums over the box.  The
    cubic term samples S_(j-1) a and |nabla| u_j in one inverse onto the
    lattice of ``modes``, where their triple product does not alias.
    ``a_box`` and ``u_box`` are overwritten.
    """
    if not (0 < c_tilde < 0.5):
        raise ValueError(f"c_tilde must lie in (0, 0.5), got {c_tilde}")
    grid = partition.grid

    def box(m: np.ndarray) -> np.ndarray:
        return grid._box_symbol(m, kept)

    m = box(partition.half_shell(j))
    k = box(grid.half_xi_norm)
    # the stacked spectra of S_(j-1) a and |nabla| u_j, for the one inverse
    spectra = np.empty((1 + grid.dim,) + a_box.shape, dtype=complex)
    np.multiply(box(partition.half_low_pass(j - 1)), a_box, out=spectra[0])
    a_j = np.multiply(m, a_box, out=a_box)
    u_j = np.multiply(m, u_box, out=u_box)
    lam_u = np.multiply(k, u_j, out=spectra[1:])
    lam_a = k**params.s_star * a_j
    quad = spectral_inner(grid, lam_a, lam_a) + spectral_inner(grid, lam_u, lam_u)
    div_u_j = sum(box(g) * c for g, c in zip(grid.half_grad, u_j))
    cross = -2.0 * c_tilde * spectral_inner(grid, a_j, div_u_j)
    # free the box arrays before the inverse allocates its workspace and samples
    del a_box, u_box, a_j, u_j, lam_a, div_u_j
    fields = grid._box_irfft(spectra, kept, modes=modes)
    squares = np.square(fields[1:], out=fields[1:]).reshape(grid.dim, -1)
    weight = float(np.prod([L / n for L, n in zip(grid.lengths, modes)]))
    cubic = weight * float(np.sum(squares @ fields[0].ravel()))
    return quad, quad + cubic + cross


def lyapunov_block(
    grid: SpectralGrid,
    state: FieldState,
    j: int,
    c_tilde: float,
    partition: LPPartition,
    params: RieszParams,
    j1: int = 0,
) -> float:
    """Block Lyapunov functional for a high-frequency shell j >= j1 - 1.

    L_j^2 = || |nabla|^s* a_j ||^2 + || |nabla| u_j ||^2
            + int S_(j-1) a * | |nabla| u_j |^2 dx
            - 2 c_tilde int a_j div u_j dx,

    where a_j, u_j are the shell-j blocks and S_(j-1) is the smooth
    projection onto shells strictly below j - 1.  Every term lives on the
    box of the supports of shell j and S_(j-1): a and u are transformed
    onto it once each, the quadratic and cross terms are Parseval sums
    over it, and the cubic term takes one stacked inverse transform onto
    the smallest alias-free lattice of its triple product (the grid's own
    once the box reaches a Nyquist index), so it is exact up to roundoff.
    """
    return _lyapunov_parts(grid, state, j, c_tilde, partition, params, j1)[1]


def lyapunov_blocks(grid: SpectralGrid, state: FieldState, c_tilde: float, partition: LPPartition,
                    params: RieszParams, j1: int = 0) -> dict:
    """{j: L_j^2} of :func:`lyapunov_block` for every shell j >= max(j1 - 1, j_min).

    a and u are transformed once each, onto the whole half lattice; each
    shell gathers its box from the two spectra, so its value equals
    ``lyapunov_block``'s bit for bit.
    """
    a, u = state_fields(grid, state)
    a_hat, u_hat = grid.rfft(a), grid.rfft(u)
    blocks = {}
    for j in range(max(j1 - 1, partition.j_min), partition.j_max + 1):
        kept, modes = _lyapunov_lattice(partition, j)
        blocks[j] = _lyapunov_kernel(partition, j, kept, modes, grid._box_gather(a_hat, kept),
                                     grid._box_gather(u_hat, kept), c_tilde, params)[1]
    return blocks


def lyapunov_equivalence(
    grid: SpectralGrid,
    state: FieldState,
    j: int,
    c_tilde: float,
    partition: LPPartition,
    params: RieszParams,
    j1: int = 0,
) -> float:
    """Ratio of L_j^2 to its quadratic part (1 for small data and small c_tilde)."""
    quad, total = _lyapunov_parts(grid, state, j, c_tilde, partition, params, j1)
    if quad == 0.0:
        return 1.0
    return total / quad


def default_fit_window(t_end: float) -> tuple[float, float]:
    return (max(1.0, t_end / 10.0), t_end)


def fit_decay(
    times,
    norms,
    predicted: float,
    window: tuple | None = None,
) -> DecayFit:
    """Fit log(norm) = slope * log(1 + t) + const over the window.

    Requires at least 8 strictly positive samples inside the window.
    ``rel_err`` compares the fitted slope against ``predicted`` (the
    absolute slope error when predicted == 0).
    """
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if times.shape != norms.shape or times.ndim != 1:
        raise ValueError("times and norms must be 1d arrays of equal length")
    if window is None:
        window = default_fit_window(float(times[-1]))
    lo, hi = float(window[0]), float(window[1])
    sel = (times >= lo) & (times <= hi)
    if int(np.sum(sel)) < 8:
        raise ValueError(f"need at least 8 samples in the window [{lo}, {hi}]")
    t_sel = times[sel]
    n_sel = norms[sel]
    if np.any(n_sel <= 0):
        raise ValueError("norm samples must be positive inside the fit window")
    x = np.log1p(t_sel)
    y = np.log(n_sel)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    rel = abs(slope - predicted) / abs(predicted) if predicted != 0 else abs(slope)
    return DecayFit(window=(lo, hi), slope=float(slope), predicted=float(predicted), rel_err=float(rel), r_squared=float(r2))
