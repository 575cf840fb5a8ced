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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import (
    FieldState,
    RieszParams,
    SpectralGrid,
    _half_power,
    _power_grad,
    _real_times,
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
    Like :func:`z_equation_residual` it runs in the workspace held by the
    grid, so one grid must not serve two threads at once.
    """
    s0, s1, s2 = _centered_triplet(snapshots)
    (a0, _), (a1, u1), (a2, _) = (state_fields(grid, s) for s in (s0, s1, s2))
    _require_mean_zero(a1, _Z_SINGULAR)
    work = _workspace(grid)
    total, a_hat, term, z = work.slots[0], work.slots[1], work.slots[2], work.slots[3:3 + grid.dim]
    power, beta = work.real, params.kappa / params.lam
    real, pair = _take(a_hat, grid.shape, float), _take(z, (2,) + total.shape, float)
    # the terms of the sum, added left to right into the first
    grid._rfft(np.divide(np.subtract(a2, a0, out=real), s2.t - s0.t, out=real), out=total)
    norms = [half_l2(grid, total, out=power, work=pair)]
    grid._rfft(a1, out=a_hat)
    _real_times(np.multiply(beta, _half_power(grid, 2.0 * params.s_star, power), out=power), a_hat, out=term)
    norms.append(half_l2(grid, term, out=power, work=pair))
    total += term
    # div z, with z = u + beta grad |nabla|^(2 s* - 2) a
    np.multiply(beta, half_grad_frac(grid, a_hat, 2.0 * params.s_star - 2.0, out=z, work=power), out=z)
    for zi, ui in zip(z, u1):
        zi += grid._rfft(ui, out=term)
    norms.append(half_l2(grid, half_divergence(grid, z, out=term, work=a_hat), out=power, work=pair))
    total += term
    for zi, ui in zip(z, u1):  # div(a u), its spectra in the spent z
        grid._rfft(np.multiply(a1, ui, out=real), out=zi)
    norms.append(half_l2(grid, half_divergence(grid, z, out=term, work=a_hat), out=power, work=pair))
    total += term
    scale = max(norms)
    if scale == 0.0:
        return 0.0
    return half_l2(grid, total, out=power, work=pair) / scale


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
    d, work = grid.dim, _workspace(grid)
    residual, u_hat, z_hat = work.slots[:d], work.slots[d:2 * d], work.slots[2 * d:3 * d]
    a_hat, div, term, spare = work.slots[3 * d:]
    real, pair = _take(spare, grid.shape, float), _take(term, (2,) + a_hat.shape, float)
    beta, dt = params.kappa / params.lam, s2.t - s0.t
    # |xi|^(2 s* - 2), formed once for the four terms that take it
    power = _half_power(grid, 2.0 * params.s_star - 2.0, out=work.real)

    def add_grad_frac(c: float, fhat: np.ndarray, power: np.ndarray = power) -> None:
        """Add c grad |nabla|^sigma fhat to the sum, |xi|^sigma given, formed in the spent z_hat."""
        grad_frac = _power_grad(grid, power, fhat, out=z_hat)
        np.add(residual, np.multiply(c, grad_frac, out=grad_frac), out=residual)

    # the terms of the sum, added left to right into the first;
    # the first is dz/dt, with z = u + beta grad |nabla|^(2 s* - 2) a
    for i in range(d):
        grid._rfft(np.divide(np.subtract(u2[i], u0[i], out=real), dt, out=real), out=residual[i])
    add_grad_frac(beta, grid._rfft(np.divide(np.subtract(a2, a0, out=real), dt, out=real), out=a_hat))
    grid._rfft(a1, out=a_hat)
    grid._rfft(u1, out=u_hat)
    np.multiply(beta, _power_grad(grid, power, a_hat, out=z_hat), out=z_hat)
    z_hat += u_hat
    denom = half_l2(grid, z_hat, out=_take(div, power.shape, float), work=pair)
    if denom == 0.0:
        return 0.0
    half_divergence(grid, z_hat, out=div, work=term)
    residual += np.multiply(params.lam, z_hat, out=z_hat)
    add_grad_frac(beta, div)
    add_grad_frac(beta**2, a_hat, _half_power(grid, 4.0 * params.s_star - 2.0, out=pair[0]))
    for zi, ui in zip(z_hat, u1):  # div(a u), its spectra in the spent z_hat
        grid._rfft(np.multiply(a1, ui, out=real), out=zi)
    add_grad_frac(beta, half_divergence(grid, z_hat, out=div, work=term))
    # (u . grad) u: for component i the derivatives d_j u_i take one stacked inverse,
    # and sum_j u_j d_j u_i is formed in the first of them and transformed
    spectra, du = z_hat, _take(work.slots[3 * d:], (d,) + grid.shape, float)
    for r, u in zip(residual, u_hat):
        for g, spec in zip(grid.half_grad, spectra):
            np.multiply(g, u, out=spec)
        grid.irfft(spectra, out=du, work=spectra)
        np.multiply(u1[0], du[0], out=du[0])
        for uj, dj in zip(u1[1:], du[1:]):
            du[0] += np.multiply(uj, dj, out=dj)
        r += grid._rfft(du[0], out=spectra[0])
    return half_l2(grid, residual, out=work.real, work=pair) / denom


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
    return _energy_record(ShellNorms(partition, grid.rfft(a)), grid.rfft(u), a, u, state.t, params, p, j1)


def _energy_record(a_shells: ShellNorms, u_hat: np.ndarray, a: np.ndarray, u: np.ndarray, t: float,
                   params: RieszParams, p: float = 2.0, j1: int = 0) -> FunctionalRecord:
    """:func:`energy_functionals` of ``(a, u)`` at time ``t``, from a's shell norms and u's half spectra."""
    partition = a_shells.partition
    grid = partition.grid
    d = grid.dim
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


def _take(buffer: np.ndarray, shape: tuple[int, ...], dtype=None) -> np.ndarray:
    """The contiguous array of ``shape`` at the start of ``buffer``, its bytes read as ``dtype`` if given."""
    flat = buffer.reshape(-1) if dtype is None else buffer.reshape(-1).view(dtype)
    return flat[:math.prod(shape)].reshape(shape)


@dataclass(frozen=True)
class _ShellPlan:
    """Shell j of the Lyapunov functional laid out on the buffers of a :class:`_LyapunovWorkspace`.

    The box: ``kept`` is the box of the supports of phi_j and chi_(j-1)
    (``SpectralGrid._support_box``), ``modes`` the smallest alias-free
    lattice of a product S_(j-1) f g_j h_j of one low-passed and two
    shell-j fields (``SpectralGrid._product_modes``), and ``whole`` whether
    the box is the whole half lattice.

    The symbols: ``shell``, ``low``, ``xi_norm`` and ``grad`` are phi_j,
    chi_(j-1), |xi| and the i xi_i on the box, whole box arrays gathered
    from the half-lattice ones (``SpectralGrid._box_gather``); on a whole
    box they are the partition's and the grid's own arrays, which must not
    be written to.

    The views, contiguous leading parts of the workspace's buffers: ``a``
    and ``u`` are the box arrays of a and u, which :func:`_lyapunov`
    gathers into ``fields`` from the loaded ``hats`` (no shell transforms
    a or u), or, on a whole box, ``hats`` themselves.  ``a_j`` and ``u_j``
    in ``fields`` take the shell blocks, ``spectra`` the stack [S_(j-1) a,
    |nabla| u_j] of the one inverse; ``scratch`` and ``real`` are one
    complex and one float box array.  The placement follows the order in
    which :func:`_lyapunov_kernel` spends them: a_j and u_j are read for
    the last time before the inverse, so it writes its ``samples`` into
    ``fields``, or, when it needs ``work`` there for the zero-filled
    coarse spectra, into the spent ``spectra``.  On the whole half lattice
    the inverse runs in place on ``spectra``; in 1D it takes no ``work``.
    """

    kept: tuple[int, ...]
    modes: tuple[int, ...]
    whole: bool
    shell: np.ndarray
    low: np.ndarray
    xi_norm: np.ndarray
    grad: tuple[np.ndarray, ...]
    a: np.ndarray
    u: np.ndarray
    a_j: np.ndarray
    u_j: np.ndarray
    spectra: np.ndarray
    scratch: np.ndarray
    real: np.ndarray
    samples: np.ndarray
    work: np.ndarray


class _LyapunovWorkspace:
    """The held buffers of the Lyapunov functionals and the equation residuals, and each shell's plan.

    ``slots`` is one stack of 3 (1 + d) + 1 complex half spectra and
    ``real`` a float one: 5.3 MiB at 2D 256².  The Lyapunov path views
    ``hats`` (the loaded spectra of a and u), ``fields`` (their box arrays
    and shell blocks) and ``spectra`` (the stacked spectra of the cubic
    term's one inverse), 1 + d slots each, and ``scratch``, the last slot.
    Each shell's :class:`_ShellPlan`, made once, views them, so every shell
    of every state writes to the same pages.  The two equation residuals
    lay their terms out on the slots themselves, a real field or a pair of
    float half spectra in one slot, and take the symbols and the Parseval
    weights from the grid's own operators.  The grid holds the workspace (see
    ``SpectralGrid``), and a workspace serves one call at a time.
    """

    def __init__(self, grid: SpectralGrid):
        self.grid = grid
        n, half = 1 + grid.dim, grid.half_xi_norm.shape
        self.slots = np.empty((3 * n + 1,) + half, dtype=complex)
        self.hats, self.fields, self.spectra = self.slots[:n], self.slots[n:2 * n], self.slots[2 * n:3 * n]
        self.scratch = self.slots[-1]
        self.real = np.empty(half)
        self._plans: dict = {}

    def plan(self, partition: LPPartition, j: int) -> _ShellPlan:
        """Shell j's plan, made on first use from the masks of ``partition``, a partition on this grid."""
        if j not in self._plans:
            grid = self.grid
            shell_mask, low_mask = partition.half_shell(j), partition.half_low_pass(j - 1)
            shell, low = grid._support_box(shell_mask), grid._support_box(low_mask)
            kept = tuple(map(max, shell, low))
            modes = grid._product_modes(low, shell, shell)
            shape = grid._box_shape(kept)
            whole = shape == grid.half_xi_norm.shape

            def symbol(m: np.ndarray) -> np.ndarray:
                return m if whole else grid._box_gather(m, kept)

            nf = len(self.fields)
            fields, spectra = _take(self.fields, (nf,) + shape), _take(self.spectra, (nf,) + shape)
            boxes = self.hats if whole else fields
            if whole or grid.dim == 1:
                work, samples = spectra, _take(self.fields, (nf,) + modes, float)
            else:
                work = _take(self.fields, (nf, modes[0], kept[-1] + 1))
                samples = _take(self.spectra, (nf,) + modes, float)
            self._plans[j] = _ShellPlan(
                kept=kept, modes=modes, whole=whole, shell=symbol(shell_mask), low=symbol(low_mask),
                xi_norm=symbol(grid.half_xi_norm), grad=tuple(map(symbol, grid.half_grad)), a=boxes[0],
                u=boxes[1:], a_j=fields[0], u_j=fields[1:], spectra=spectra, scratch=_take(self.scratch, shape),
                real=_take(self.real, shape), samples=samples, work=work)
        return self._plans[j]


def _workspace(grid: SpectralGrid) -> _LyapunovWorkspace:
    """The workspace held by ``grid``, made on first use."""
    held = grid._held
    if "lyapunov" not in held:
        held["lyapunov"] = _LyapunovWorkspace(grid)
    return held["lyapunov"]


def _lyapunov_kernel(grid: SpectralGrid, plan: _ShellPlan, c_tilde: float,
                     params: RieszParams) -> tuple[float, float]:
    """Quadratic part and L_j^2 of shell j from the box arrays of a and u in ``plan``.

    ``plan`` is shell j's plan on ``grid`` (:meth:`_LyapunovWorkspace.plan`);
    its views are overwritten, except those of ``hats``.  The quadratic
    and cross terms are Parseval sums over the box.  The cubic term
    samples S_(j-1) a and |nabla| u_j in one inverse onto the lattice of
    ``plan.modes``, where their triple product does not alias.  Each
    operation takes the operands of the allocating expression it replaces
    in their order, so the values are that expression's bit for bit,
    apart from the sign of zeros.
    """
    # the stacked spectra of S_(j-1) a and |nabla| u_j, for the one inverse
    _real_times(plan.low, plan.a, out=plan.spectra[0])
    a_j = _real_times(plan.shell, plan.a, out=plan.a_j)
    u_j = _real_times(plan.shell, plan.u, out=plan.u_j)
    lam_u = _real_times(plan.xi_norm, u_j, out=plan.spectra[1:])
    power = plan.real
    np.copyto(power, plan.xi_norm)
    power **= params.s_star  # NumPy's rules for xi_norm ** s_star
    lam_a = _real_times(power, a_j, out=plan.scratch)
    quad = spectral_inner(grid, lam_a, lam_a) + spectral_inner(grid, lam_u, lam_u)
    div_u_j = np.multiply(plan.grad[0], u_j[0], out=plan.scratch)
    for g, c in zip(plan.grad[1:], u_j[1:]):
        div_u_j += np.multiply(g, c, out=c)
    cross = -2.0 * c_tilde * spectral_inner(grid, a_j, div_u_j)
    fields = grid._box_irfft(plan.spectra, plan.kept, out=plan.samples, work=plan.work, modes=plan.modes)
    squares = np.square(fields[1:], out=fields[1:]).reshape(grid.dim, -1)
    weight = math.prod(L / n for L, n in zip(grid.lengths, plan.modes))
    cubic = weight * float(np.sum(squares @ fields[0].ravel()))
    return quad, quad + cubic + cross


def _lyapunov(grid: SpectralGrid, state: FieldState, js, c_tilde: float, partition: LPPartition,
              params: RieszParams, j1: int) -> list:
    """[(quadratic part, L_j^2) for j in js]: the one path of every Lyapunov entry point.

    Everything is checked before a and u are loaded, once each, into the
    workspace's ``hats``; in 2D the first-axis pass runs on the K_d + 1
    columns of the union box of the shells only.  Each shell gathers its
    box from ``hats`` (a whole box reads them in place), so a value does
    not depend on which shells share a call.  The values are collected in
    a list, not yielded: a generator's frame would stay allocated through
    each kernel.
    """
    if not (0 < c_tilde < 0.5):
        raise ValueError(f"c_tilde must lie in (0, 0.5), got {c_tilde}")
    work = _workspace(partition.grid)
    g, ncols = work.grid, 0
    for j in js:
        if j < j1 - 1:
            raise ValueError(f"block Lyapunov functional requires j >= j1 - 1 = {j1 - 1}, got {j}")
        partition.check_j(j)
        ncols = max(ncols, work.plan(partition, j).kept[-1] + 1)
    if not ncols:
        raise ValueError(f"no shell j >= j1 - 1 = {j1 - 1}: the partition resolves j = "
                         f"{partition.j_min}..{partition.j_max}")
    a, u = state_fields(grid, state)
    g._rfft(a, ncols, out=work.hats[0])
    g._rfft(u, ncols, out=work.hats[1:])
    blocks = []
    for j in js:
        plan = work.plan(partition, j)
        if not plan.whole:
            g._box_gather(work.hats[0], plan.kept, out=plan.a)
            g._box_gather(work.hats[1:], plan.kept, out=plan.u)
        blocks.append(_lyapunov_kernel(g, plan, c_tilde, params))
    return blocks


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
    All of it runs in the workspace held by the partition's grid, so one
    grid must not serve two threads at once.
    """
    [(_, total)] = _lyapunov(grid, state, (j,), c_tilde, partition, params, j1)
    return total


def lyapunov_blocks(grid: SpectralGrid, state: FieldState, c_tilde: float, partition: LPPartition,
                    params: RieszParams, j1: int = 0) -> dict:
    """{j: L_j^2} of :func:`lyapunov_block` for every shell j >= max(j1 - 1, j_min).

    a and u are transformed once each, onto the union box of the shells,
    and every shell gathers its box from the two held spectra, so its value
    equals ``lyapunov_block``'s bit for bit.  A ``j1`` above j_max + 1 is refused.
    """
    js = range(max(j1 - 1, partition.j_min), partition.j_max + 1)
    return {j: total for j, (_, total) in zip(js, _lyapunov(grid, state, js, c_tilde, partition, params, j1))}


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
    [(quad, total)] = _lyapunov(grid, state, (j,), c_tilde, partition, params, j1)
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
