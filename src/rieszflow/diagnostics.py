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
    LyapunovBox,
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


def _div_hat(grid: SpectralGrid, vhat: np.ndarray) -> np.ndarray:
    """:func:`half_divergence`, its terms i xi_i vhat_i added left to right into the first.

    The values are those of its ``sum`` apart from the sign of zeros.
    """
    out = np.multiply(grid.half_grad[0], vhat[0])
    for g, v in zip(grid.half_grad[1:], vhat[1:]):
        out += g * v
    return out


def _grad_frac_hat(grid: SpectralGrid, fhat: np.ndarray, sigma: float) -> np.ndarray:
    """:func:`half_grad_frac`, component i formed in place as (i xi_i |xi|^sigma) fhat."""
    power = _half_power(grid, sigma)
    out = np.empty((grid.dim,) + np.shape(fhat), dtype=complex)
    for g, o in zip(grid.half_grad, out):
        np.multiply(g, power, out=o)
        o *= fhat
    return out


def _z_hat(grid: SpectralGrid, a_hat: np.ndarray, u_hat: np.ndarray, params: RieszParams) -> np.ndarray:
    """Half spectrum of z = u + (kappa/lam) grad |nabla|^(2 s* - 2) a, formed in one array."""
    z = _grad_frac_hat(grid, a_hat, 2.0 * params.s_star - 2.0)
    np.multiply(params.kappa / params.lam, z, out=z)
    return np.add(u_hat, z, out=z)


def _scaled(c: float, x: np.ndarray) -> np.ndarray:
    """``c * x`` written over the fresh array ``x``."""
    return np.multiply(c, x, out=x)


def _rate(f2: np.ndarray, f0: np.ndarray, dt: float) -> np.ndarray:
    """The difference quotient (f2 - f0) / dt, in one array."""
    d = np.subtract(f2, f0)
    d /= dt
    return d


def _add_advection_hat(grid: SpectralGrid, u: np.ndarray, u_hat: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Add the half spectrum of (u . grad) u to ``out``, one component at a time.

    For component i the derivatives d_j u_i of every j take one inverse,
    which runs in place on their spectra; sum_j u_j d_j u_i is formed in
    the first of them, transformed and added to row i of ``out``.  The
    values added are those of the whole-tensor expression, grad_u[i, j] =
    d_j u_i in one inverse and ``rfft(sum(u[np.newaxis] * grad_u,
    axis=1))``, bit for bit.
    """
    spectra = np.empty_like(u_hat)
    grad = np.empty((grid.dim,) + grid.shape)
    row = spectra[0]
    for i in range(grid.dim):
        for g, spec in zip(grid.half_grad, spectra):
            np.multiply(g, u_hat[i], out=spec)
        grid.irfft(spectra, out=grad, work=spectra)
        np.multiply(u[0], grad[0], out=grad[0])
        for uj, dj in zip(u[1:], grad[1:]):
            grad[0] += np.multiply(uj, dj, out=dj)
        out[i] += grid._rfft(grad[0], out=row)
    return out


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
    norms = []

    def measured(term: np.ndarray) -> np.ndarray:
        norms.append(half_l2(grid, term))
        return term

    # the terms of the sum, added left to right into the first
    total = measured(grid.rfft(_rate(a2, a0, s2.t - s0.t)))
    a_hat = grid.rfft(a1)
    total += measured(beta * grid.half_xi_norm ** (2.0 * params.s_star) * a_hat)
    total += measured(_div_hat(grid, _z_hat(grid, a_hat, grid.rfft(u1), params)))
    del a_hat
    total += measured(_div_hat(grid, grid.rfft(a1 * u1)))
    scale = max(norms)
    if scale == 0.0:
        return 0.0
    return half_l2(grid, total) / scale


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
    # the terms of the sum, added left to right into the first; each input
    # spectrum is made when first needed and dropped after its last use
    residual = _z_hat(grid, grid.rfft(_rate(a2, a0, dt)), grid.rfft(_rate(u2, u0, dt)), params)
    a_hat, u_hat = grid.rfft(a1), grid.rfft(u1)
    z_hat = _z_hat(grid, a_hat, u_hat, params)
    denom = half_l2(grid, z_hat)
    residual += params.lam * z_hat
    residual += _scaled(beta, _grad_frac_hat(grid, _div_hat(grid, z_hat), sigma))
    del z_hat
    residual += _scaled(beta**2, _grad_frac_hat(grid, a_hat, 4.0 * params.s_star - 2.0))
    del a_hat
    residual += _scaled(beta, _grad_frac_hat(grid, _div_hat(grid, grid.rfft(a1 * u1)), sigma))
    _add_advection_hat(grid, u1, u_hat, residual)
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
    box = partition.lyapunov_box(j)
    return _lyapunov_kernel(partition, box, _workspace(partition).transform(a, u, box), c_tilde, params)


def _real_times(m: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``m * z`` for a real ``m`` and a contiguous complex ``z`` of m's shape or a stack of them, into ``out``.

    Multiplying the real and imaginary parts of each component of ``z`` by
    ``m`` gives the values of NumPy's complex product with ``m + 0j``, apart
    from the sign of zeros, and needs neither a buffer to cast ``m`` to
    complex nor one to broadcast it over the components.
    """
    for zc, oc in zip(z.reshape((-1,) + m.shape), out.reshape((-1,) + m.shape)):
        np.multiply(m, zc.real, out=oc.real)
        np.multiply(m, zc.imag, out=oc.imag)
    return out


def _take(buffer: np.ndarray, shape: tuple[int, ...], dtype=None) -> np.ndarray:
    """The contiguous array of ``shape`` at the start of ``buffer``, its bytes read as ``dtype`` if given."""
    flat = buffer.reshape(-1) if dtype is None else buffer.reshape(-1).view(dtype)
    return flat[:math.prod(shape)].reshape(shape)


@dataclass(frozen=True)
class _BoxViews:
    """A :class:`_LyapunovWorkspace`'s buffers as contiguous arrays on one box and lattice.

    ``a`` and ``u`` are the box arrays of a and u, ``low_a`` and ``lam_u``
    the two parts of ``spectra``, the stack that takes the one inverse, and
    ``scratch`` and ``real`` one complex and one float box array.  The
    placement follows the order in which :func:`_lyapunov_kernel` spends
    them: a_j and u_j are read for the last time before the inverse, so it
    writes its ``samples`` on the lattice into the box arrays, or, when it
    needs ``work`` there for the zero-filled coarse spectra, into the
    spent ``spectra``.
    """

    a: np.ndarray
    u: np.ndarray
    spectra: np.ndarray
    low_a: np.ndarray
    lam_u: np.ndarray
    scratch: np.ndarray
    real: np.ndarray
    samples: np.ndarray
    work: np.ndarray | None


class _LyapunovWorkspace:
    """The held buffers of :func:`_lyapunov_kernel`, sized for the whole half lattice.

    ``fields`` holds the box arrays of a and u, ``spectra`` the stacked
    spectra of the cubic term's one inverse: 1 + d half spectra each.
    ``scratch`` is one complex and ``real`` one float half spectrum.  Each
    box works on contiguous leading views of them (:meth:`on`, made once
    per box), so every shell of every state writes to the same pages:
    3.8 MiB at 2D 256².  A workspace serves one call at a time.
    """

    def __init__(self, grid: SpectralGrid):
        self.grid = grid
        half = grid.half_xi_norm.shape
        self.fields = np.empty((1 + grid.dim,) + half, dtype=complex)
        self.spectra = np.empty((1 + grid.dim,) + half, dtype=complex)
        self.scratch = np.empty(half, dtype=complex)
        self.real = np.empty(half)
        self._views: dict = {}

    def on(self, box: LyapunovBox) -> _BoxViews:
        """The views on ``box.kept`` and ``box.modes``, made on first use.

        In 2D on the whole half lattice the inverse runs in place on
        ``spectra``; on a smaller box it zero-fills the coarse spectra in the
        box arrays' buffer.  In 1D it needs no work array.
        """
        key = (box.kept, box.modes)
        if key not in self._views:
            grid, kept, modes = self.grid, box.kept, box.modes
            shape = grid._box_shape(kept)
            nf = len(self.fields)
            fields, spectra = _take(self.fields, (nf,) + shape), _take(self.spectra, (nf,) + shape)
            if grid.dim == 1:
                work, samples = None, _take(self.fields, (nf,) + modes, float)
            elif box.whole:
                work, samples = spectra, _take(self.fields, (nf,) + modes, float)
            else:
                work = _take(self.fields, (nf, modes[0], kept[-1] + 1))
                samples = _take(self.spectra, (nf,) + modes, float)
            self._views[key] = _BoxViews(a=fields[0], u=fields[1:], spectra=spectra, low_a=spectra[0],
                                         lam_u=spectra[1:], scratch=_take(self.scratch, shape),
                                         real=_take(self.real, shape), samples=samples, work=work)
        return self._views[key]

    def transform(self, a: np.ndarray, u: np.ndarray, box: LyapunovBox) -> _BoxViews:
        """The views on ``box``, with a and u transformed into their box arrays.

        On the whole half lattice the box arrays are the half spectra, which
        ``rfft`` writes straight into them; on a smaller box the last-axis
        transforms run into ``spectra`` (``SpectralGrid._box_rfft``).
        """
        v = self.on(box)
        for f, out, work in ((a, v.a, self.spectra[0]), (u, v.u, self.spectra[1:])):
            if box.whole:
                self.grid._rfft(f, out=out)
            else:
                self.grid._box_rfft(f, box.kept, out=out, work=work)
        return v

    def gather(self, a_hat: np.ndarray, u_hat: np.ndarray, box: LyapunovBox) -> _BoxViews:
        """The views on ``box``, with the box arrays gathered from the half spectra of a and u."""
        v = self.on(box)
        self.grid._box_gather(a_hat, box.kept, out=v.a)
        self.grid._box_gather(u_hat, box.kept, out=v.u)
        return v


def _workspace(partition: LPPartition) -> _LyapunovWorkspace:
    """The Lyapunov workspace held by ``partition``, made on first use."""
    held = partition._held
    if "lyapunov" not in held:
        held["lyapunov"] = _LyapunovWorkspace(partition.grid)
    return held["lyapunov"]


def _lyapunov_kernel(partition: LPPartition, box: LyapunovBox, v: _BoxViews, c_tilde: float,
                     params: RieszParams) -> tuple[float, float]:
    """Quadratic part and L_j^2 of shell j from the box arrays of a and u in ``v``.

    ``box`` is ``partition.lyapunov_box(j)`` and ``v`` its views of the
    partition's Lyapunov workspace; the box arrays are overwritten.  The
    quadratic and cross terms are Parseval sums over the box.  The cubic
    term samples S_(j-1) a and |nabla| u_j in one inverse onto the lattice
    of ``box.modes``, where their triple product does not alias.  Each
    operation takes the operands of the allocating expression it replaces
    in their order, so the values are that expression's bit for bit,
    apart from the sign of zeros.
    """
    if not (0 < c_tilde < 0.5):
        raise ValueError(f"c_tilde must lie in (0, 0.5), got {c_tilde}")
    grid = partition.grid
    # the stacked spectra of S_(j-1) a and |nabla| u_j, for the one inverse
    _real_times(box.low, v.a, out=v.low_a)
    a_j = _real_times(box.shell, v.a, out=v.a)
    u_j = _real_times(box.shell, v.u, out=v.u)
    lam_u = _real_times(box.xi_norm, u_j, out=v.lam_u)
    power = v.real
    np.copyto(power, box.xi_norm)
    power **= params.s_star  # NumPy's rules for xi_norm ** s_star
    lam_a = _real_times(power, a_j, out=v.scratch)
    quad = spectral_inner(grid, lam_a, lam_a) + spectral_inner(grid, lam_u, lam_u)
    div_u_j = np.multiply(box.grad[0], u_j[0], out=v.scratch)
    for g, c in zip(box.grad[1:], u_j[1:]):
        div_u_j += np.multiply(g, c, out=c)
    cross = -2.0 * c_tilde * spectral_inner(grid, a_j, div_u_j)
    fields = grid._box_irfft(v.spectra, box.kept, out=v.samples, work=v.work, modes=box.modes)
    squares = np.square(fields[1:], out=fields[1:]).reshape(grid.dim, -1)
    weight = math.prod(L / n for L, n in zip(grid.lengths, box.modes))
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
    All of it runs in the partition's Lyapunov workspace, so one partition
    must not serve two threads at once.
    """
    return _lyapunov_parts(grid, state, j, c_tilde, partition, params, j1)[1]


def lyapunov_blocks(grid: SpectralGrid, state: FieldState, c_tilde: float, partition: LPPartition,
                    params: RieszParams, j1: int = 0) -> dict:
    """{j: L_j^2} of :func:`lyapunov_block` for every shell j >= max(j1 - 1, j_min).

    a and u are transformed once each, onto the whole half lattice; each
    shell gathers its box from the two spectra into the partition's
    Lyapunov workspace, so its value equals ``lyapunov_block``'s bit for
    bit.
    """
    a, u = state_fields(grid, state)
    a_hat, u_hat = grid.rfft(a), grid.rfft(u)
    blocks = {}
    for j in range(max(j1 - 1, partition.j_min), partition.j_max + 1):
        box = partition.lyapunov_box(j)
        blocks[j] = _lyapunov_kernel(partition, box, _workspace(partition).gather(a_hat, u_hat, box),
                                     c_tilde, params)[1]
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
