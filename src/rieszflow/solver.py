"""Pseudospectral time integration of the damped interaction system.

The evolved fields are the density fluctuation ``a`` and velocity ``u``
on a periodic grid:

    da/dt = -div u - div(a u),
    du/dt = -lam u - kappa grad |nabla|^(2 s* - 2) a - u . grad u.

The linear part is advanced exactly: per mode, the density amplitude
and the compressible velocity scalar are propagated with the 2x2 matrix
exponential from :mod:`rieszflow.spectrum`, and the rotational part is
damped by exp(-lam dt).  On the Nyquist region (where the odd coupling
symbols cannot be represented and are dropped) the density mode is
frozen and the velocity purely damped; the zero mode of ``a`` is
therefore conserved exactly.  Nonlinear products are formed in physical
space and dealiased with the configured fraction rule.

Two integrators are available: the integrating-factor RK4 scheme of
Lawson (default) and a first-order exponential Euler cross-check.  The
exact propagator is a semigroup, E_h = E_{h/2} E_{h/2}, so an RK4 step
is written with the half-step propagator alone: four propagations by
h/2 and four nonlinear tendencies per step, and one propagator build
per segment of equal steps.  ``integrate`` reports the steps taken, the
step sizes and the propagator builds in ``Trajectory.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    FieldState,
    RieszParams,
    SpectralGrid,
    _negate_lattice,
    half_divergence,
    lp_norm,
    state_fields,
)
from .spectrum import propagator

__all__ = [
    "SolverConfig",
    "RunStats",
    "Trajectory",
    "perturbation_presets",
    "rhs_nonlinear",
    "linear_step",
    "integrate",
]

INTEGRATORS = ("ifrk4", "exp-euler")
PRESETS = ("single-mode", "smooth-bump", "low-frequency-powerlaw")


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step integration settings.

    ``snapshot_times`` defaults to (0, t_end).  Requested times are hit
    exactly by subdividing each segment into an integer number of steps
    of size at most ``dt``.  A guideline for choosing ``dt`` is
    dt <= 0.5 / max(xi_max * ||u||_inf, lam); the linear part imposes no
    constraint since it is integrated exactly.
    """

    dt: float
    t_end: float
    integrator: str = "ifrk4"
    dealias: float = 2.0 / 3.0
    snapshot_times: tuple | None = None
    positivity_floor: float = 0.01
    linear_only: bool = False

    def __post_init__(self) -> None:
        if not (self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.t_end >= 0):
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}")
        if not (0 < self.dealias <= 1):
            raise ValueError(f"dealias fraction must lie in (0, 1], got {self.dealias}")
        if not (0 < self.positivity_floor < 1):
            raise ValueError(f"positivity floor must lie in (0, 1), got {self.positivity_floor}")
        if self.snapshot_times is not None:
            times = tuple(float(t) for t in self.snapshot_times)
            if any(t < 0 or t > self.t_end + 1e-12 for t in times):
                raise ValueError("snapshot times must lie in [0, t_end]")
            if any(b - a <= 0 for a, b in zip(times, times[1:])):
                raise ValueError("snapshot times must be strictly increasing")
            object.__setattr__(self, "snapshot_times", times)


@dataclass(frozen=True)
class RunStats:
    """What a run did: steps taken, the distinct step sizes in order of use, propagator builds."""

    steps: int = 0
    step_sizes: tuple[float, ...] = ()
    propagator_builds: int = 0


@dataclass
class Trajectory:
    """Recorded snapshots, per-snapshot diagnostics, termination status and run statistics."""

    snapshots: list
    diagnostics: list
    status: str = "completed"
    abort_time: float | None = None
    stats: RunStats = field(default_factory=RunStats)


class _Scheme:
    """Spectral-side state machine shared by the public entry points.

    The state is one complex array of shape (1 + dim, *half_shape): the
    half spectra of the density fluctuation and of the velocity components.
    Propagator factors are cached for the one step size in use: IFRK4
    propagates only by h/2, exponential Euler and linear-only runs by h,
    so each segment of a run builds its factors once.
    """

    def __init__(self, grid: SpectralGrid, params: RieszParams | None, dealias: float = 2.0 / 3.0):
        if params is not None and params.dim != grid.dim:
            raise ValueError(f"params dim {params.dim} does not match grid dim {grid.dim}")
        self.grid = grid
        self.params = params
        self.mask = grid.half(grid.dealias_mask(dealias))
        # i xi/|xi| per axis: the compressible scalar is m = sum_k ie_k u_k
        self.ie = 1j * np.stack([grid.half(c) for c in grid.xi_unit])
        self._factors: dict = {}
        self.builds = 0

    # -- linear part ---------------------------------------------------

    def factors(self, h: float):
        """Precombined linear update (p11, p12, q21, q22, rot) for step h.

        With m the compressible scalar, the exact step is
        a' = p11 a + p12 m and u' = rot u + ie (q21 a + q22 m), where
        q21 = -p21 and q22 = rot - p22 replace the compressible part of
        the damped velocity by the propagated one.  Only the latest step
        size is kept.
        """
        fac = self._factors.get(h)
        if fac is None:
            g, p = self.grid, self.params
            P = propagator(g.half_xi_norm, p.s_star, h, lam=p.lam, kappa=p.kappa, rho_bar=p.rho_bar)
            rot = math.exp(-p.lam * h)
            # the odd coupling symbols vanish on the Nyquist region, so
            # density is frozen and velocity purely damped there (and the
            # zero mode conserves the mean exactly)
            P[g.half(g.nyquist_region)] = [[1.0, 0.0], [0.0, rot]]
            (p11, p12), (p21, p22) = np.moveaxis(P, (-2, -1), (0, 1)).copy()
            fac = (p11, p12, -p21, rot - p22, rot)
            self._factors = {h: fac}
            self.builds += 1
        return fac

    def apply_linear(self, s: np.ndarray, h: float) -> np.ndarray:
        p11, p12, q21, q22, rot = self.factors(h)
        m = self.ie[0] * s[1]
        for e, u in zip(self.ie[1:], s[2:]):
            m += e * u
        out = np.empty_like(s)
        np.multiply(p11, s[0], out=out[0])
        out[0] += p12 * m
        c = q21 * s[0]
        c += q22 * m
        np.multiply(s[1:], rot, out=out[1:])
        out[1:] += self.ie * c
        return out

    # -- nonlinear part ------------------------------------------------

    def rhs(self, s: np.ndarray) -> np.ndarray:
        g, d = self.grid, self.grid.dim
        masked = s * self.mask
        fields = g.irfft(masked)
        a, u = fields[0], fields[1:]
        # du[i, j] = d_j u_i, all d^2 components in one transform
        du = g.irfft(np.stack([k * masked[1 + i] for i in range(d) for k in g.half_grad]))
        du = du.reshape((d, d) + g.shape)
        out = np.empty_like(s)
        out[0] = -half_divergence(g, g.rfft(a * u))
        out[1:] = -g.rfft(np.sum(u * du, axis=1))
        out *= self.mask
        return out

    def step_exp_euler(self, s: np.ndarray, h: float) -> np.ndarray:
        return self.apply_linear(s + h * self.rhs(s), h)

    def step_ifrk4(self, s: np.ndarray, h: float) -> np.ndarray:
        """Lawson's integrating-factor RK4, propagating only by E_{h/2}.

        Since E_h = E_{h/2} E_{h/2}, the classical form (six propagations
        by h/2 and h) regroups with A = E_{h/2} s and B = E_{h/2} n1 into
        n2 = N(A + h/2 B), n3 = N(A + h/2 n2), n4 = N(E_{h/2}(A + h n3))
        and s' = E_{h/2}(A + h/6 (B + 2 (n2 + n3))) + h/6 n4.
        """
        half = 0.5 * h
        lin = self.apply_linear
        A = lin(s, half)
        B = lin(self.rhs(s), half)
        n2 = self.rhs(A + half * B)
        n3 = self.rhs(A + half * n2)
        n4 = self.rhs(lin(A + h * n3, half))
        return lin(A + (h / 6.0) * (B + 2.0 * (n2 + n3)), half) + (h / 6.0) * n4


def _state_spectrum(grid: SpectralGrid, state: FieldState) -> np.ndarray:
    """Stacked half spectra of (a, u_1, ..., u_d), one transform."""
    a, u = state_fields(grid, state)
    return grid.rfft(np.concatenate([a[None], u]))


def _physical_state(grid: SpectralGrid, s: np.ndarray, t: float) -> FieldState:
    fields = grid.irfft(s)
    return FieldState(a=fields[0], u=fields[1:], t=t)


def rhs_nonlinear(
    grid: SpectralGrid, state: FieldState, params: RieszParams | None = None, dealias: float = 2.0 / 3.0
) -> tuple[np.ndarray, np.ndarray]:
    """Nonlinear tendency (-div(a u), -u . grad u) in physical space.

    The density tendency has exactly zero mean.  ``params`` only supplies
    the dimension check and may be omitted.
    """
    out = grid.irfft(_Scheme(grid, params, dealias).rhs(_state_spectrum(grid, state)))
    return out[0], out[1:]


def linear_step(grid: SpectralGrid, state: FieldState, params: RieszParams, dt: float) -> FieldState:
    """Advance the state by the exact linear propagator over one step."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    s = _Scheme(grid, params).apply_linear(_state_spectrum(grid, state), dt)
    return _physical_state(grid, s, state.t + dt)


def _basic_diagnostics(grid: SpectralGrid, state: FieldState) -> dict:
    return {
        "t": state.t,
        "l2_a": lp_norm(grid, state.a, 2),
        "l2_u": lp_norm(grid, state.u, 2),
        "min_density": float(1.0 + np.min(state.a)),
        "mean_a": float(np.mean(state.a)),
    }


def integrate(
    grid: SpectralGrid, initial: FieldState, params: RieszParams, config: SolverConfig
) -> Trajectory:
    """Run the fixed-step scheme, recording snapshots at the requested times.

    On a NaN/Inf or a positivity-floor violation the run stops, the
    trajectory keeps the snapshots recorded so far, and the status
    reports the failure kind together with the abort time.
    """
    s = _state_spectrum(grid, initial)
    if float(1.0 + np.min(initial.a)) < config.positivity_floor:
        raise ValueError("initial density already below the positivity floor")

    scheme = _Scheme(grid, params, config.dealias)
    if config.linear_only:
        advance = scheme.apply_linear
    elif config.integrator == "exp-euler":
        advance = scheme.step_exp_euler
    else:
        advance = scheme.step_ifrk4

    targets = config.snapshot_times
    if targets is None:
        targets = (0.0, config.t_end) if config.t_end > 0 else (0.0,)

    snapshots: list[FieldState] = []
    diagnostics: list[dict] = []
    status = "completed"
    abort_time = None

    t = float(initial.t)
    t0 = t
    steps = 0
    step_sizes: dict[float, None] = {}

    def record(time: float) -> None:
        st = _physical_state(grid, s, time)
        snapshots.append(st)
        diagnostics.append(_basic_diagnostics(grid, st))

    aborted = False
    for target in targets:
        target = t0 + float(target)
        if aborted:
            break
        if target <= t + 1e-12 * max(1.0, abs(t)):
            record(t)
            continue
        span = target - t
        nsteps = max(1, math.ceil(span / config.dt - 1e-9))
        h = span / nsteps
        step_sizes[h] = None
        for istep in range(nsteps):
            s = advance(s, h)
            steps += 1
            t = target if istep == nsteps - 1 else t + h
            a_phys = grid.irfft(s[0])
            if not (np.all(np.isfinite(a_phys)) and np.all(np.isfinite(s[1:]))):
                status, abort_time, aborted = "blowup", t, True
                break
            if float(1.0 + np.min(a_phys)) < config.positivity_floor:
                status, abort_time, aborted = "positivity_violation", t, True
                break
        if not aborted:
            record(t)
    stats = RunStats(steps=steps, step_sizes=tuple(step_sizes), propagator_builds=scheme.builds)
    return Trajectory(snapshots=snapshots, diagnostics=diagnostics, status=status,
                      abort_time=abort_time, stats=stats)


def perturbation_presets(
    kind: str,
    amplitude: float,
    grid: SpectralGrid,
    *,
    sigma1: float | None = None,
    cutoff: float = 1.0,
    mode: int = 1,
    width: float = 0.25,
    seed: int = 0,
) -> FieldState:
    """Mean-zero initial data families, normalized to ||a||_inf = amplitude.

    "single-mode": a = amplitude cos(k x_1) with k the ``mode``-th
    wavenumber of the first axis.  "smooth-bump": analytic periodic bump
    centered in the box with relative ``width``.
    "low-frequency-powerlaw": random-phase spectrum |a(xi)| proportional
    to |xi|^(-sigma1 - d/2) on 0 < |xi| <= cutoff, a sharp realization
    of a flat low-frequency shell profile at regularity sigma1.

    The velocity starts at zero in all presets.
    """
    if kind not in PRESETS:
        raise ValueError(f"unknown preset {kind!r}; choose from {PRESETS}")
    if not (0 < amplitude < 1):
        raise ValueError(
            f"amplitude must lie in (0, 1) to keep 1 + a positive, got {amplitude}"
        )
    coords = grid.coordinates()
    if kind == "single-mode":
        if not (1 <= mode <= grid.modes[0] // 3):
            raise ValueError(f"mode must stay below the dealias cutoff, got {mode}")
        k = 2.0 * np.pi * mode / grid.lengths[0]
        a = amplitude * np.cos(k * coords[0])
        if grid.dim == 2:
            a = np.broadcast_to(a, grid.shape).copy()
    elif kind == "smooth-bump":
        if not (0 < width <= 1):
            raise ValueError(f"relative width must lie in (0, 1], got {width}")
        g = np.ones(grid.shape)
        for i in range(grid.dim):
            L = grid.lengths[i]
            g = g * np.exp((np.cos(2.0 * np.pi * (coords[i] - L / 2.0) / L) - 1.0) / width**2)
        g = g - float(np.mean(g))
        a = amplitude * g / float(np.max(np.abs(g)))
    else:
        if sigma1 is None:
            raise ValueError("the low-frequency-powerlaw preset requires sigma1")
        if cutoff <= grid.min_nonzero_wavenumber():
            raise ValueError("cutoff excludes every nonzero lattice wavenumber")
        rng = np.random.default_rng(seed)
        # random phases psi(-xi) = -psi(xi), zero at self-conjugate points
        theta = rng.uniform(0.0, 2.0 * np.pi, size=grid.shape)
        psi = grid.half(0.5 * (theta - _negate_lattice(theta)))
        xi = grid.half_xi_norm
        with np.errstate(divide="ignore", invalid="ignore"):
            profile = xi ** (-sigma1 - grid.dim / 2.0)
        window = (xi > 0) & (xi <= cutoff)
        a = grid.irfft(np.where(window, profile, 0.0) * np.exp(1j * psi))
        a = amplitude * a / float(np.max(np.abs(a)))
    u = np.zeros((grid.dim,) + grid.shape)
    return FieldState(a=a, u=u, t=0.0)
