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
therefore conserved exactly.

Nonlinear products are formed in physical space and kept on the dealias
box |k_i| <= K_i of ``SpectralGrid.dealias_box``, with
K_i = min(floor(f N_i / 2), ceil(N_i / 3) - 1): the largest box within
the fraction f whose products are alias-free, 3 K_i < N_i (Orszag's 2/3
rule, so the solver refuses an f above 2/3).  No product of kept modes
(|k_i| <= 2 K_i) then aliases onto a kept mode, and the velocity
tendency is taken in a form built from products of fields rather than
of gradients, the rotational form -grad(|u|^2/2) - w u_perp with
w = d_1 u_2 - d_2 u_1 and u_perp = (-u_2, u_1).  It equals the
dealiased -u . grad u.  The vorticity exists only in 2D, so in 1D the
form is the conservative -(u^2/2)_x; one method computes both.

Three steppers are available, one per entry of :data:`INTEGRATORS`: the
integrating-factor RK4 scheme of Lawson (default), a first-order
exponential Euler cross-check, and the exact linear propagator alone
(``linear``, the nonlinear terms dropped).  The exact propagator is a
semigroup, E_h = E_{h/2} E_{h/2}, so an RK4 step is written with the
half-step propagator alone: four propagations by h/2 and four
nonlinear tendencies per step, and one propagator build
per run of segments with equal steps.  A segment whose step would differ
from the previous one only by the rounding of its end points keeps the
previous step, so equally spaced snapshot times build the propagator
once.  ``integrate`` reports the steps taken, the step sizes and the
propagator builds in ``Trajectory.stats``.

A step runs its stages on the dealias box only, and a tendency's
physical stage one block of rows at a time, in cache (see ``_Scheme``).
``integrate`` advances one state array in place in a workspace allocated
once, and tests finiteness by the minimum and maximum of the density and
of the velocity spectra, which any NaN or infinity reaches.

``integrate`` hands each snapshot to a sink, ``sink(state, diag, spectrum)``,
as the run reaches its time, ``spectrum`` a read-only view of its half spectra.
The default sink keeps every snapshot in the returned ``Trajectory``; a
caller that writes or reduces each snapshot as it arrives passes its own,
and then the run holds no snapshot beyond the one being handed over, so
its memory does not grow with their count.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import (
    FieldState,
    RieszParams,
    SpectralGrid,
    _negate_lattice,
    lp_norm,  # noqa: F401  (kept importable here; bench/spans.py wraps it)
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

#: the steppers a run can take: integrator name -> the ``_Scheme`` method that advances a state
INTEGRATORS = {"ifrk4": "step_ifrk4", "exp-euler": "step_exp_euler", "linear": "apply_linear"}
#: initial-data preset kind -> the keywords of ``perturbation_presets`` it reads and their defaults
PRESETS = {
    "single-mode": {"mode": 1},
    "smooth-bump": {"width": 0.25},
    "low-frequency-powerlaw": {"sigma1": -0.5, "cutoff": 1.0},
}


def _check_dealias(fraction: float) -> None:
    if not (0 < fraction <= 2.0 / 3.0):
        raise ValueError(f"dealias fraction must lie in (0, 2/3], where the kept box is alias-free "
                         f"(3 K < N, the 2/3 rule), got {fraction}")


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step integration settings.

    ``integrator`` names one of the three steppers of :data:`INTEGRATORS`:
    ``ifrk4``, ``exp-euler`` or ``linear`` (the exact propagator alone).
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

    def __post_init__(self) -> None:
        if not (0 < self.dt < math.inf):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (0 <= self.t_end < math.inf):
            raise ValueError(f"t_end must be nonnegative and finite, got {self.t_end}")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {tuple(INTEGRATORS)}, got {self.integrator!r}")
        _check_dealias(self.dealias)
        if not (0 < self.positivity_floor < 1):
            raise ValueError(f"positivity floor must lie in (0, 1), got {self.positivity_floor}")
        if self.snapshot_times is not None:
            times = tuple(float(t) for t in self.snapshot_times)
            bad = [t for t in times if not math.isfinite(t)]
            if bad:
                raise ValueError(f"snapshot times must be finite, got {bad[0]}")
            if any(t < 0 or t > self.t_end + 1e-12 for t in times):
                raise ValueError("snapshot times must lie in [0, t_end]")
            if any(b - a <= 0 for a, b in zip(times, times[1:])):
                raise ValueError("snapshot times must be strictly increasing")
            object.__setattr__(self, "snapshot_times", times)


@dataclass(frozen=True)
class RunStats:
    """What a run did: steps taken, the distinct step sizes in order of use, propagator builds.

    Segments whose step sizes would differ only by the rounding of their
    end points share one step size.
    """

    steps: int = 0
    step_sizes: tuple[float, ...] = ()
    propagator_builds: int = 0


@dataclass
class Trajectory:
    """Recorded snapshots, per-snapshot diagnostics, termination status and run statistics.

    ``snapshots`` and ``diagnostics`` are filled by the default sink of
    :func:`integrate`; a run given its own sink leaves them empty and
    reports only ``status``, ``abort_time`` and ``stats``.
    """

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
    propagates only by h/2, exponential Euler and linear runs by h,
    so each segment of a run builds its factors once.

    The dealias box is |k_i| <= K_i (``kept``, ``SpectralGrid.dealias_box``),
    held by box arrays in the layout of ``SpectralGrid._box_index``.  Every
    tendency vanishes outside the box and reads only its box part, so a
    step advances the box through the stages on box arrays and every mode
    outside it by the propagator alone, gathered by one increasing flat
    index (``SpectralGrid._outside_index``, 18,318 modes at 256^2) into
    contiguous arrays, propagated there and scattered back.
    :meth:`apply_linear` is the same two parts without the stages.

    The workspace is allocated once per scheme, here except for the
    stage buffers, which the first step allocates; with B one box state
    array (about 4/9 of a state array at fraction 2/3 in 2D, 2/3 in 1D),
    n the number of modes outside the box and P one physical field it
    holds:

    - ``_stage``: four box state arrays, the A, B and n2 of
      :meth:`step_ifrk4` and one working buffer x for the stage inputs,
      n3 and n4 (4 B; :meth:`step_exp_euler` uses A and x);
    - ``_spec``: 3 half spectra in 1D, 5 in 2D, or (4 + d) n entries if
      that is more (at small fractions): the work spectra of the round
      trip, the first-axis transforms of :meth:`density` and of a record
      in ``integrate``, the scratch (m, c, tmp) of the linear update on
      the box, and the state and scratch of the update outside it;
    - ``_boxspec``: in 2D, the vorticity and the forward transforms of
      the products (5 box spectra); none in 1D;
    - ``_blocks``: a block of rows (``SpectralGrid._block_shape``) of the
      fields and products of :meth:`_rhs` (2 + 2 in 1D, 4 + 5 in 2D);
    - ``_phys``: d fields, the density of :meth:`density` and, between
      steps, the squares of the L^2 norms of :meth:`diagnostics` (d P).

    At 2D 256^2 that is 7.9 MiB, 2.7 of them the stage buffers.  Two sets
    of propagator factors are held, on the box and on the outside modes
    (with ie there, 1.1 MiB at 256^2), each in one buffer that every build
    overwrites, so c08's 33 builds do not fragment the heap.  ``rhs``,
    ``apply_linear`` and the steps take an optional ``out``, which may be
    their input ``s`` and must not be a workspace buffer (nor, but for
    ``rhs``, strided); without it they return a fresh array, and they
    never change ``s`` unless it is ``out``.  Each operation takes the
    operands of the plain array expression it evaluates in that
    expression's order (NumPy's complex multiply is not bit-commutative),
    so the results equal those of the allocating full-lattice expressions
    bit for bit, apart from the sign of zeros.
    """

    def __init__(self, grid: SpectralGrid, params: RieszParams | None, dealias: float = 2.0 / 3.0):
        if params is not None and params.dim != grid.dim:
            raise ValueError(f"params dim {params.dim} does not match grid dim {grid.dim}")
        self.grid = grid
        self.params = params
        _check_dealias(dealias)
        self.kept = grid.dealias_box(dealias)
        d = grid.dim
        self.minus_grad = tuple(-grid._box_gather(k, self.kept) for k in grid.half_grad)
        self._outside_index = grid._outside_index(self.kept)
        n = self._outside_index.size
        # i xi/|xi| per axis on the box and outside it: the compressible scalar is m = sum_k ie_k u_k
        ie = 1j * np.stack(grid.half_xi_unit)
        self.ie_box = grid._box_gather(ie, self.kept)
        self.ie_outside = np.take(ie.reshape(d, -1), self._outside_index, axis=1)
        self._factors: dict = {}
        self.builds = 0

        nprod = 2 if d == 1 else 5
        half = grid.half_xi_norm.shape
        self._box_shape = grid._box_shape(self.kept)
        # (p11, p12, q21, q22) on the box and outside it, overwritten by each build
        self._box_factors = np.empty((4,) + self._box_shape)
        self._outside_factors = np.empty((4, n))
        self._spec = np.empty((max(3, nprod, -(-(4 + d) * n // math.prod(half))),) + half, dtype=complex)
        self._boxspec = np.empty((nprod,) + self._box_shape, dtype=complex) if d == 2 else None
        self._blocks = (np.empty((2 * d,) + grid._block_shape()), np.empty((nprod,) + grid._block_shape()))
        self._phys = np.empty((d,) + grid.shape)
        # the linear update's scratch on the box, and the state and scratch (m, c, tmp) of the
        # outside modes: contiguous arrays at the start of _spec
        spec = self._spec.reshape(-1)
        self._box_work = spec[:3 * math.prod(self._box_shape)].reshape((3,) + self._box_shape)
        self._outside_state = spec[:(1 + d) * n].reshape(1 + d, n)
        self._outside_work = spec[(1 + d) * n:(4 + d) * n].reshape(3, n)

    @cached_property
    def _stage(self) -> np.ndarray:
        # built on the first step, so that one-off tendencies and linear
        # updates (``rhs_nonlinear``, ``linear_step``) do not allocate it
        return np.empty((4, 1 + self.grid.dim) + self._box_shape, dtype=complex)

    # -- linear part ---------------------------------------------------

    def _factor_sets(self, h: float):
        """The precombined linear update (p11, p12, q21, q22, rot) for step h: (box set, outside set).

        With m the compressible scalar, the exact step is
        a' = p11 a + p12 m and u' = rot u + ie (q21 a + q22 m), where
        q21 = -p21 and q22 = rot - p22 replace the compressible part of
        the damped velocity by the propagated one.  Only the latest step
        size is kept.
        """
        sets = self._factors.get(h)
        if sets is None:
            g, p = self.grid, self.params
            P = propagator(g.half_xi_norm, p.s_star, h, lam=p.lam, kappa=p.kappa, rho_bar=p.rho_bar)
            rot = math.exp(-p.lam * h)
            # the odd coupling symbols vanish on the Nyquist region, so
            # density is frozen and velocity purely damped there (and the
            # zero mode conserves the mean exactly)
            P[g.half_nyquist_region] = [[1.0, 0.0], [0.0, rot]]
            # (p11, p12, p21, p22) as leading axis
            P = np.moveaxis(P.reshape(P.shape[:-2] + (4,)), -1, 0)
            g._box_gather(P, self.kept, out=self._box_factors)
            np.take(P.reshape(4, -1), self._outside_index, axis=1, out=self._outside_factors, mode="clip")
            for f in (self._box_factors, self._outside_factors):
                np.negative(f[2], out=f[2])
                np.subtract(rot, f[3], out=f[3])
            sets = (tuple(self._box_factors) + (rot,), tuple(self._outside_factors) + (rot,))
            self._factors = {h: sets}
            self.builds += 1
        return sets

    def _linear(self, s: np.ndarray, fac: tuple, ie: np.ndarray, work, out: np.ndarray) -> np.ndarray:
        """The linear update with factors ``fac`` on any block of modes; ``work`` is (m, c, tmp)."""
        p11, p12, q21, q22, rot = fac
        m, c, tmp = work
        np.multiply(ie[0], s[1], out=m)
        for e, u in zip(ie[1:], s[2:]):
            m += np.multiply(e, u, out=tmp)
        # m and c are formed before out is written, so out may be s
        np.multiply(q21, s[0], out=c)
        c += np.multiply(q22, m, out=tmp)
        np.multiply(p11, s[0], out=out[0])
        out[0] += np.multiply(p12, m, out=tmp)
        np.multiply(s[1:], rot, out=out[1:])
        for o, e in zip(out[1:], ie):
            o += np.multiply(e, c, out=tmp)
        return out

    def apply_linear(self, s: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
        """The exact linear step E_h of half spectra ``s``: the box and, by one flat index, the rest."""
        box = self.grid._box_gather(s, self.kept)
        out = self._linear_outside(s, h, out)
        return self.grid._box_scatter(self._linear_box(box, h, out=box), self.kept, out)

    def _linear_box(self, s: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
        """The linear update of box arrays."""
        return self._linear(s, self._factor_sets(h)[0], self.ie_box, self._box_work, out)

    def _linear_outside(self, s: np.ndarray, h: float, out: np.ndarray | None, times: int = 1) -> np.ndarray:
        """The linear update ``times`` over of the modes outside the box, written into ``out``.

        The modes are gathered by one flat index into contiguous arrays,
        propagated there and scattered back through a flat view of ``out``,
        which must therefore be C-contiguous.  The box part of ``out`` is
        left as it is.
        """
        if out is None:
            out = np.empty(s.shape, dtype=s.dtype)
        elif not out.flags.c_contiguous:
            raise ValueError("the solver writes into a C-contiguous state array only")
        at, fac = self._outside_index, self._factor_sets(h)[1]
        x = np.take(s.reshape(len(s), -1), at, axis=1, out=self._outside_state, mode="clip")
        for _ in range(times):
            self._linear(x, fac, self.ie_outside, self._outside_work, x)
        for o, v in zip(out.reshape(len(out), -1), x):
            o[at] = v
        return out

    # -- nonlinear part ------------------------------------------------

    def rhs(self, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The nonlinear tendency of half spectra ``s``: the box tendency, zero outside the box."""
        g = self.grid
        box = g._box_gather(s, self.kept)
        self._rhs(box, out=box)
        if out is None:
            out = np.zeros_like(s)
        else:
            out[...] = 0
        return g._box_scatter(box, self.kept, out)

    def _rhs(self, s: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The tendency of box arrays: -div(a u), and -grad(|u|^2/2) - w u_perp (-(u^2/2)_x in 1D)."""
        g, m = self.grid, self.minus_grad
        d = g.dim
        fields = s
        if d == 2:
            # w = m_2 u_1 - m_1 u_2, which is k_1 u_2 - k_2 u_1 bit for bit
            w = np.multiply(m[1], s[1], out=self._boxspec[0])
            w -= np.multiply(m[0], s[2], out=self._boxspec[1])
            fields = (*s, w)
        v = g._box_products(fields, self.kept, self._products, out=out if d == 1 else self._boxspec,
                            work=self._spec, blocks=self._blocks)
        # out[0] = sum_i m_i v_i and out[1 + i] = m_i q: the two m_1 terms in one call
        np.multiply(m[0], v[0:d + 1:d], out=out[:2])
        for i in range(1, d):
            out[0] += np.multiply(m[i], v[i], out=v[i])
            np.multiply(m[i], v[d], out=out[1 + i])
        if d == 2:
            # -w u_perp = (w u_2, -w u_1)
            out[1] += v[3]
            out[2] -= v[4]
        return out

    def _products(self, phys: np.ndarray, prod: np.ndarray) -> None:
        """[a u_1, ..., a u_d, |u|^2/2] and, in 2D, [w u_2, w u_1] of a block of (a, u) and w."""
        d = self.grid.dim
        a, u = phys[0], phys[1:1 + d]
        for i in range(d):
            np.multiply(a, u[i], out=prod[i])
        q = prod[d]
        np.multiply(0.5, u[0], out=q)
        q *= u[0]
        for ui in u[1:]:
            tmp = prod[d + 1]
            np.multiply(0.5, ui, out=tmp)
            tmp *= ui
            q += tmp
        if d == 2:
            w = phys[3]
            np.multiply(w, u[1], out=prod[3])
            np.multiply(w, u[0], out=prod[4])

    def density(self, s: np.ndarray) -> np.ndarray:
        """The physical density of half spectra ``s``, ``irfftn(s[0])`` bit for bit, in the workspace."""
        return self.grid.irfft(s[0], out=self._phys[0], work=self._spec[0])

    def diagnostics(self, state: FieldState) -> dict:
        """``t``, ``l2_a``, ``l2_u``, ``min_density`` and ``mean_a`` of a physical state.

        The L^2 norms equal ``lp_norm(grid, ., 2)`` bit for bit: the same
        operations in its order (|a|, or the root of the sum of u_i u_i;
        the square; the sum), written into ``_phys``, which is idle
        between steps, so a record allocates no field.
        """
        g, w = self.grid, self._phys
        mag = np.abs(state.a, out=w[0])
        sum_a = np.sum(np.square(mag, out=mag))
        uu = np.multiply(state.u, state.u, out=w)
        mag = uu[0]
        for x in uu[1:]:
            mag += x
        sum_u = np.sum(np.square(np.sqrt(mag, out=mag), out=mag))
        return {
            "t": state.t,
            "l2_a": float((g.cell_volume * sum_a) ** 0.5),
            "l2_u": float((g.cell_volume * sum_u) ** 0.5),
            "min_density": float(1.0 + np.min(state.a)),
            "mean_a": float(np.mean(state.a)),
        }

    # -- steps ---------------------------------------------------------

    def step_exp_euler(self, s: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
        """E_h(s + h N(s)): the box through the stage, the rest by E_h alone."""
        A, x = self._stage[0], self._stage[3]
        self.grid._box_gather(s, self.kept, out=A)
        out = self._linear_outside(s, h, out)
        self._rhs(A, out=x)
        np.add(A, np.multiply(h, x, out=x), out=x)
        return self.grid._box_scatter(self._linear_box(x, h, out=A), self.kept, out)

    def step_ifrk4(self, s: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
        """Lawson's integrating-factor RK4, propagating only by E_{h/2}.

        Since E_h = E_{h/2} E_{h/2}, the classical form (six propagations
        by h/2 and h) regroups with A = E_{h/2} s and B = E_{h/2} n1 into
        n2 = N(A + h/2 B), n3 = N(A + h/2 n2), n4 = N(E_{h/2}(A + h n3))
        and s' = E_{h/2}(A + h/6 (B + 2 (n2 + n3))) + h/6 n4 on the box,
        and s' = E_{h/2} E_{h/2} s outside it.  s is read only before
        ``out`` is first written, so ``out`` may be s.
        """
        half, sixth = 0.5 * h, h / 6.0
        lin, N = self._linear_box, self._rhs
        A, B, n2, x = self._stage
        self.grid._box_gather(s, self.kept, out=x)
        out = self._linear_outside(s, half, out, times=2)
        lin(x, half, out=A)
        lin(N(x, out=x), half, out=B)
        N(np.add(A, np.multiply(half, B, out=x), out=x), out=n2)
        N(np.add(A, np.multiply(half, n2, out=x), out=x), out=x)
        # n2 <- A + h/6 (B + 2 (n2 + n3)), then B <- A + h n3 and x <- n4
        np.add(n2, x, out=n2)
        np.add(B, np.multiply(2.0, n2, out=n2), out=n2)
        np.add(A, np.multiply(sixth, n2, out=n2), out=n2)
        np.add(A, np.multiply(h, x, out=B), out=B)
        N(lin(B, half, out=A), out=x)
        lin(n2, half, out=A)
        np.add(A, np.multiply(sixth, x, out=x), out=A)
        return self.grid._box_scatter(A, self.kept, out)


def _state_spectrum(grid: SpectralGrid, state: FieldState) -> np.ndarray:
    """Stacked half spectra of (a, u_1, ..., u_d), one transform.

    The result is in C order whatever the input's layout, so that
    ``integrate`` can view the velocity spectra as real numbers.
    """
    a, u = state_fields(grid, state)
    return grid.rfft(np.ascontiguousarray(np.concatenate([a[None], u])))


def rhs_nonlinear(
    grid: SpectralGrid, state: FieldState, params: RieszParams | None = None, dealias: float = 2.0 / 3.0
) -> tuple[np.ndarray, np.ndarray]:
    """Nonlinear tendency (-div(a u), -u . grad u) in physical space.

    The density tendency has exactly zero mean.  ``params`` only supplies
    the dimension check and may be omitted.  ``dealias`` is the fraction
    f of the kept box, at most 2/3 (see the module docstring).
    """
    out = grid.irfft(_Scheme(grid, params, dealias).rhs(_state_spectrum(grid, state)))
    return out[0], out[1:]


def linear_step(grid: SpectralGrid, state: FieldState, params: RieszParams, dt: float) -> FieldState:
    """Advance the state by the exact linear propagator over one step."""
    if not (0 <= dt < math.inf):
        raise ValueError(f"dt must be nonnegative and finite, got {dt}")
    fields = grid.irfft(_Scheme(grid, params).apply_linear(_state_spectrum(grid, state), dt))
    return FieldState(a=fields[0], u=fields[1:], t=state.t + dt)


def integrate(
    grid: SpectralGrid,
    initial: FieldState,
    params: RieszParams,
    config: SolverConfig,
    sink: Callable[[FieldState, dict, np.ndarray], object] | None = None,
) -> Trajectory:
    """Run the fixed-step scheme, handing a snapshot to ``sink`` at each requested time.

    ``sink(state, diag, spectrum)`` gets the physical state, its basic
    diagnostics (``t``, ``l2_a``, ``l2_u``, ``min_density``, ``mean_a``)
    and its (1 + d) half spectra, in time order, as the run reaches each
    time; the state is a fresh array the run does not keep, the spectrum a
    read-only view of the run's own, valid only during the call and equal
    to ``grid.rfft`` of the state to round-off.  Without a sink the snapshots and
    diagnostics are appended to the returned trajectory's lists; with
    one those lists stay empty.  Initial data with a NaN or an infinity,
    or with a density below the positivity floor, are refused with a
    ``ValueError``.  On a NaN/Inf or a positivity-floor violation during
    the run it stops, the sink has seen the snapshots before the abort,
    and the status reports the failure kind together with the abort time.
    """
    a, u = state_fields(grid, initial)
    for name, f in (("density", a), ("velocity", u)):
        if not np.all(np.isfinite(f)):
            raise ValueError(f"initial {name} is not finite (NaN or infinity)")
    if float(1.0 + np.min(a)) < config.positivity_floor:
        raise ValueError("initial density already below the positivity floor")
    s = _state_spectrum(grid, initial)

    scheme = _Scheme(grid, params, config.dealias)
    advance = getattr(scheme, INTEGRATORS[config.integrator])

    targets = config.snapshot_times
    if targets is None:
        targets = (0.0, config.t_end) if config.t_end > 0 else (0.0,)

    snapshots: list[FieldState] = []
    diagnostics: list[dict] = []
    if sink is None:
        def sink(state: FieldState, diag: dict, spectrum: np.ndarray) -> None:
            snapshots.append(state)
            diagnostics.append(diag)
    status = "completed"
    abort_time = None

    t = float(initial.t)
    t0 = t
    steps = 0
    step_sizes: dict[float, None] = {}
    h = None
    # the sink's read-only view of the state, which the run advances in place
    spectrum = s.view()
    spectrum.flags.writeable = False

    def record(time: float) -> None:
        fields = grid.irfft(s, work=scheme._spec[:1 + grid.dim])
        st = FieldState(a=fields[0], u=fields[1:], t=time)
        sink(st, scheme.diagnostics(st), spectrum)

    # the velocity spectra as real numbers, a view of the state advanced in place
    u_parts = s[1:].view(np.float64)
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
        # a segment that matches the previous step size up to the rounding
        # of its end points keeps it, and with it the propagator factors;
        # the last step still ends exactly at the target
        if h is None or abs(nsteps * h - span) > 4 * math.ulp(max(abs(t), abs(target))):
            h = span / nsteps
        step_sizes[h] = None
        for istep in range(nsteps):
            advance(s, h, out=s)
            steps += 1
            t = target if istep == nsteps - 1 else t + h
            a_phys = scheme.density(s)
            # a NaN makes min and max NaN, an infinity one of them
            low = float(np.min(a_phys))
            bounds = (low, float(np.max(a_phys)), float(np.min(u_parts)), float(np.max(u_parts)))
            if not all(map(math.isfinite, bounds)):
                status, abort_time, aborted = "blowup", t, True
                break
            if 1.0 + low < config.positivity_floor:
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
    seed: int = 0,
    **keys,
) -> FieldState:
    """Mean-zero initial data families, normalized to ||a||_inf = amplitude.

    "single-mode": a = amplitude cos(k x_1) with k the ``mode``-th
    wavenumber of the first axis, inside the solver's default box
    (3 mode < N_1).  "smooth-bump": analytic periodic bump
    centered in the box with relative ``width``.
    "low-frequency-powerlaw": random-phase spectrum |a(xi)| proportional
    to |xi|^(-sigma1 - d/2) on 0 < |xi| <= cutoff, a sharp realization
    of a flat low-frequency shell profile at regularity sigma1.

    The velocity starts at zero in all presets.  ``keys`` default to
    the kind's entry in :data:`PRESETS`; another kind's are refused.
    """
    if kind not in PRESETS:
        raise ValueError(f"unknown preset {kind!r}; choose from {tuple(PRESETS)}")
    reads = PRESETS[kind]
    foreign = [key for key in keys if key not in reads]
    if foreign:
        raise ValueError("; ".join(f"{key} is not read by kind = {kind} (it reads {', '.join(reads)})"
                                   for key in foreign))
    keys = {**reads, **keys}
    if not (0 < amplitude < 1):  # so 1 + a stays positive
        raise ValueError(f"amplitude must lie in (0, 1), got {amplitude}")
    coords = grid.coordinates()
    if kind == "single-mode":
        mode = keys["mode"]
        if not (1 <= mode <= grid.dealias_box()[0]):
            raise ValueError(f"mode must stay below the dealias cutoff (3 mode < N_1), got {mode}")
        k = 2.0 * np.pi * mode / grid.lengths[0]
        a = amplitude * np.cos(k * coords[0])
        if grid.dim == 2:
            a = np.broadcast_to(a, grid.shape).copy()
    elif kind == "smooth-bump":
        width = keys["width"]
        if not (0 < width <= 1):
            raise ValueError(f"width must lie in (0, 1], got {width}")
        g = np.ones(grid.shape)
        for i in range(grid.dim):
            L = grid.lengths[i]
            g = g * np.exp((np.cos(2.0 * np.pi * (coords[i] - L / 2.0) / L) - 1.0) / width**2)
        g = g - float(np.mean(g))
        a = amplitude * g / float(np.max(np.abs(g)))
    else:
        sigma1, cutoff = keys["sigma1"], keys["cutoff"]
        if cutoff <= grid.min_nonzero_wavenumber():
            raise ValueError(f"cutoff excludes every nonzero lattice wavenumber, got {cutoff}")
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
