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
form is the conservative -(u^2/2)_x; one method computes both.  A
tendency makes one inverse and one forward transform, the inverse of
(a, u) (and, in 2D, of the vorticity) and the forward of [a u, |u|^2/2]
(and, in 2D, of [w u_2, w u_1]).

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

Every tendency vanishes outside the dealias box |k_i| <= K_i, and its
box part reads only the box part of the state.  A step therefore runs
the stages on box-sized arrays, with the propagator factors and symbols
gathered onto the box once per build, and advances every mode outside
the box by the propagator alone: E_{h/2} E_{h/2} for IFRK4, E_h for
exponential Euler (a linear step is E_h on every mode).  The transforms
of a tendency are pruned to the box (``SpectralGrid._box_irfft`` and
``_box_rfft``).  In 2D the complex
transform over the first axis runs on the K_2 + 1 kept columns only;
the real transform over the last axis runs on every row.  Both equal
``irfftn``/``rfftn`` of the masked spectra bit for bit, so no mask
multiply is left, and a step equals the full-lattice step bit for bit
apart from the sign of zeros.  At fraction 2/3 the box is 4/9 of the 2D
half spectrum and 2/3 of the 1D one.

Each scheme allocates its workspace once: four box-sized stage buffers
for the IFRK4 step and the physical fields, spectra and products of a
tendency (the budget is listed on ``_Scheme``).  The tendency, the
linear update and the steps write into it with ``out=``, the transforms
included, and ``integrate`` advances one state array in place.  The
complex transform over the first axis runs in place in the workspace,
so a step allocates no state-sized array; what it allocates is NumPy's
cast buffers for the real propagator factors.  The per-step checks
transform the density in the workspace too, as a recorded snapshot does
(whose only fresh array is the snapshot, its L^2 norms being formed in
the workspace as well); they test finiteness by the
minimum and maximum of the density and of the velocity spectra:
reductions that allocate nothing and that any NaN or infinity reaches.
The memory of one step is thus reused by the next instead of being
returned to the system and faulted in again.  Called without ``out``,
every method returns a fresh array and leaves its input unchanged.

``integrate`` hands each snapshot to a sink, ``sink(state, diag)``, as
the run reaches its time.  The default sink keeps every snapshot in the
returned ``Trajectory``; a caller that writes or reduces each snapshot
as it arrives passes its own, and then the run holds no snapshot beyond
the one being handed over, so its memory does not grow with their count.
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
#: initial-data preset kind -> the keywords of ``perturbation_presets`` it reads besides the amplitude
PRESETS = {
    "single-mode": ("mode",),
    "smooth-bump": ("width",),
    "low-frequency-powerlaw": ("sigma1", "cutoff"),
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
    held by box arrays in the layout of ``SpectralGrid._box_index``.
    Every tendency vanishes outside the box and reads only the box part of
    its input, so a step advances the box part of the state through the
    stages on box arrays, with box-sized factors and symbols, and the rest
    by the propagator alone; the tendency transforms only the box
    (``SpectralGrid._box_irfft``, ``_box_rfft``).

    The workspace is allocated once per scheme, here except for the
    stage buffers, which the first step allocates; with B one box state
    array (about 4/9 of a state array at fraction 2/3 in 2D, 2/3 in 1D)
    and P one physical field it holds:

    - ``_stage``: four box state arrays, the A, B and n2 of
      :meth:`step_ifrk4` and one working buffer x for the stage inputs,
      n3 and n4 (4 B; :meth:`step_exp_euler` uses A and x);
    - ``_fields``: the physical (a, u) of a tendency, and w after them in
      2D, and the density of :meth:`density` (2 P in 1D, 4 P in 2D);
    - ``_spec``: nprod half spectra, 3 in 1D and 5 in 2D: the
      zero-padded kept columns of the inverse transforms, the half
      spectra of the forward ones, the first-axis transform of
      :meth:`density` and, in ``integrate``, of each recorded snapshot
      (1 + d of them), and the scratch (m, c and one product) of the
      linear update, for the box in a contiguous view at its start;
    - ``_boxspec``: in 2D, the vorticity and the forward transforms of
      the products (5 box spectra); none in 1D;
    - ``_prod``: the products [a u_1, ..., a u_d, |u|^2/2] of
      :meth:`_rhs`, with [w u_2, w u_1] after them in 2D (nprod = 2 or
      5 physical fields); between steps, the squares of the L^2 norms
      of :meth:`diagnostics` (d + 1 fields).

    At 2D 256^2 that is about 10.8 MiB, 2.7 of them the stage buffers
    (13.1 MiB with stages over the whole lattice).  The propagator
    factors and ``ie`` are kept both on the half lattice, for the modes
    outside the box and :meth:`apply_linear`, and on the box, each set in
    one buffer that every build overwrites: fresh arrays per build
    fragmented the heap of c08's 33 builds (the peak RSS of ``decay-1d``
    rose 0.8 MiB for the box factors, 2 MiB for the others).  ``rhs``,
    ``apply_linear`` and the steps take an optional ``out``, which may be
    their input ``s`` and must not be a workspace buffer; without it they return a fresh array.  They never
    change ``s`` unless it is ``out``, and never return a workspace
    buffer.  Each operation takes the operands of the plain array
    expression it evaluates in that expression's order (NumPy's complex
    multiply is not bit-commutative), so the results equal those of the
    allocating full-lattice expressions bit for bit, apart from the sign
    of zeros.
    """

    def __init__(self, grid: SpectralGrid, params: RieszParams | None, dealias: float = 2.0 / 3.0):
        if params is not None and params.dim != grid.dim:
            raise ValueError(f"params dim {params.dim} does not match grid dim {grid.dim}")
        self.grid = grid
        self.params = params
        _check_dealias(dealias)
        self.kept = grid.dealias_box(dealias)
        d = grid.dim
        self.minus_grad = tuple(grid._box_symbol(-k, self.kept) for k in grid.half_grad)
        # i xi/|xi| per axis: the compressible scalar is m = sum_k ie_k u_k
        self.ie = 1j * np.stack(grid.half_xi_unit)
        self.ie_box = grid._box_symbol(self.ie, self.kept)
        self._factors: dict = {}
        self.builds = 0

        nprod = 2 if d == 1 else 5
        self._box_shape = grid._box_shape(self.kept)
        # (p11, p12, q21, q22) on the half lattice and on the box, overwritten by each build
        self._half_factors = np.empty((4,) + grid.half_xi_norm.shape)
        self._box_factors = np.empty((4,) + self._box_shape)
        self._fields = np.empty((2 * d,) + grid.shape)
        self._spec = np.empty((max(3, nprod),) + grid.half_xi_norm.shape, dtype=complex)
        self._boxspec = np.empty((nprod,) + self._box_shape, dtype=complex) if d == 2 else None
        self._prod = np.empty((nprod,) + grid.shape)
        # the scratch (m, c, tmp) of the linear update on the box: contiguous
        # box arrays at the start of _spec
        self._box_work = self._spec.reshape(-1)[:3 * math.prod(self._box_shape)].reshape((3,) + self._box_shape)

    @cached_property
    def _stage(self) -> np.ndarray:
        # built on the first step, so that one-off tendencies and linear
        # updates (``rhs_nonlinear``, ``linear_step``) do not allocate it
        return np.empty((4, 1 + self.grid.dim) + self._box_shape, dtype=complex)

    # -- linear part ---------------------------------------------------

    def factors(self, h: float):
        """Precombined linear update (p11, p12, q21, q22, rot) for step h.

        With m the compressible scalar, the exact step is
        a' = p11 a + p12 m and u' = rot u + ie (q21 a + q22 m), where
        q21 = -p21 and q22 = rot - p22 replace the compressible part of
        the damped velocity by the propagated one.  Only the latest step
        size is kept, with the box parts of the factors.
        """
        return self._factor_pair(h)[0]

    def _factor_pair(self, h: float):
        pair = self._factors.get(h)
        if pair is None:
            g, p = self.grid, self.params
            P = propagator(g.half_xi_norm, p.s_star, h, lam=p.lam, kappa=p.kappa, rho_bar=p.rho_bar)
            rot = math.exp(-p.lam * h)
            # the odd coupling symbols vanish on the Nyquist region, so
            # density is frozen and velocity purely damped there (and the
            # zero mode conserves the mean exactly)
            P[g.half_nyquist_region] = [[1.0, 0.0], [0.0, rot]]
            p11, p12, q21, q22 = self._half_factors
            np.copyto(self._half_factors[:2], np.moveaxis(P[..., 0, :], -1, 0))
            np.negative(P[..., 1, 0], out=q21)
            np.subtract(rot, P[..., 1, 1], out=q22)
            fac = (p11, p12, q21, q22, rot)
            for f, b in zip(fac[:4], self._box_factors):
                g._box_gather(f, self.kept, out=b)
            pair = (fac, tuple(self._box_factors) + (rot,))
            self._factors = {h: pair}
            self.builds += 1
        return pair

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
        if out is None:
            out = np.empty_like(s)
        return self._linear(s, self.factors(h), self.ie, self._spec[:3], out)

    def _linear_box(self, s: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
        """:meth:`apply_linear` on box arrays."""
        return self._linear(s, self._factor_pair(h)[1], self.ie_box, self._box_work, out)

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
        """The tendency of box arrays: -div(a u), and -grad(|u|^2/2) - w u_perp.

        w = d_1 u_2 - d_2 u_1 is the vorticity and u_perp = (-u_2, u_1);
        both exist only in 2D, so in 1D the velocity tendency is
        -(u^2/2)_x.  The inverse transform takes (a, u) and, in 2D, the
        vorticity spectrum; the forward one the products
        [a u_1, ..., a u_d, |u|^2/2] and, in 2D, [w u_2, w u_1].
        """
        g, kept, prod, m = self.grid, self.kept, self._prod, self.minus_grad
        d = g.dim
        fields = s
        if d == 2:
            # w = m_2 u_1 - m_1 u_2, which is k_1 u_2 - k_2 u_1 bit for bit
            w = np.multiply(m[1], s[1], out=self._boxspec[0])
            w -= np.multiply(m[0], s[2], out=self._boxspec[1])
            fields = (*s, w)
        phys = g._box_irfft(fields, kept, out=self._fields, work=self._spec)
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
        v = g._box_rfft(prod, kept, out=out if d == 1 else self._boxspec, work=self._spec[:len(prod)])
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

    def density(self, s: np.ndarray) -> np.ndarray:
        """The physical density of half spectra ``s``, ``irfftn(s[0])`` bit for bit, in the workspace."""
        return self.grid.irfft(s[0], out=self._fields[0], work=self._spec[0])

    def diagnostics(self, state: FieldState) -> dict:
        """``t``, ``l2_a``, ``l2_u``, ``min_density`` and ``mean_a`` of a physical state.

        The L^2 norms equal ``lp_norm(grid, ., 2)`` bit for bit: the same
        operations in its order (|a|, or the root of the sum of u_i u_i;
        the square; the sum), written into ``_prod``, which is idle
        between steps, so a record allocates no field.
        """
        g, w = self.grid, self._prod
        mag = np.abs(state.a, out=w[0])
        sum_a = np.sum(np.square(mag, out=mag))
        uu = np.multiply(state.u, state.u, out=w[1:1 + g.dim])
        mag = np.sqrt(np.sum(uu, axis=0, out=w[0]), out=w[0])
        sum_u = np.sum(np.square(mag, out=mag))
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
        out = self.apply_linear(s, h, out=out)
        self._rhs(A, out=x)
        np.add(A, np.multiply(h, x, out=x), out=x)
        return self.grid._box_scatter(self._linear_box(x, h, out=A), self.kept, out)

    def step_ifrk4(self, s: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
        """Lawson's integrating-factor RK4, propagating only by E_{h/2}.

        Since E_h = E_{h/2} E_{h/2}, the classical form (six propagations
        by h/2 and h) regroups with A = E_{h/2} s and B = E_{h/2} n1 into
        n2 = N(A + h/2 B), n3 = N(A + h/2 n2), n4 = N(E_{h/2}(A + h n3))
        and s' = E_{h/2}(A + h/6 (B + 2 (n2 + n3))) + h/6 n4.  The stages
        run on the box part of s; the four stage buffers hold A, B, n2 and
        x (the box of s, the stage inputs, n3, n4).  Outside the box every
        N vanishes, so there s' = E_{h/2} E_{h/2} s: two propagations of
        the whole state, whose box part the stages then overwrite.  s is
        read only before ``out`` is first written, so ``out`` may be s.
        """
        half, sixth = 0.5 * h, h / 6.0
        lin, N = self._linear_box, self._rhs
        A, B, n2, x = self._stage
        self.grid._box_gather(s, self.kept, out=x)
        out = self.apply_linear(s, half, out=out)
        self.apply_linear(out, half, out=out)
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
    if dt < 0:
        raise ValueError("dt must be >= 0")
    fields = grid.irfft(_Scheme(grid, params).apply_linear(_state_spectrum(grid, state), dt))
    return FieldState(a=fields[0], u=fields[1:], t=state.t + dt)


def integrate(
    grid: SpectralGrid,
    initial: FieldState,
    params: RieszParams,
    config: SolverConfig,
    sink: Callable[[FieldState, dict], object] | None = None,
) -> Trajectory:
    """Run the fixed-step scheme, handing a snapshot to ``sink`` at each requested time.

    ``sink(state, diag)`` gets the physical state and its basic
    diagnostics (``t``, ``l2_a``, ``l2_u``, ``min_density``, ``mean_a``),
    in time order, as the run reaches each time; the state is a fresh
    array the run does not keep.  Without a sink the snapshots and
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
        def sink(state: FieldState, diag: dict) -> None:
            snapshots.append(state)
            diagnostics.append(diag)
    status = "completed"
    abort_time = None

    t = float(initial.t)
    t0 = t
    steps = 0
    step_sizes: dict[float, None] = {}
    h = None

    def record(time: float) -> None:
        fields = grid.irfft(s, work=scheme._spec[:1 + grid.dim])
        st = FieldState(a=fields[0], u=fields[1:], t=time)
        sink(st, scheme.diagnostics(st))

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
    sigma1: float | None = None,
    cutoff: float = 1.0,
    mode: int = 1,
    width: float = 0.25,
    seed: int = 0,
) -> FieldState:
    """Mean-zero initial data families, normalized to ||a||_inf = amplitude.

    "single-mode": a = amplitude cos(k x_1) with k the ``mode``-th
    wavenumber of the first axis, inside the solver's default box
    (3 mode < N_1).  "smooth-bump": analytic periodic bump
    centered in the box with relative ``width``.
    "low-frequency-powerlaw": random-phase spectrum |a(xi)| proportional
    to |xi|^(-sigma1 - d/2) on 0 < |xi| <= cutoff, a sharp realization
    of a flat low-frequency shell profile at regularity sigma1.

    The velocity starts at zero in all presets.
    """
    if kind not in PRESETS:
        raise ValueError(f"unknown preset {kind!r}; choose from {tuple(PRESETS)}")
    if not (0 < amplitude < 1):
        raise ValueError(
            f"amplitude must lie in (0, 1) to keep 1 + a positive, got {amplitude}"
        )
    coords = grid.coordinates()
    if kind == "single-mode":
        if not (1 <= mode <= grid.dealias_box()[0]):
            raise ValueError(f"mode must stay below the dealias cutoff (3 mode < N_1), got {mode}")
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
