"""Periodic spectral grid and Fourier-multiplier operators.

Conventions shared by every module in the package:

* On axis i with N_i modes and box length L_i the wavenumber lattice is
  xi_k = 2*pi*k/L_i for integer k in [-N_i/2, N_i/2).  The lattice is
  symmetric about zero except for the unpaired Nyquist mode k = -N_i/2.
* Fields are real, so every operator works on the real-to-complex half
  spectrum: ``rfftn`` over the trailing ``dim`` axes keeps last-axis
  indices 0..N_d/2.  The grid builds its symbols on this half lattice;
  they hold the values of the ``[..., :N_d/2 + 1]`` slices of the
  full-lattice symbols, bit for bit, because one builder makes both.
  The full lattice is built only on first access, for user symbols and
  reference computations.  Multipliers act as
  f -> irfftn(m(xi) * rfftn(f)).  The zero mode carries the spatial mean.
  A symbol that is singular at xi = 0 may only be applied to a mean-zero
  field; the zero mode is then mapped to 0.
* ``SpectralGrid.rfft`` and ``irfft`` are the one forward and inverse
  transform, ``rfftn``'s and ``irfftn``'s steps written out so that no
  second complex array is made.  ``dealias_box`` is the one truncation
  rule, and ``dealias_mask`` is its box on the full lattice.
* A multiplier symbol must be Hermitian, m(-xi) = conj(m(xi)), off the
  Nyquist region (lattice points with an unpaired Nyquist coordinate,
  plus the self-conjugate points); this is checked on the symbol itself.
  On the Nyquist region symbols are projected onto their Hermitian part,
  m -> (m(xi) + conj(m(-xi)))/2.  This zeroes odd-in-xi_i symbols on the
  axis-i Nyquist plane, where they cannot be represented.
* Discrete L^p norms include the cell volume: ||f||_p^p = sum |f|^p dV.
* Parseval sums weight the interior last-axis columns by 2, the k = 0
  and k = N_d/2 columns by 1.  A sum that never passes through an inverse
  transform cannot rely on it to drop unrepresentable content, so the
  half-lattice derivative symbols i xi_i are zero on their own axis-i
  Nyquist plane, as the Hermitian projection above makes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "ZeroModeError",
    "check_mode_count",
    "SpectralGrid",
    "FieldState",
    "RieszParams",
    "make_grid",
    "apply_multiplier",
    "frac_lambda",
    "grad_frac_lambda",
    "riesz_force",
    "gradient",
    "divergence",
    "curl",
    "hodge_split",
    "hodge_reconstruct",
    "lp_norm",
    "spectral_power",
    "spectral_inner",
    "spectral_l2",
    "half_l2",
    "half_divergence",
    "half_grad_frac",
    "state_fields",
]

#: relative tolerance used to decide whether a field counts as mean-zero
MEAN_ZERO_RTOL = 1e-10

#: relative tolerance on the Hermitian symmetry m(-xi) = conj(m(xi)) of a symbol
REALITY_RTOL = 1e-10

#: rows of one block of ``SpectralGrid._box_products`` in 2D; chosen at N_2 = 256 only (16 and
#: 32 rows equal, 64 and 128 slower), where 9 fields of 32 rows take 576 KiB, 2.25 MiB at 1024
_ROW_BLOCK = 32


class ZeroModeError(ValueError):
    """A symbol singular at xi = 0 was applied to a field with nonzero mean."""


def check_mode_count(n: int) -> None:
    """Raise ValueError unless ``n`` is an admissible per-axis mode count (even, >= 8)."""
    if n < 8 or n % 2 != 0:
        raise ValueError(f"mode count must be even and >= 8, got {n}")


def _fft_size(n: int) -> int:
    """The smallest even integer >= ``n`` with no prime factor above 5."""
    m = max(n + n % 2, 2)
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 2


def _build_lattice(axes: tuple, extent: int) -> dict:
    """Symbols on the lattice whose last axis keeps its first ``extent`` indices.

    ``extent = N_d`` gives the full lattice, ``N_d/2 + 1`` the rFFT half
    lattice.  Every value is an elementwise function of the wavenumbers,
    so the half-lattice arrays equal the full-lattice slices bit for bit.
    """
    dim = len(axes)
    modes = tuple(a.size for a in axes)
    shape = modes[:-1] + (extent,)
    axes = axes[:-1] + (axes[-1][:extent],)
    if dim == 1:
        xi = (axes[0].copy(),)
    else:
        xi = tuple(np.meshgrid(axes[0], axes[1], indexing="ij"))
    xi_norm = np.sqrt(sum(c * c for c in xi))

    # Per-axis Nyquist planes: index N_i/2 along axis i, anything on
    # the other axes, as masks that broadcast over the lattice.  On
    # such a plane the xi_i coordinate has no negation partner, so
    # odd-in-xi_i symbols cannot be represented.  Self-conjugate
    # points have index 0 or N_i/2 on every axis.
    planes, grads = [], []
    self_conj = np.ones(shape, dtype=bool)
    for ax, n in enumerate(modes):
        sl: list = [None] * dim
        sl[ax] = slice(None)
        p1d = np.arange(axes[ax].size) == n // 2
        planes.append(p1d[tuple(sl)])
        grads.append(np.where(p1d, 0.0, 1j * axes[ax])[tuple(sl)])
        self_conj &= (p1d | (axes[ax] == 0))[tuple(sl)]
    region = self_conj.copy()
    for p in planes:
        region |= p

    with np.errstate(invalid="ignore", divide="ignore"):
        units = []
        for ax in range(dim):
            u = xi[ax] / xi_norm
            u[xi_norm == 0] = 0.0
            u[np.broadcast_to(planes[ax], shape)] = 0.0
            units.append(u)
    return dict(xi=xi, xi_norm=xi_norm, xi_unit=tuple(units), nyquist_region=region,
                self_conjugate=self_conj, grad=tuple(grads))


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Uniform periodic grid on [0, L_1) x ... x [0, L_d), d in {1, 2}.

    The half-lattice symbols are built at construction, each a whole
    contiguous array of the half lattice's shape (1.3 MiB at 2D 256²), so
    no product with one needs a buffer to broadcast it; the full-lattice
    ones (``xi``, ``xi_norm``, ``xi_unit``, ``self_conjugate``,
    ``nyquist_region``) by the same builder on first access.  The
    library's own operators read only the half-lattice symbols.

    ``_held`` is filled by ``diagnostics`` alone: the first Lyapunov block
    or equation residual on the grid puts there the workspace that every
    later one reuses (5.3 MiB of buffers at 2D 256², plus each shell's
    plan on them).  So a grid serves Lyapunov blocks and residuals in one
    thread at a time; the energy, Besov and Chemin-Lerner norms do not
    touch it.

    Attributes
    ----------
    axes : tuple of ndarray
        1d wavenumber arrays per axis in fft ordering.
    xi : tuple of ndarray
        Wavenumber component meshes, each of shape ``shape``.
    xi_norm : ndarray
        Pointwise Euclidean norm |xi|.
    cell_volume : float
        Volume of one grid cell, prod(L_i / N_i).
    self_conjugate : ndarray of bool
        Lattice points fixed by xi -> -xi (index 0 or N_i/2 on every axis).
    nyquist_region : ndarray of bool
        Points whose negation pairing involves an unpaired Nyquist
        coordinate (union of the per-axis Nyquist planes and the
        self-conjugate points); symbols are Hermitian-projected there.
    xi_unit : tuple of ndarray
        Direction symbols xi_i / |xi| with the zero mode and the axis-i
        Nyquist plane set to 0, so that they are genuinely odd on the
        lattice.
    half_xi_norm, half_xi_unit, half_nyquist_region
        ``xi_norm``, ``xi_unit`` and ``nyquist_region`` on the half
        lattice, as contiguous arrays of their own.
    half_parseval : ndarray
        Parseval weights times cell_volume / npoints on the half lattice:
        the weight is 1 on the k = 0 and k = N_d/2 columns, 2 in between.
    half_grad : tuple of ndarray
        Derivative symbols i xi_i on the half lattice, zero on the axis-i
        Nyquist plane (the rule ``xi_unit`` follows).
    """

    dim: int
    lengths: tuple[float, ...]
    modes: tuple[int, ...]
    axes: tuple[np.ndarray, ...] = field(init=False, repr=False)
    cell_volume: float = field(init=False, repr=False)
    volume: float = field(init=False, repr=False)
    half_xi_norm: np.ndarray = field(init=False, repr=False)
    half_xi_unit: tuple[np.ndarray, ...] = field(init=False, repr=False)
    half_nyquist_region: np.ndarray = field(init=False, repr=False)
    half_parseval: np.ndarray = field(init=False, repr=False)
    half_grad: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _held: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if len(self.lengths) != self.dim or len(self.modes) != self.dim:
            raise ValueError("lengths and modes must have one entry per axis")
        for L in self.lengths:
            if not (L > 0):
                raise ValueError(f"box length must be positive, got {L}")
        for n in self.modes:
            check_mode_count(n)

        axes = tuple(
            2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / L
            for n, L in zip(self.modes, self.lengths)
        )
        nh = self.modes[-1] // 2 + 1
        half = _build_lattice(axes, nh)
        shape = half["xi_norm"].shape
        cell_volume = float(np.prod([L / n for L, n in zip(self.lengths, self.modes)]))
        weights = np.full(nh, 2.0)
        weights[0] = weights[-1] = 1.0

        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "cell_volume", cell_volume)
        object.__setattr__(self, "volume", float(np.prod(self.lengths)))
        object.__setattr__(self, "half_xi_norm", half["xi_norm"])
        object.__setattr__(self, "half_xi_unit", half["xi_unit"])
        object.__setattr__(self, "half_nyquist_region", half["nyquist_region"])
        object.__setattr__(self, "half_parseval", np.broadcast_to(weights * (cell_volume / self.npoints), shape).copy())
        object.__setattr__(self, "half_grad", tuple(np.broadcast_to(g, shape).copy() for g in half["grad"]))

    @cached_property
    def _full(self) -> dict:
        return _build_lattice(self.axes, self.modes[-1])

    xi = property(lambda self: self._full["xi"])
    xi_norm = property(lambda self: self._full["xi_norm"])
    xi_unit = property(lambda self: self._full["xi_unit"])
    nyquist_region = property(lambda self: self._full["nyquist_region"])
    self_conjugate = property(lambda self: self._full["self_conjugate"])

    @property
    def shape(self) -> tuple[int, ...]:
        return self.modes

    @property
    def zero_index(self) -> tuple[int, ...]:
        return (0,) * self.dim

    @property
    def npoints(self) -> int:
        return int(np.prod(self.modes))

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Physical-space coordinate meshes, one array per axis."""
        axes = [L * np.arange(n) / n for L, n in zip(self.lengths, self.modes)]
        if self.dim == 1:
            return (axes[0],)
        return tuple(np.meshgrid(axes[0], axes[1], indexing="ij"))

    def half(self, m: np.ndarray) -> np.ndarray:
        """Half-lattice view ``m[..., :N_d/2 + 1]`` of a full-lattice array."""
        return m[..., : self.modes[-1] // 2 + 1]

    def rfft(self, f: np.ndarray) -> np.ndarray:
        """Half spectrum of a real scalar or vector field: ``rfftn``'s steps, bit for bit."""
        return self._rfft(np.asarray(f, dtype=float))

    def _rfft(self, f: np.ndarray, ncols: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
        """``rfft`` into ``out``, then in 2D ``fft`` over the first axis in place on ``ncols`` columns."""
        spec = np.fft.rfft(f, axis=-1, out=out)
        if self.dim == 2:
            cols = spec[..., :ncols]
            np.fft.fft(cols, axis=-2, out=cols)
        return spec

    def irfft(self, fhat: np.ndarray, out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> np.ndarray:
        """Inverse of :meth:`rfft`, leading component axes kept: ``irfftn``'s steps, bit for bit.

        In 2D ``ifft`` over the first axis runs into ``work`` (complex, of ``fhat``'s shape, may be
        ``fhat``; allocated when not given), then ``irfft`` with n = N_d into ``out``.  ``fhat``
        may hold only the first columns of the half spectra; the rest count as zero.
        """
        return self._irfft(fhat, self.modes[-1], out, work)

    def _irfft(self, fhat: np.ndarray, n: int, out: np.ndarray | None = None,
               work: np.ndarray | None = None) -> np.ndarray:
        """:meth:`irfft` onto ``n`` points along the last axis and ``fhat``'s rows along the first."""
        if self.dim == 2:
            fhat = np.fft.ifft(fhat, axis=-2, out=work)
        return np.fft.irfft(fhat, n=n, out=out)

    # -- the box |k_i| <= K_i: half spectra that vanish outside it ---------
    #
    # A box array keeps last-axis indices 0..K_d and, in 2D, the rows
    # 0..K_1 followed by N_1 - K_1..N_1 - 1 (k_1 = -K_1..-1), in the half
    # lattice's order.  ``kept`` is the tuple (K_1, ..., K_d), K_i <= N_i/2;
    # K_i = N_i/2 keeps the whole axis, Nyquist index included (in 2D all
    # N_1 rows, in the half lattice's order).
    #
    # The coarse inverse, ``_box_irfft`` with ``modes`` = (M_1, ..., M_d),
    # samples the field of box spectra on the lattice of M_i points per axis
    # over the same box.  A product of fields with boxes K^(1), ..., K^(n)
    # holds |k_i| <= sum_f K^(f)_i, so on that lattice no aliased term
    # reaches its zero mode and its sum times prod(L_i/M_i) is its integral,
    # exact up to roundoff, once M_i > sum_f K^(f)_i.  ``_product_modes``
    # gives the smallest such M_i that is even and 2*3*5-smooth (and holds
    # each box, M_i > 2 K^(f)_i), capped at N_i: there the sum is the
    # grid's own, aliased as on the grid.

    def _box_shape(self, kept: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(min(2 * k + 1, n) for k, n in zip(kept[:-1], self.modes)) + (kept[-1] + 1,)

    def _box_index(self, kept: tuple[int, ...], rows: int) -> list:
        """(box index, index into an array of ``rows`` rows) pairs, one per slab of rows.

        The second index applies to half spectra on the grid (``rows`` = N_1)
        or on a coarse lattice (M_1), of at least K_d + 1 columns.
        """
        cols = slice(0, kept[-1] + 1)
        if self.dim == 1:
            return [((slice(None),), (cols,))]
        k = kept[0]
        if 2 * k >= rows:
            return [((slice(None), slice(None)), (slice(None), cols))]
        return [((slice(0, k + 1), slice(None)), (slice(0, k + 1), cols)),
                ((slice(k + 1, None), slice(None)), (slice(rows - k, rows), cols))]

    def _outside_index(self, kept: tuple[int, ...]) -> np.ndarray:
        """The flat half-lattice positions of every mode outside the box, increasing."""
        outside = np.ones(self.half_xi_norm.shape, dtype=bool)
        for _, h in self._box_index(kept, self.modes[0]):
            outside[h] = False
        return np.flatnonzero(outside)

    def _box_gather(self, x: np.ndarray, kept: tuple[int, ...], out: np.ndarray | None = None) -> np.ndarray:
        """The box part of half spectra ``x`` (leading component axes kept)."""
        if out is None:
            out = np.empty(x.shape[:-self.dim] + self._box_shape(kept), dtype=x.dtype)
        for b, h in self._box_index(kept, x.shape[-self.dim]):
            out[(Ellipsis,) + b] = x[(Ellipsis,) + h]
        return out

    def _box_scatter(self, box: np.ndarray, kept: tuple[int, ...], out: np.ndarray) -> np.ndarray:
        """Write ``box`` into the box part of half spectra ``out``; the rest is left as it is."""
        for b, h in self._box_index(kept, out.shape[-self.dim]):
            out[(Ellipsis,) + h] = box[(Ellipsis,) + b]
        return out

    def _box_columns(self, box, kept: tuple[int, ...], work: np.ndarray) -> np.ndarray:
        """In 2D, ``box`` zero-filled and scattered onto the K_2 + 1 kept columns of ``work[:F]``."""
        k, rows = kept[0], work.shape[-2]
        cols = work[:len(box), :, :kept[1] + 1]
        cols[:, k + 1:rows - k] = 0
        for c, b in zip(cols, box):
            self._box_scatter(b, kept, c)
        return cols

    def _box_irfft(self, box, kept: tuple[int, ...], out: np.ndarray | None = None,
                   work: np.ndarray | None = None, modes: tuple[int, ...] | None = None) -> np.ndarray:
        """:meth:`irfft` of the half spectra that equal ``box`` on the box and vanish outside it.

        In 2D the kept columns are transformed in place in ``work`` (complex;
        allocated when not given), which may be ``box`` on a whole box.  With
        ``modes`` = (M_1, ..., M_d) the result is sampled on the coarse
        lattice (see the box section); each M_i must exceed 2 K_i, or equal N_i.
        """
        modes = self.modes if modes is None else tuple(modes)
        for k, m, n in zip(kept, modes, self.modes):
            if not (2 * k < m <= n or m == n):
                raise ValueError(f"a box of K = {kept} does not fit a lattice of {modes} points")
        if self.dim == 1:
            f = self._irfft(box, modes[0], out=out)
        else:
            if work is None:
                work = np.empty((len(box), modes[0], kept[1] + 1), dtype=complex)
            cols = box if work is box else self._box_columns(box, kept, work[:, :modes[0]])
            f = self._irfft(cols, modes[1], out=out, work=cols)
        if modes != self.modes:
            f *= math.prod(modes) / self.npoints
        return f

    def _block_shape(self) -> tuple[int, int]:
        return (min(_ROW_BLOCK, self.modes[0]) if self.dim == 2 else 1, self.modes[-1])

    def _box_products(self, box, kept: tuple[int, ...], form, out: np.ndarray, work: np.ndarray,
                      blocks: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Box part of ``rfft(form(irfft(box)))`` into ``out``, bit for bit, a block of rows at a time.

        ``form(fields, products)`` fills ``blocks[1]`` from ``blocks[0]`` (of
        :meth:`_block_shape`); ``work``, max(F, P) half spectra, has a block's
        rows rewritten only after ``irfft`` has read them.  In 2D ``irfft``
        reads whole rows of ``work``, their columns past K_2 zeroed just
        before, a block at a time (an earlier call's forward transform left
        its products there): NumPy's own zero padding of the K_2 + 1 kept
        columns is slower.  In 1D it reads the box, its columns past K_1
        counting as zero: a whole row, the box copied in, measured faster
        by 2-7% of a tendency at N <= 16384 but slower by 10-29% at
        N >= 32768, where NumPy's inverse of whole rows is the slow one.
        """
        fields, products = blocks
        nprod = len(products)
        if self.dim == 2:
            cols = self._box_columns(box, kept, work)
            np.fft.ifft(cols, axis=-2, out=cols)
            rows, inputs, tail = work, work[:len(cols)], work[:len(cols), :, kept[1] + 1:]
        else:
            rows, inputs, tail = work[:, None], box[:, None], None
        height = fields.shape[-2]
        for r0 in range(0, rows.shape[-2], height):
            r = min(height, rows.shape[-2] - r0)
            if tail is not None:
                tail[:, r0:r0 + r] = 0
            f = np.fft.irfft(inputs[:, r0:r0 + r], n=self.modes[-1], out=fields[:, :r])
            form(f, products[:, :r])
            np.fft.rfft(products[:, :r], axis=-1, out=rows[:nprod, r0:r0 + r])
        if self.dim == 2:
            cols = work[:nprod, :, :kept[1] + 1]
            np.fft.fft(cols, axis=-2, out=cols)
        return self._box_gather(work[:nprod], kept, out)

    def _support_box(self, m: np.ndarray) -> tuple[int, ...]:
        """The box of half-lattice array ``m``'s support: K_i = max |k_i| where m != 0 (0 if none).

        K_i = N_i/2 where the support reaches axis i's Nyquist index.
        """
        nonzero = m != 0
        kept = []
        for ax, n in enumerate(self.modes):
            others = tuple(i for i in range(self.dim) if i != ax)
            index = np.flatnonzero(nonzero.any(axis=others) if others else nonzero)
            if ax < self.dim - 1:
                index = np.minimum(index, n - index)
            kept.append(int(index.max()) if index.size else 0)
        return tuple(kept)

    def _product_modes(self, *boxes: tuple[int, ...]) -> tuple[int, ...]:
        """The smallest alias-free lattice of the product of fields with these boxes (box section)."""
        return tuple(min(_fft_size(max(sum(ks), 2 * max(ks)) + 1), n)
                     for ks, n in zip(zip(*boxes), self.modes))

    def min_nonzero_wavenumber(self) -> float:
        return float(min(2.0 * np.pi / L for L in self.lengths))

    def max_wavenumber(self) -> float:
        return float(np.max(self.half_xi_norm))

    def dealias_box(self, fraction: float = 2.0 / 3.0) -> tuple[int, ...]:
        """The kept box (K_1, ..., K_d) of a dealias fraction f: K_i = min(floor(f N_i / 2), cap).

        For f <= 2/3 the cap is ceil(N_i / 3) - 1, the largest alias-free
        box (3 K_i < N_i, Orszag's 2/3 rule); above 2/3 it is N_i / 2 - 1.
        """
        if not (0 < fraction <= 1):
            raise ValueError(f"dealias fraction must lie in (0, 1], got {fraction}")
        caps = [-(-n // 3) - 1 if fraction <= 2.0 / 3.0 else n // 2 - 1 for n in self.modes]
        return tuple(min(math.floor(fraction * n / 2), cap) for n, cap in zip(self.modes, caps))

    def dealias_mask(self, fraction: float = 2.0 / 3.0) -> np.ndarray:
        """Boolean mask of :meth:`dealias_box` on the full lattice, |k_i| <= K_i per axis."""
        mask = np.ones(self.shape, dtype=bool)
        for ax, (n, kept) in enumerate(zip(self.modes, self.dealias_box(fraction))):
            index = np.arange(n)
            mask &= (np.minimum(index, n - index) <= kept).reshape((-1,) + (1,) * (self.dim - 1 - ax))
        return mask


@dataclass
class FieldState:
    """Density fluctuation ``a``, velocity ``u`` (shape (dim, *grid.shape)), time ``t``."""

    a: np.ndarray
    u: np.ndarray
    t: float = 0.0

    def copy(self) -> "FieldState":
        return FieldState(self.a.copy(), self.u.copy(), self.t)


@dataclass(frozen=True)
class RieszParams:
    """Coefficients of the damped system with fractional interaction force.

    ``alpha`` is the interaction exponent, constrained to d-2 < alpha < d.
    The derived index ``s_star = (alpha - dim + 2) / 2`` lies in (0, 1);
    the interaction force on the density fluctuation has symbol
    i xi |xi|^(2 s_star - 2) per component, scaled by ``kappa``.
    """

    dim: int
    alpha: float
    lam: float = 1.0
    kappa: float = 1.0
    rho_bar: float = 1.0

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not (self.dim - 2 < self.alpha < self.dim):
            raise ValueError(
                f"alpha must satisfy d-2 < alpha < d; got alpha={self.alpha} for d={self.dim}"
            )
        for name in ("lam", "kappa", "rho_bar"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def s_star(self) -> float:
        return (self.alpha - self.dim + 2.0) / 2.0

    @classmethod
    def from_s_star(cls, dim: int, s_star: float, **coefficients: float) -> "RieszParams":
        """The params of index ``s_star``; ``lam``, ``kappa`` and ``rho_bar`` are passed on as given."""
        if not (0.0 < s_star < 1.0):
            raise ValueError(f"s_star must lie in (0, 1), got {s_star}")
        return cls(dim=dim, alpha=dim - 2.0 + 2.0 * s_star, **coefficients)


def make_grid(dim: int, lengths, modes) -> SpectralGrid:
    """Build a :class:`SpectralGrid`; scalars are promoted to per-axis tuples."""
    if np.isscalar(lengths):
        lengths = (float(lengths),) * dim
    if np.isscalar(modes):
        modes = (int(modes),) * dim
    return SpectralGrid(dim=dim, lengths=tuple(float(L) for L in lengths), modes=tuple(int(n) for n in modes))


def _mean_zero_violation(field: np.ndarray) -> float:
    # max |f| as max(max f, -min f), which makes no array
    scale = max(1.0, float(np.max(field)), -float(np.min(field))) if field.size else 1.0
    return abs(float(np.mean(field))) / scale


def _require_mean_zero(field: np.ndarray, what: str) -> None:
    if _mean_zero_violation(field) > MEAN_ZERO_RTOL:
        raise ZeroModeError(
            f"{what} requires a mean-zero field; relative mean is {_mean_zero_violation(field):.3e}"
        )


def _scalar_field(grid: SpectralGrid, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != grid.shape:
        raise ValueError(f"field shape {f.shape} does not match grid shape {grid.shape}")
    return f


def _vector_field(grid: SpectralGrid, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.dim,) + grid.shape:
        raise ValueError("vector field must have shape (dim, *grid.shape)")
    return v


def state_fields(grid: SpectralGrid, state: FieldState) -> tuple[np.ndarray, np.ndarray]:
    """``(a, u)`` of a state as float arrays, checked against the grid's shapes."""
    a = np.asarray(state.a, dtype=float)
    u = np.asarray(state.u, dtype=float)
    if a.shape != grid.shape or u.shape != (grid.dim,) + grid.shape:
        raise ValueError("state shapes do not match the grid")
    return a, u


def _evaluate_symbol(grid: SpectralGrid, symbol) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = symbol(*grid.xi) if callable(symbol) else symbol
        m = np.asarray(m, dtype=complex)
    if m.shape != grid.shape:
        m = np.broadcast_to(m, grid.shape)
    return np.array(m, dtype=complex)


def _negate_lattice(m: np.ndarray) -> np.ndarray:
    """Values of ``m`` at the negated lattice points, m(-xi mod lattice)."""
    out = m
    for ax in range(m.ndim):
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


def apply_multiplier(grid: SpectralGrid, field: np.ndarray, symbol) -> np.ndarray:
    """Apply a Fourier multiplier to a real scalar field: irfftn(m * rfftn(f)).

    ``symbol`` is either an ndarray over the wavenumber lattice or a
    callable invoked with one wavenumber-component mesh per axis.  A
    non-finite symbol value at xi = 0 is allowed only for mean-zero
    fields and is replaced by 0; non-finite values elsewhere are an
    error.  Off the Nyquist region the symbol must be Hermitian,
    m(-xi) = conj(m(xi)) to ``REALITY_RTOL`` relative to max |m|, whatever
    the field's content.  On the Nyquist region (planes with an unpaired
    Nyquist coordinate, plus self-conjugate points) the symbol is
    projected onto its Hermitian part, which zeroes odd symbols such as
    i*xi_1 on the k_1 = N_1/2 plane.
    """
    field = _scalar_field(grid, field)
    m = _evaluate_symbol(grid, symbol)

    zero = grid.zero_index
    if not (np.isfinite(m[zero].real) and np.isfinite(m[zero].imag)):
        _require_mean_zero(field, "a multiplier singular at xi = 0")
        m[zero] = 0.0
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("multiplier symbol is non-finite away from the zero mode")

    mirror = np.conj(_negate_lattice(m))
    ny = grid.nyquist_region
    if float(np.max(np.abs(m - mirror)[~ny])) > REALITY_RTOL * float(np.max(np.abs(m))):
        raise ValueError("multiplier symbol is not Hermitian: m(-xi) != conj(m(xi)) off the Nyquist region")
    m[ny] = 0.5 * (m[ny] + mirror[ny])
    return grid.irfft(grid.half(m) * grid.rfft(field))


def _half_power(grid: SpectralGrid, sigma: float, out: np.ndarray | None = None) -> np.ndarray:
    """|xi|^sigma on the half lattice, with the zero mode mapped to 0, formed in ``out`` if given."""
    power = np.positive(grid.half_xi_norm, out=out)
    with np.errstate(divide="ignore"):
        power **= sigma  # the values of half_xi_norm ** sigma
    power[grid.zero_index] = 0.0
    return power


def frac_lambda(grid: SpectralGrid, field: np.ndarray, sigma: float) -> np.ndarray:
    """Fractional operator |nabla|^sigma, multiplier |xi|^sigma.

    sigma = 0 is the exact identity.  Negative powers are singular at
    the zero mode and therefore require a mean-zero field.
    """
    field = np.asarray(field, dtype=float)
    if field.ndim == grid.dim + 1:
        return np.stack([frac_lambda(grid, comp, sigma) for comp in field])
    if sigma == 0:
        return field.copy()
    field = _scalar_field(grid, field)
    if sigma < 0:
        _require_mean_zero(field, "a multiplier singular at xi = 0")
    m = _half_power(grid, sigma)
    if not np.all(np.isfinite(m)):
        raise ValueError("multiplier symbol is non-finite away from the zero mode")
    return grid.irfft(m * grid.rfft(field))


def grad_frac_lambda(grid: SpectralGrid, field: np.ndarray, sigma: float) -> np.ndarray:
    """Gradient composed with |nabla|^sigma: component i has symbol i xi_i |xi|^sigma.

    A negative sigma is singular at xi = 0 and requires a mean-zero field.
    """
    field = _scalar_field(grid, field)
    if sigma < 0:
        _require_mean_zero(field, "a multiplier singular at xi = 0")
    return grid.irfft(half_grad_frac(grid, grid.rfft(field), sigma))


def riesz_force(grid: SpectralGrid, a: np.ndarray, params: RieszParams) -> np.ndarray:
    """Interaction force kappa * grad |nabla|^(2 s_star - 2) a.

    Requires a mean-zero density fluctuation since the symbol is
    singular at xi = 0.  The divergence of the result equals
    -kappa |nabla|^(2 s_star) a.
    """
    return params.kappa * grad_frac_lambda(grid, a, 2.0 * params.s_star - 2.0)


def gradient(grid: SpectralGrid, f: np.ndarray) -> np.ndarray:
    return grad_frac_lambda(grid, f, 0.0)


def divergence(grid: SpectralGrid, v: np.ndarray) -> np.ndarray:
    return grid.irfft(half_divergence(grid, grid.rfft(_vector_field(grid, v))))


def curl(grid: SpectralGrid, v: np.ndarray) -> np.ndarray:
    """Scalar curl d1 v2 - d2 v1 for d = 2; identically zero for d = 1."""
    v = _vector_field(grid, v)
    if grid.dim == 1:
        return np.zeros(grid.shape)
    v_hat = grid.rfft(v)
    return grid.irfft(grid.half_grad[0] * v_hat[1] - grid.half_grad[1] * v_hat[0])


def hodge_split(grid: SpectralGrid, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a mean-zero velocity into compressible and rotational scalars.

    Returns ``(m, omega)`` with m the scalar |nabla|^(-1) div u and
    omega the scalar |nabla|^(-1) curl u (zero for d = 1).  The unit
    symbols xi_i/|xi| vanish on their own Nyquist plane, so velocity
    content there is assigned to neither scalar.
    """
    u = _vector_field(grid, u)
    for i in range(grid.dim):
        _require_mean_zero(u[i], "the Hodge split (|nabla|^(-1) is singular at xi = 0)")
    u_hat = grid.rfft(u)
    units = grid.half_xi_unit
    m = grid.irfft(1j * sum(units[i] * u_hat[i] for i in range(grid.dim)))
    if grid.dim == 1:
        return m, np.zeros(grid.shape)
    return m, grid.irfft(1j * (units[0] * u_hat[1] - units[1] * u_hat[0]))


def hodge_reconstruct(grid: SpectralGrid, m: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Inverse of :func:`hodge_split`: u = -|nabla|^(-1) grad m + rotational part."""
    units = grid.half_xi_unit
    m_hat = grid.rfft(_scalar_field(grid, m))
    comps = [-1j * n * m_hat for n in units]
    if grid.dim == 2:
        w_hat = grid.rfft(_scalar_field(grid, omega))
        comps[0] = comps[0] + 1j * units[1] * w_hat
        comps[1] = comps[1] - 1j * units[0] * w_hat
    return grid.irfft(np.stack(comps))


def _pointwise_magnitude(grid: SpectralGrid, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape == grid.shape:
        return np.abs(f)
    if f.shape == (grid.dim,) + grid.shape:
        return np.sqrt(np.sum(f * f, axis=0))
    raise ValueError(f"unexpected field shape {f.shape}")


def lp_norm(grid: SpectralGrid, f: np.ndarray, p: float) -> float:
    """Discrete L^p norm; vector fields use the pointwise Euclidean magnitude."""
    mag = _pointwise_magnitude(grid, f)
    if p == np.inf:
        return float(np.max(mag))
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float((grid.cell_volume * np.sum(mag**p)) ** (1.0 / p))


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


def spectral_power(grid: SpectralGrid, fhat: np.ndarray, out: np.ndarray | None = None,
                   work: np.ndarray | None = None) -> np.ndarray:
    """Parseval density of a half spectrum: its sum is ||f||_2^2.

    Holds |fhat|^2 times ``half_parseval`` on the half lattice, summed over
    the leading component axes of a vector field left to right, formed in
    ``out`` (a float half spectrum) with the squares in ``work`` (a stack of
    two, one for a scalar field); both are allocated when not given.
    """
    shape = grid.half_parseval.shape
    parts = fhat.reshape((-1,) + shape)
    out = np.empty(shape) if out is None else out
    work = np.empty((min(len(parts), 2),) + shape) if work is None else work
    for k, c in enumerate(parts):
        square = work[0] if k else out
        np.square(c.real, out=square)
        square += np.square(c.imag, out=work[-1])
        if k:
            out += square
    out *= grid.half_parseval
    return out


def spectral_inner(grid: SpectralGrid, fhat: np.ndarray, ghat: np.ndarray) -> float:
    """Integral of f . g over the domain from two half spectra or two box arrays (Parseval)."""
    # the interior columns weigh 2: twice the whole sum, less the k = 0 and k = N_d/2 columns
    total = 2.0 * np.vdot(fhat, ghat).real - np.vdot(fhat[..., 0], ghat[..., 0]).real
    if fhat.shape[-1] == grid.half_parseval.shape[-1]:
        total -= np.vdot(fhat[..., -1], ghat[..., -1]).real
    return grid.cell_volume / grid.npoints * float(total)


def half_l2(grid: SpectralGrid, fhat: np.ndarray, out: np.ndarray | None = None,
            work: np.ndarray | None = None) -> float:
    """L^2 norm of a scalar or vector field from its half spectrum (Parseval).

    The density is formed in ``out`` and ``work`` as in :func:`spectral_power`.
    """
    return math.sqrt(float(np.sum(spectral_power(grid, fhat, out=out, work=work))))


def spectral_l2(grid: SpectralGrid, f: np.ndarray) -> float:
    """L^2 norm computed on the spectral side (Parseval route)."""
    return half_l2(grid, grid.rfft(f))


def half_divergence(grid: SpectralGrid, vhat: np.ndarray, out: np.ndarray | None = None,
                    work: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum of div v from the half spectrum of v (cf. :func:`divergence`), into ``out`` if given.

    The terms i xi_i vhat_i are added left to right into the first; those
    after it are formed in ``work`` (a complex half spectrum) if given.
    """
    out = np.multiply(grid.half_grad[0], vhat[0], out=out)
    for g, v in zip(grid.half_grad[1:], vhat[1:]):
        out += np.multiply(g, v, out=work)
    return out


def half_grad_frac(grid: SpectralGrid, fhat: np.ndarray, sigma: float, out: np.ndarray | None = None,
                   work: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum of grad |nabla|^sigma f (cf. :func:`grad_frac_lambda`), into ``out`` if given.

    Component i is formed in place as (i xi_i |xi|^sigma) fhat, the symbol
    by :func:`_real_times`, with |xi|^sigma in ``work`` (a float half
    spectrum) if given.  The zero mode is mapped to 0, so a negative sigma
    needs a mean-zero f.  ``fhat`` is the half spectrum of one scalar field.
    """
    if np.shape(fhat) != grid.half_xi_norm.shape:
        raise ValueError(f"half_grad_frac takes one scalar half spectrum of shape {grid.half_xi_norm.shape}, "
                         f"got {np.shape(fhat)}")
    power = _half_power(grid, sigma, out=work)
    if out is None:
        out = np.empty((grid.dim,) + power.shape, dtype=complex)
    return _power_grad(grid, power, fhat, out)


def _power_grad(grid: SpectralGrid, power: np.ndarray, fhat: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`half_grad_frac` with |xi|^sigma formed by the caller (``power``, of :func:`_half_power`)."""
    for g, o in zip(grid.half_grad, out):
        _real_times(power, g, out=o)
        o *= fhat
    return out

