"""Periodic spectral grid and Fourier-multiplier operators.

Conventions shared by every module in the package:

* On axis i with N_i modes and box length L_i the wavenumber lattice is
  xi_k = 2*pi*k/L_i for integer k in [-N_i/2, N_i/2).  The lattice is
  symmetric about zero except for the unpaired Nyquist mode k = -N_i/2.
* Fields are real, so every operator works on the real-to-complex half
  spectrum: ``rfftn`` over the trailing ``dim`` axes keeps last-axis
  indices 0..N_d/2.  Half-lattice arrays are the ``[..., :N_d/2 + 1]``
  slices of the full-lattice ones.  Multipliers act as
  f -> irfftn(m(xi) * rfftn(f)).  The zero mode carries the spatial mean.
  A symbol that is singular at xi = 0 may only be applied to a mean-zero
  field; the zero mode is then mapped to 0.
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
    "half_compressible",
    "state_fields",
]

#: relative tolerance used to decide whether a field counts as mean-zero
MEAN_ZERO_RTOL = 1e-10

#: relative tolerance on the Hermitian symmetry m(-xi) = conj(m(xi)) of a symbol
REALITY_RTOL = 1e-10


class ZeroModeError(ValueError):
    """A symbol singular at xi = 0 was applied to a field with nonzero mean."""


def check_mode_count(n: int) -> None:
    """Raise ValueError unless ``n`` is an admissible per-axis mode count (even, >= 8)."""
    if n < 8 or n % 2 != 0:
        raise ValueError(f"mode count must be even and >= 8, got {n}")


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Uniform periodic grid on [0, L_1) x ... x [0, L_d), d in {1, 2}.

    Derived arrays are cached at construction:

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
    half_xi_norm : ndarray
        |xi| on the half lattice (a view of ``xi_norm``).
    half_weights : ndarray
        Parseval weights along the last half-lattice axis: 1 on the
        k = 0 and k = N_d/2 columns, 2 in between.
    half_grad : tuple of ndarray
        Derivative symbols i xi_i on the half lattice, zero on the axis-i
        Nyquist plane (the rule ``xi_unit`` follows); each varies along
        its own axis only and broadcasts over the half lattice.
    """

    dim: int
    lengths: tuple[float, ...]
    modes: tuple[int, ...]
    axes: tuple[np.ndarray, ...] = field(init=False, repr=False)
    xi: tuple[np.ndarray, ...] = field(init=False, repr=False)
    xi_norm: np.ndarray = field(init=False, repr=False)
    cell_volume: float = field(init=False, repr=False)
    volume: float = field(init=False, repr=False)
    self_conjugate: np.ndarray = field(init=False, repr=False)
    nyquist_region: np.ndarray = field(init=False, repr=False)
    xi_unit: tuple[np.ndarray, ...] = field(init=False, repr=False)
    half_xi_norm: np.ndarray = field(init=False, repr=False)
    half_weights: np.ndarray = field(init=False, repr=False)
    half_grad: tuple[np.ndarray, ...] = field(init=False, repr=False)

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
        if self.dim == 1:
            xi = (axes[0].copy(),)
        else:
            gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
            xi = (gx, gy)
        xi_norm = np.sqrt(sum(c * c for c in xi))

        # Per-axis Nyquist planes: index N_i/2 along axis i, anything on
        # the other axes, as masks that broadcast over the lattice.  On
        # such a plane the xi_i coordinate has no negation partner, so
        # odd-in-xi_i symbols cannot be represented.  Self-conjugate
        # points have index 0 or N_i/2 on every axis.
        planes, axis_xi = [], []
        self_conj = np.ones(self.modes, dtype=bool)
        for ax, n in enumerate(self.modes):
            sl: list = [None] * self.dim
            sl[ax] = slice(None)
            p1d = np.zeros(n, dtype=bool)
            p1d[n // 2] = True
            planes.append(p1d[tuple(sl)])
            axis_xi.append(axes[ax][tuple(sl)])
            self_conj &= (p1d | (axes[ax] == 0))[tuple(sl)]
        region = self_conj.copy()
        for p in planes:
            region |= p

        with np.errstate(invalid="ignore", divide="ignore"):
            units = []
            for ax in range(self.dim):
                u = xi[ax] / xi_norm
                u[xi_norm == 0] = 0.0
                u[np.broadcast_to(planes[ax], self.modes)] = 0.0
                units.append(u)

        nh = self.modes[-1] // 2 + 1
        weights = np.full(nh, 2.0)
        weights[0] = weights[-1] = 1.0
        grads = tuple(self.half(np.where(p, 0.0, 1j * k)) for p, k in zip(planes, axis_xi))

        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "xi_norm", xi_norm)
        object.__setattr__(self, "cell_volume", float(np.prod([L / n for L, n in zip(self.lengths, self.modes)])))
        object.__setattr__(self, "volume", float(np.prod(self.lengths)))
        object.__setattr__(self, "self_conjugate", self_conj)
        object.__setattr__(self, "nyquist_region", region)
        object.__setattr__(self, "xi_unit", tuple(units))
        object.__setattr__(self, "half_xi_norm", self.half(xi_norm))
        object.__setattr__(self, "half_weights", weights)
        object.__setattr__(self, "half_grad", grads)

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
        """Half spectrum of a real scalar or vector field, one transform over the trailing axes."""
        return np.fft.rfftn(np.asarray(f, dtype=float), axes=tuple(range(-self.dim, 0)))

    def irfft(self, fhat: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`rfft`; leading component axes are kept."""
        return np.fft.irfftn(fhat, s=self.modes, axes=tuple(range(-self.dim, 0)))

    def min_nonzero_wavenumber(self) -> float:
        return float(min(2.0 * np.pi / L for L in self.lengths))

    def max_wavenumber(self) -> float:
        return float(np.max(self.xi_norm))

    def dealias_mask(self, fraction: float = 2.0 / 3.0) -> np.ndarray:
        """Boolean mask keeping |k_i| <= floor(fraction * N_i / 2) per axis.

        The Nyquist index is always removed, even at fraction 1.0.
        """
        if not (0 < fraction <= 1):
            raise ValueError(f"dealias fraction must lie in (0, 1], got {fraction}")
        mask = np.ones(self.shape, dtype=bool)
        for ax, n in enumerate(self.modes):
            kept = min(int(math.floor(fraction * n / 2)), n // 2 - 1)
            k = np.fft.fftfreq(n, d=1.0 / n).astype(int)
            keep_1d = np.abs(k) <= kept
            sl: list = [None] * self.dim
            sl[ax] = slice(None)
            mask &= keep_1d[tuple(sl)] if self.dim == 2 else keep_1d
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
    def from_s_star(
        cls,
        dim: int,
        s_star: float,
        lam: float = 1.0,
        kappa: float = 1.0,
        rho_bar: float = 1.0,
    ) -> "RieszParams":
        if not (0.0 < s_star < 1.0):
            raise ValueError(f"s_star must lie in (0, 1), got {s_star}")
        return cls(dim=dim, alpha=dim - 2.0 + 2.0 * s_star, lam=lam, kappa=kappa, rho_bar=rho_bar)


def make_grid(dim: int, lengths, modes) -> SpectralGrid:
    """Build a :class:`SpectralGrid`; scalars are promoted to per-axis tuples."""
    if np.isscalar(lengths):
        lengths = (float(lengths),) * dim
    if np.isscalar(modes):
        modes = (int(modes),) * dim
    return SpectralGrid(dim=dim, lengths=tuple(float(L) for L in lengths), modes=tuple(int(n) for n in modes))


def _mean_zero_violation(field: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(field))) if field.size else 1.0)
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
    with np.errstate(divide="ignore", invalid="ignore"):
        m = grid.xi_norm**sigma
    return apply_multiplier(grid, field, m)


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
    m = grid.irfft(half_compressible(grid, u_hat))
    if grid.dim == 1:
        return m, np.zeros(grid.shape)
    n0, n1 = (grid.half(c) for c in grid.xi_unit)
    return m, grid.irfft(1j * (n0 * u_hat[1] - n1 * u_hat[0]))


def hodge_reconstruct(grid: SpectralGrid, m: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Inverse of :func:`hodge_split`: u = -|nabla|^(-1) grad m + rotational part."""
    units = [grid.half(c) for c in grid.xi_unit]
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


def spectral_power(grid: SpectralGrid, fhat: np.ndarray) -> np.ndarray:
    """Parseval density of a half spectrum: its sum is ||f||_2^2.

    Holds the weighted |fhat|^2 times cell_volume / npoints on the half
    lattice, summed over the leading component axes of a vector field.
    """
    power = fhat.real**2 + fhat.imag**2
    if power.ndim > grid.dim:
        power = power.reshape((-1,) + power.shape[-grid.dim:]).sum(axis=0)
    return power * (grid.half_weights * (grid.cell_volume / grid.npoints))


def spectral_inner(grid: SpectralGrid, fhat: np.ndarray, ghat: np.ndarray) -> float:
    """Integral of f . g over the box from two half spectra (Parseval)."""
    prod = (fhat.real * ghat.real + fhat.imag * ghat.imag).reshape(-1, grid.half_weights.size)
    return grid.cell_volume / grid.npoints * float(prod.sum(axis=0) @ grid.half_weights)


def half_l2(grid: SpectralGrid, fhat: np.ndarray) -> float:
    """L^2 norm of a scalar or vector field from its half spectrum (Parseval)."""
    return math.sqrt(float(np.sum(spectral_power(grid, fhat))))


def spectral_l2(grid: SpectralGrid, f: np.ndarray) -> float:
    """L^2 norm computed on the spectral side (Parseval route)."""
    return half_l2(grid, grid.rfft(f))


def half_divergence(grid: SpectralGrid, vhat: np.ndarray) -> np.ndarray:
    """Half spectrum of div v from the half spectrum of v (cf. :func:`divergence`)."""
    return sum(grid.half_grad[i] * vhat[i] for i in range(grid.dim))


def half_grad_frac(grid: SpectralGrid, fhat: np.ndarray, sigma: float) -> np.ndarray:
    """Half spectrum of grad |nabla|^sigma f (cf. :func:`grad_frac_lambda`).

    The zero mode is mapped to 0, so a negative sigma needs a mean-zero f.
    """
    with np.errstate(divide="ignore"):
        power = grid.half_xi_norm**sigma
    power[grid.zero_index] = 0.0
    return np.stack([g * power * fhat for g in grid.half_grad])


def half_compressible(grid: SpectralGrid, uhat: np.ndarray) -> np.ndarray:
    """Half spectrum of the compressible scalar |nabla|^(-1) div u: i sum_i (xi_i/|xi|) u_i."""
    return 1j * sum(grid.half(grid.xi_unit[i]) * uhat[i] for i in range(grid.dim))
