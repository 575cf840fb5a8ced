"""Dyadic Littlewood-Paley decomposition and Besov-type norms.

The partition is built from a fixed smooth radial profile ``chi`` that
equals 1 on |xi| <= 3/4 and 0 on |xi| >= 4/3, with an exp-based bump in
between.  The shell profile is phi(xi) = chi(xi/2) - chi(xi), supported
on the annulus 3/4 <= |xi| <= 8/3, and the dyadic family phi(xi / 2^j)
telescopes so that the resolved shells sum to exactly 1 on every
nonzero lattice wavenumber.

Hybrid low/high semi-norms split the shell index at a threshold j1:
the low flavor sums shells j <= j1, the high flavor shells j >= j1 - 1,
so the two flavors overlap in the two shells j1 - 1 and j1.

Every public function transforms each input field once (``rfftn`` over
the trailing axes) and forms the shell blocks as masked half spectra.
L^2 shell norms are Parseval sums with no inverse transform; other L^p
norms take one inverse transform per shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import SpectralGrid, frac_lambda, lp_norm, spectral_power

__all__ = [
    "CHI_INNER",
    "CHI_OUTER",
    "chi_profile",
    "phi_profile",
    "LPPartition",
    "LPDecomposition",
    "BesovSpec",
    "ShellNorms",
    "build_partition",
    "dyadic_block",
    "low_pass",
    "decompose",
    "besov_norm",
    "chemin_lerner_norm",
    "verify_bernstein",
    "verify_wu_lower_bound",
]

CHI_INNER = 0.75
CHI_OUTER = 4.0 / 3.0

#: annulus bounds of one shell in units of 2^j
SHELL_INNER = CHI_INNER
SHELL_OUTER = 2.0 * CHI_OUTER


def _bump(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) continued by 0 for t <= 0."""
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def chi_profile(r) -> np.ndarray:
    """Smooth radial cutoff: 1 for r <= 3/4, 0 for r >= 4/3, monotone between."""
    r = np.asarray(r, dtype=float)
    t = (r - CHI_INNER) / (CHI_OUTER - CHI_INNER)
    up = _bump(1.0 - t)
    down = _bump(t)
    with np.errstate(invalid="ignore"):
        val = up / (up + down)
    val = np.where(t <= 0.0, 1.0, val)
    val = np.where(t >= 1.0, 0.0, val)
    return val


def phi_profile(r) -> np.ndarray:
    """Shell profile chi(r/2) - chi(r), supported on 3/4 <= r <= 8/3."""
    r = np.asarray(r, dtype=float)
    return chi_profile(r / 2.0) - chi_profile(r)


@dataclass(frozen=True, eq=False)
class LPPartition:
    """Resolved dyadic shells j_min..j_max on a given grid.

    ``multiplier(j)`` returns the spectral shell mask phi(|xi| / 2^j);
    ``low_pass_multiplier(j)`` returns chi(|xi| / 2^j), the projector
    onto shells strictly below j.  Both are cached on the full lattice;
    ``grid.half`` of either is a view of the cached array.
    """

    grid: SpectralGrid
    j_min: int
    j_max: int
    _shells: dict = field(init=False, repr=False, default_factory=dict)
    _low: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.j_max - self.j_min + 1 < 3:
            raise ValueError(
                f"grid too small to host at least 3 dyadic shells "
                f"(resolved range {self.j_min}..{self.j_max})"
            )

    @property
    def js(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def multiplier(self, j: int) -> np.ndarray:
        if j not in self._shells:
            self._shells[j] = phi_profile(self.grid.xi_norm / 2.0**j)
        return self._shells[j]

    def low_pass_multiplier(self, j: int) -> np.ndarray:
        if j not in self._low:
            self._low[j] = chi_profile(self.grid.xi_norm / 2.0**j)
        return self._low[j]

    def check_j(self, j: int) -> None:
        if not (self.j_min <= j <= self.j_max):
            raise ValueError(f"shell index {j} outside resolved range {self.j_min}..{self.j_max}")

    def partition_sum(self) -> np.ndarray:
        """Pointwise sum of all resolved shell multipliers."""
        out = np.zeros(self.grid.shape)
        for j in self.js:
            out += self.multiplier(j)
        return out


@dataclass
class LPDecomposition:
    """Blocks of one field plus the relative spectral mass left unresolved."""

    blocks: dict
    residual: float


@dataclass(frozen=True)
class BesovSpec:
    """Regularity index s, integrability p, summation r, and flavor.

    flavor is one of "full", "low" (shells j <= j1) or "high"
    (shells j >= j1 - 1).
    """

    s: float
    p: float
    r: float
    flavor: str = "full"
    j1: int = 0

    def __post_init__(self) -> None:
        if self.p < 1 and self.p != np.inf:
            raise ValueError(f"p must be >= 1 or inf, got {self.p}")
        if self.r < 1 and self.r != np.inf:
            raise ValueError(f"r must be >= 1 or inf, got {self.r}")
        if self.flavor not in ("full", "low", "high"):
            raise ValueError(f"unknown flavor {self.flavor!r}")


def build_partition(grid: SpectralGrid) -> LPPartition:
    """Choose the dyadic range covering every nonzero lattice wavenumber.

    j_min is taken low enough that chi(|xi| / 2^j_min) vanishes on all
    nonzero modes, and j_max high enough that the telescoped sum equals
    1 up to the lattice corner, so the partition residue is pure
    roundoff.
    """
    xi_lo = grid.min_nonzero_wavenumber()
    xi_hi = grid.max_wavenumber()
    j_min = math.floor(math.log2(xi_lo / CHI_OUTER))
    j_max = math.ceil(math.log2(xi_hi / (2.0 * CHI_INNER)))
    return LPPartition(grid=grid, j_min=j_min, j_max=j_max)


def dyadic_block(partition: LPPartition, f: np.ndarray, j: int) -> np.ndarray:
    """Shell projection of a scalar or vector field onto shell j."""
    partition.check_j(j)
    grid = partition.grid
    return grid.irfft(grid.half(partition.multiplier(j)) * grid.rfft(f))


def low_pass(partition: LPPartition, f: np.ndarray, j: int) -> np.ndarray:
    """Smooth projection onto shells strictly below j (multiplier chi(|xi|/2^j))."""
    grid = partition.grid
    return grid.irfft(grid.half(partition.low_pass_multiplier(j)) * grid.rfft(f))


def decompose(partition: LPPartition, f: np.ndarray) -> LPDecomposition:
    """All resolved blocks of a scalar field plus the unresolved mass fraction.

    The residual is ||f - mean(f) - sum_j block_j||_2 relative to
    ||f - mean(f)||_2 (zero for a field with no fluctuation).
    """
    grid = partition.grid
    f = np.asarray(f, dtype=float)
    fhat = grid.rfft(f)
    blocks = {j: grid.irfft(grid.half(partition.multiplier(j)) * fhat) for j in partition.js}
    fluct = f - float(np.mean(f))
    recon = np.zeros(grid.shape)
    for b in blocks.values():
        recon += b
    denom = lp_norm(grid, fluct, 2)
    residual = 0.0 if denom == 0.0 else lp_norm(grid, fluct - recon, 2) / denom
    return LPDecomposition(blocks=blocks, residual=residual)


def _spec_shell_range(partition: LPPartition, spec: BesovSpec) -> range:
    if spec.flavor == "full":
        return partition.js
    if not (partition.j_min <= spec.j1 <= partition.j_max):
        raise ValueError(
            f"threshold j1={spec.j1} outside resolved range "
            f"{partition.j_min}..{partition.j_max}"
        )
    if spec.flavor == "low":
        return range(partition.j_min, spec.j1 + 1)
    return range(max(spec.j1 - 1, partition.j_min), partition.j_max + 1)


def _sequence_norm(values: np.ndarray, r: float) -> float:
    if values.size == 0:
        return 0.0
    if r == np.inf:
        return float(np.max(values))
    return float(np.sum(values**r) ** (1.0 / r))


class ShellNorms:
    """Shell norms ||block_j f||_p of one field, from its half spectrum.

    Norms are computed on first use and cached per (j, p).  For p = 2
    they are Parseval sums of phi_j^2 against the spectral power; for
    other p each shell takes one inverse transform.
    """

    def __init__(self, partition: LPPartition, fhat: np.ndarray):
        self.partition = partition
        self.fhat = fhat
        self._power = None
        self._norms: dict = {}

    def norm(self, j: int, p: float) -> float:
        key = (j, p)
        if key not in self._norms:
            grid = self.partition.grid
            m = grid.half(self.partition.multiplier(j))
            if p == 2:
                if self._power is None:
                    self._power = spectral_power(grid, self.fhat)
                self._norms[key] = math.sqrt(float(np.sum(m * m * self._power)))
            else:
                self._norms[key] = lp_norm(grid, grid.irfft(m * self.fhat), p)
        return self._norms[key]

    def besov(self, spec: BesovSpec) -> float:
        """Sequence norm over the spec's shells of 2^(j s) ||block_j f||_p."""
        return _sequence_norm(
            np.array([2.0 ** (j * spec.s) * self.norm(j, spec.p)
                      for j in _spec_shell_range(self.partition, spec)]),
            spec.r,
        )


def besov_norm(partition: LPPartition, f: np.ndarray, spec: BesovSpec) -> float:
    """Sequence norm over shells of 2^(j s) ||block_j f||_p."""
    return ShellNorms(partition, partition.grid.rfft(f)).besov(spec)


def chemin_lerner_norm(
    partition: LPPartition,
    times: np.ndarray,
    fields,
    rho_exp: float,
    spec: BesovSpec,
) -> float:
    """Time-integrated shell norms, time norm taken inside the shell sum.

    For each shell j the trajectory t -> ||block_j f(t)||_p is reduced
    with the L^rho_exp norm in time (trapezoidal quadrature; max over
    samples for rho_exp = inf), then weighted by 2^(j s) and summed with
    the r-sequence norm.  By Minkowski this ordering dominates taking
    the spatial Besov norm first for rho_exp = inf, r = 1.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need at least two time samples")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if len(fields) != times.size:
        raise ValueError("one field per time sample required")
    if rho_exp < 1 and rho_exp != np.inf:
        raise ValueError(f"rho_exp must be >= 1 or inf, got {rho_exp}")

    js = _spec_shell_range(partition, spec)
    # one transform per field; row k holds the shell norms of fields[k]
    norms = np.array([
        [sh.norm(j, spec.p) for j in js]
        for sh in (ShellNorms(partition, partition.grid.rfft(f)) for f in fields)
    ])
    weighted = []
    for j, series in zip(js, norms.T):
        if rho_exp == np.inf:
            tnorm = float(np.max(series))
        else:
            tnorm = float(np.trapezoid(series**rho_exp, times) ** (1.0 / rho_exp))
        weighted.append(2.0 ** (j * spec.s) * tnorm)
    return _sequence_norm(np.asarray(weighted), spec.r)


def _check_shell_support(partition: LPPartition, f: np.ndarray, j: int, what: str) -> None:
    grid = partition.grid
    power = spectral_power(grid, grid.rfft(f))
    k = grid.half_xi_norm
    inside = (k >= SHELL_INNER * 2.0**j) & (k <= SHELL_OUTER * 2.0**j)
    total = float(np.sum(power))
    if total == 0.0:
        raise ValueError(f"{what}: field is identically zero")
    outside = float(np.sum(power[~inside]))
    if outside > 1e-16 * total:
        raise ValueError(
            f"{what}: spectral support leaks outside shell {j} "
            f"(relative mass {outside / total:.3e})"
        )


def verify_bernstein(
    partition: LPPartition,
    f: np.ndarray,
    j: int,
    k: float,
    p: float,
    q: float,
) -> float:
    """Derivative-gain ratio for a field supported on shell j.

    Returns ||(|nabla|^k) f||_q / (2^(j(k + d(1/p - 1/q))) ||f||_p).
    For p = q = 2 the ratio is confined to the annulus bounds
    [(3/4)^k, (8/3)^k] by Parseval.
    """
    if q < p:
        raise ValueError(f"need q >= p, got p={p}, q={q}")
    if k < 0:
        raise ValueError(f"derivative order must be >= 0, got {k}")
    _check_shell_support(partition, f, j, "verify_bernstein")
    grid = partition.grid
    d = grid.dim
    inv_p = 0.0 if p == np.inf else 1.0 / p
    inv_q = 0.0 if q == np.inf else 1.0 / q
    deriv = frac_lambda(grid, f, k) if k > 0 else np.asarray(f, dtype=float)
    num = lp_norm(grid, deriv, q)
    den = 2.0 ** (j * (k + d * (inv_p - inv_q))) * lp_norm(grid, f, p)
    return num / den


def verify_wu_lower_bound(
    partition: LPPartition,
    f: np.ndarray,
    j: int,
    p: float,
    alpha_w: float,
) -> float:
    """Shell-wise dissipation ratio int |f|^(p-2) f (-Lap)^alpha_w f / (2^(2 alpha_w j) ||f||_p^p).

    Valid for p = 2 with alpha_w >= 0 (where Parseval pins the ratio to
    [(3/4)^(2 alpha_w), (8/3)^(2 alpha_w)]) and for 2 < p < inf with
    0 <= alpha_w <= 1 (positivity).
    """
    if not ((p == 2 and alpha_w >= 0) or (2 < p < np.inf and 0 <= alpha_w <= 1)):
        raise ValueError(
            f"parameters outside validity range: p={p}, alpha_w={alpha_w} "
            "(need p=2 with alpha_w>=0, or 2<p<inf with 0<=alpha_w<=1)"
        )
    _check_shell_support(partition, f, j, "verify_wu_lower_bound")
    grid = partition.grid
    f = np.asarray(f, dtype=float)
    lap = frac_lambda(grid, f, 2.0 * alpha_w)
    dissipation = grid.cell_volume * float(np.sum(np.abs(f) ** (p - 2) * f * lap))
    return dissipation / (2.0 ** (2.0 * alpha_w * j) * lp_norm(grid, f, p) ** p)
