"""Mode-by-mode linear analysis of the damped interaction system.

After a Hodge split, each Fourier mode of the linearized system reduces
to a 2x2 ODE for the density amplitude and the compressible velocity
scalar,

    d/dt (a, m) = A(xi) (a, m),
    A(xi) = [[0,                      -rho_bar |xi|],
             [kappa |xi|^(2 s* - 1),  -lam        ]],

with the (2,1) entry defined as 0 at |xi| = 0.  The rotational velocity
scalar is purely damped at rate lam.  With the default unit
coefficients the eigenvalues are

    lambda_{1,2} = -1/2 +- sqrt(1 - 4 |xi|^(2 s*)) / 2,

real for |xi|^(2 s*) <= 1/4, a complex pair beyond, and a double root
-1/2 at the threshold where the matrix acquires a Jordan block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEGENERATE_TOL",
    "EigenPair",
    "ModeSystem",
    "mode_system",
    "eigenvalues",
    "asymptotic_check",
    "dissipative_constant",
    "propagator",
    "effective_mode_response",
    "vorticity_decay",
    "linear_decay_quadrature",
]

#: threshold on |4 |xi|^(2 s*) - 1| below which the double root is flagged
DEGENERATE_TOL = 1e-14


@dataclass(frozen=True)
class EigenPair:
    """The two mode eigenvalues, ordered so lambda1 has the larger real part."""

    lambda1: complex
    lambda2: complex
    degenerate: bool


@dataclass(frozen=True)
class ModeSystem:
    """One Fourier mode of the linearized system."""

    xi_norm: float
    s_star: float
    matrix: np.ndarray


def _check_s_star(s_star: float) -> None:
    if not (0.0 < s_star < 1.0):
        raise ValueError(f"s_star must lie in (0, 1), got {s_star}")


def _offdiag(xi: np.ndarray, s_star: float, kappa: float) -> np.ndarray:
    """kappa |xi|^(2 s* - 1) with the value at xi = 0 defined as 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        val = kappa * xi ** (2.0 * s_star - 1.0)
    return np.where(xi == 0.0, 0.0, val)


def mode_system(
    xi_norm: float,
    s_star: float,
    lam: float = 1.0,
    kappa: float = 1.0,
    rho_bar: float = 1.0,
) -> ModeSystem:
    _check_s_star(s_star)
    if xi_norm < 0:
        raise ValueError("xi_norm must be >= 0")
    xi = np.asarray(float(xi_norm))
    A = np.array(
        [
            [0.0, -rho_bar * float(xi)],
            [float(_offdiag(xi, s_star, kappa)), -lam],
        ]
    )
    return ModeSystem(xi_norm=float(xi_norm), s_star=s_star, matrix=A)


def eigenvalues(xi_norm: float, s_star: float) -> EigenPair:
    """Closed-form eigenvalues for the unit-coefficient mode matrix."""
    _check_s_star(s_star)
    if xi_norm < 0:
        raise ValueError("xi_norm must be >= 0")
    x = float(xi_norm) ** (2.0 * s_star) if xi_norm > 0 else 0.0
    disc = 1.0 - 4.0 * x
    degenerate = abs(4.0 * x - 1.0) <= DEGENERATE_TOL
    root = np.sqrt(complex(disc))
    l1 = (-1.0 + root) / 2.0
    l2 = (-1.0 - root) / 2.0
    return EigenPair(lambda1=complex(l1), lambda2=complex(l2), degenerate=degenerate)


def asymptotic_check(s_star: float, regime: str, decades: int = 6) -> dict:
    """Ratio tables against the limiting eigenvalue behavior.

    regime "low": xi = 10^-1..10^-decades, ratios lambda1 / (-|xi|^(2s*))
    and lambda2 / (-1).  regime "high": xi = 10^1..10^decades, ratios
    Re lambda / (-1/2) (exact once the pair is complex) and
    |Im lambda| / |xi|^(s*).
    """
    _check_s_star(s_star)
    if regime not in ("low", "high"):
        raise ValueError(f"regime must be 'low' or 'high', got {regime!r}")
    sign = -1.0 if regime == "low" else 1.0
    xi = 10.0 ** (sign * np.arange(1, decades + 1, dtype=float))
    pairs = [eigenvalues(x, s_star) for x in xi]
    if regime == "low":
        ratio1 = np.array([p.lambda1.real / (-(x ** (2.0 * s_star))) for p, x in zip(pairs, xi)])
        ratio2 = np.array([p.lambda2.real / (-1.0) for p in pairs])
        return {"xi": xi, "slow_ratio": ratio1, "fast_ratio": ratio2}
    re_ratio = np.array([p.lambda1.real / (-0.5) for p in pairs])
    im_ratio = np.array([abs(p.lambda1.imag) / x**s_star for p, x in zip(pairs, xi)])
    return {"xi": xi, "re_ratio": re_ratio, "im_ratio": im_ratio}


def dissipative_constant(s_star: float, xi_grid: np.ndarray | None = None) -> tuple[float, dict]:
    """Largest c with max Re lambda <= -c |xi|^(2s*) / (1 + |xi|^(2s*)) on a scan grid."""
    _check_s_star(s_star)
    if xi_grid is None:
        xi_grid = np.logspace(-6, 6, 481)
    xi_grid = np.asarray(xi_grid, dtype=float)
    x = xi_grid ** (2.0 * s_star)
    re_max = np.array([max(p.lambda1.real, p.lambda2.real) for p in (eigenvalues(v, s_star) for v in xi_grid)])
    c_local = -re_max * (1.0 + x) / x
    c_fit = float(np.min(c_local))
    return c_fit, {"xi": xi_grid, "c_local": c_local}


def propagator(
    xi_norm,
    s_star: float,
    t,
    lam: float = 1.0,
    kappa: float = 1.0,
    rho_bar: float = 1.0,
) -> np.ndarray:
    """Matrix exponential exp(t A(xi)) for the 2x2 mode system.

    Vectorized over broadcastable ``xi_norm`` and ``t``; the result has
    shape broadcast(xi, t).shape + (2, 2).  Evaluation uses the
    eigenvalue split exp(mu t)(cosh(delta t) I + sinh(delta t)/delta
    (A - mu I)) written in terms of exp(lambda_i t), which stays stable
    for all damped modes, with a series fallback for sinh(delta t)/delta
    near the Jordan degeneracy.
    """
    _check_s_star(s_star)
    xi = np.asarray(xi_norm, dtype=float)
    tt = np.asarray(t, dtype=float)
    if np.any(xi < 0):
        raise ValueError("xi_norm must be >= 0")
    if np.any(tt < 0):
        raise ValueError("t must be >= 0")
    xi, tt = np.broadcast_arrays(xi, tt)
    xi = xi.astype(float)
    tt = tt.astype(float)

    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(xi > 0, xi ** (2.0 * s_star), 0.0)
    disc = (lam * lam - 4.0 * rho_bar * kappa * x).astype(complex)
    delta = 0.5 * np.sqrt(disc)
    mu = -lam / 2.0
    l1 = mu + delta
    l2 = mu - delta
    e1 = np.exp(l1 * tt)
    e2 = np.exp(l2 * tt)
    half_sum = 0.5 * (e1 + e2)

    dt_prod = delta * tt
    small = np.abs(dt_prod) < 1e-4
    denom = np.where(small, 1.0, 2.0 * delta)
    phi = (e1 - e2) / denom
    series = tt * np.exp(mu * tt) * (1.0 + dt_prod**2 / 6.0 + dt_prod**4 / 120.0)
    phi = np.where(small, series, phi)

    off21 = _offdiag(xi, s_star, kappa)
    p11 = half_sum + phi * (lam / 2.0)
    p12 = -phi * rho_bar * xi
    p21 = phi * off21
    p22 = half_sum - phi * (lam / 2.0)

    out = np.empty(xi.shape + (2, 2))
    out[..., 0, 0] = p11.real
    out[..., 0, 1] = p12.real
    out[..., 1, 0] = p21.real
    out[..., 1, 1] = p22.real
    return out


def effective_mode_response(xi_norm, s_star: float, t) -> np.ndarray:
    """Mode propagator conjugated into (density, effective-velocity) coordinates.

    The effective-velocity scalar is z = m - kappa |xi|^(2 s_star - 1) a
    (unit coefficients), so the returned matrix is T exp(t A) T^(-1)
    with T = [[1, 0], [-g, 1]], g = |xi|^(2 s_star - 1).  Closed forms:
    the (z <- a) entry is exactly |xi|^(4 s_star - 1) phi(t) and the
    (z <- z) entry is damped, bounded by C exp(-lam t / 2) plus
    C |xi|^min(2 s_star, 1) times the (a <- a) entry with C of order
    one.  Requires xi_norm > 0 since g is singular at zero.
    """
    _check_s_star(s_star)
    xi = np.asarray(xi_norm, dtype=float)
    if np.any(xi <= 0):
        raise ValueError("effective-velocity coordinates need xi_norm > 0")
    P = propagator(xi, s_star, t)
    xi = np.broadcast_to(xi, P.shape[:-2])
    g = xi ** (2.0 * s_star - 1.0)
    p11, p12 = P[..., 0, 0], P[..., 0, 1]
    p21, p22 = P[..., 1, 0], P[..., 1, 1]
    out = np.empty_like(P)
    out[..., 0, 0] = p11 + g * p12
    out[..., 0, 1] = p12
    out[..., 1, 0] = p21 + g * (p22 - p11) - g * g * p12
    out[..., 1, 1] = p22 - g * p12
    return out


def vorticity_decay(t) -> np.ndarray:
    """Amplitude factor exp(-t) of the purely damped rotational component."""
    return np.exp(-np.asarray(t, dtype=float))


def linear_decay_quadrature(
    s_star: float,
    sigma: float,
    sigma1: float,
    t_grid,
    dim: int = 1,
    cutoff: float = 1.0,
    rho_min: float = 1e-8,
    rtol: float = 1e-3,
    n_start: int = 512,
) -> dict:
    """Continuum norms of the linearly evolved sharp low-frequency profile.

    The initial density spectrum is |a0(xi)| = |xi|^(-sigma1 - d/2) on
    |xi| <= cutoff and zero beyond, with zero initial velocity; the
    |nabla|^sigma L^2 norm at each time is computed by radial
    quadrature, trapezoidal in log |xi|, with the node count doubled
    until the result changes by less than ``rtol``.  A fractional-heat
    reference (multiplier exp(-t |xi|^(2 s*))) is evaluated on the same
    nodes.  Both norms decay with log-log slope -(sigma - sigma1)/(2 s*).
    """
    _check_s_star(s_star)
    if sigma - sigma1 <= 0:
        raise ValueError(
            f"profile is not square integrable against |xi|^(2 sigma): "
            f"need sigma > sigma1, got sigma={sigma}, sigma1={sigma1}"
        )
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(t_grid < 0):
        raise ValueError("t_grid must be nonnegative")

    angular = 2.0 if dim == 1 else 2.0 * np.pi
    beta = sigma - sigma1

    def evaluate(n: int) -> tuple[np.ndarray, np.ndarray]:
        logs = np.linspace(np.log(rho_min), np.log(cutoff), n)
        rho = np.exp(logs)
        # weight for trapezoid in log space: d rho = rho d(log rho)
        w = np.empty(n)
        w[0] = 0.5 * (logs[1] - logs[0])
        w[-1] = 0.5 * (logs[-1] - logs[-2])
        w[1:-1] = 0.5 * (logs[2:] - logs[:-2])
        w = w * rho
        profile = rho ** (2.0 * beta - 1.0)
        norms = np.empty(t_grid.size)
        refs = np.empty(t_grid.size)
        for i, t in enumerate(t_grid):
            kern = propagator(rho, s_star, float(t))[..., 0, 0] ** 2
            norms[i] = np.sqrt(angular * np.sum(w * profile * kern))
            refs[i] = np.sqrt(angular * np.sum(w * profile * np.exp(-2.0 * t * rho ** (2.0 * s_star))))
        return norms, refs

    n = n_start
    norms, refs = evaluate(n)
    while n < 2**17:
        n *= 2
        new_norms, new_refs = evaluate(n)
        change = max(
            float(np.max(np.abs(new_norms - norms) / np.abs(new_norms))),
            float(np.max(np.abs(new_refs - refs) / np.abs(new_refs))),
        )
        norms, refs = new_norms, new_refs
        if change < rtol:
            break
    return {"t": t_grid, "norm": norms, "reference": refs, "nodes": n}
