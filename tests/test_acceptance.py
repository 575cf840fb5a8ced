"""Acceptance gate: one test per release criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
PASS line per criterion with the measured numbers; a failed assert is
the corresponding FAIL line.  Each test also enforces its runtime
budget.  The suite is deterministic (fixed seeds throughout).
"""

import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from rieszflow import (
    BesovSpec,
    FieldState,
    RieszParams,
    SolverConfig,
    asymptotic_check,
    besov_norm,
    build_partition,
    density_equation_residual,
    dyadic_block,
    eigenvalues,
    fit_decay,
    frac_lambda,
    gradient,
    integrate,
    linear_decay_quadrature,
    lp_norm,
    lyapunov_blocks,
    make_grid,
    mode_system,
    perturbation_presets,
    propagator,
    verify_bernstein,
    verify_wu_lower_bound,
    z_equation_residual,
)
from rieszflow.littlewood_paley import SHELL_INNER, SHELL_OUTER

from test_solver import dft_coefficients, dft_synthesis, grid_convolution, truncation


def report(num: int, name: str, detail: str, t0: float) -> None:
    print(f"acceptance {num:02d} {name}: PASS ({detail}, {time.time() - t0:.1f}s)")


def shell_field(grid, j, rng):
    """Random real field whose spectrum lies inside dyadic shell j."""
    lo, hi = SHELL_INNER * 2.0**j, SHELL_OUTER * 2.0**j
    mask = (grid.xi_norm >= lo) & (grid.xi_norm <= hi)
    spec = np.zeros(grid.shape, dtype=complex)
    spec[mask] = rng.normal(size=int(mask.sum())) + 1j * rng.normal(size=int(mask.sum()))
    f = np.fft.ifftn(spec).real
    if np.max(np.abs(f)) == 0.0:
        raise AssertionError(f"shell {j} holds no lattice modes")
    return f / np.max(np.abs(f))


def test_c01_eigenvalue_oracle():
    """Closed-form eigenvalues match the numeric eigendecomposition to 1e-12."""
    t0 = time.time()
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        for xi in np.logspace(-4, 4, 200):
            pair = eigenvalues(xi, s)
            numeric = np.linalg.eigvals(mode_system(xi, s).matrix)
            closed = np.array([pair.lambda1, pair.lambda2])
            err = min(
                np.max(np.abs(closed - numeric)),
                np.max(np.abs(closed - numeric[::-1])),
            )
            worst = max(worst, float(err))
    assert worst <= 1e-12, f"eigenvalue mismatch {worst:.3e} exceeds 1e-12"
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1 s"
    report(1, "eigenvalue-oracle", f"max abs err {worst:.2e} over 600 modes", t0)


def test_c02_eigenvalue_asymptotics():
    """Limiting ratios at |xi| = 1e-4 and 1e3 land within 1%.

    Run for s* in {0.5, 0.75}: at s* = 0.25 the subleading correction to
    the slow branch is |xi|^(2 s*) = 1% itself at |xi| = 1e-4, so the
    two operating points are incompatible there (see the unit tests for
    the deeper-decade check at small s*).
    """
    t0 = time.time()
    details = []
    for s in (0.5, 0.75):
        low = asymptotic_check(s, "low", decades=4)
        assert low["xi"][-1] == pytest.approx(1e-4)
        slow = float(low["slow_ratio"][-1])
        fast = float(low["fast_ratio"][-1])
        assert abs(slow - 1.0) <= 0.01, f"s*={s}: slow ratio {slow}"
        assert abs(fast - 1.0) <= 0.01, f"s*={s}: fast ratio {fast}"
        high = asymptotic_check(s, "high", decades=3)
        assert high["xi"][-1] == pytest.approx(1e3)
        re_ratio = float(high["re_ratio"][-1])
        im_ratio = float(high["im_ratio"][-1])
        assert re_ratio == 1.0, f"s*={s}: Re lambda not exactly -1/2 (ratio {re_ratio})"
        assert abs(im_ratio - 1.0) <= 0.01, f"s*={s}: Im ratio {im_ratio}"
        details.append(f"s*={s}: slow {slow:.4f} fast {fast:.6f} im {im_ratio:.6f}")
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1 s"
    report(2, "eigenvalue-asymptotics", "; ".join(details), t0)


def test_c03_propagator_vs_ode():
    """exp(tA) agrees with adaptive ODE integration to 1e-10."""
    t0 = time.time()
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for i in range(50):
        s = (0.25, 0.5, 0.75)[i % 3]
        xi = 10.0 ** rng.uniform(-3, 2)
        t = rng.uniform(0.0, 20.0)
        A = mode_system(xi, s).matrix
        sol = solve_ivp(
            lambda _, y: (A @ y.reshape(2, 2)).ravel(),
            (0.0, t),
            np.eye(2).ravel(),
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
            t_eval=[t],
        )
        err = float(np.max(np.abs(propagator(xi, s, t) - sol.y[:, -1].reshape(2, 2))))
        worst = max(worst, err)
    assert worst <= 1e-10, f"propagator error {worst:.3e} exceeds 1e-10"
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5 s"
    report(3, "propagator-vs-ode", f"max err {worst:.2e} over 50 pairs", t0)


def test_c04_linear_decay_slopes():
    """Quadrature slopes match -(sigma - sigma1)/(2 s*) and the heat reference.

    Of the pair family {(-d/2, 0), (-d/2, d/2 - 1)} the d = 1 second
    pair has sigma = sigma1 (profile not square integrable, no decay to
    fit) and the d = 2 pairs coincide, leaving (-1/2, 0) in 1d and
    (-1, 0) in 2d.  rho_min = 1e-12 keeps the infrared quadrature cutoff
    out of the fit window at s* = 0.25 (at the default 1e-8 the cutoff
    eats real spectral mass by t = 1e4).
    """
    t0 = time.time()
    t_grid = np.geomspace(1e2, 1e4, 17)
    details = []
    for dim, (sigma1, sigma) in ((1, (-0.5, 0.0)), (2, (-1.0, 0.0))):
        for s in (0.25, 0.75):
            res = linear_decay_quadrature(s, sigma, sigma1, t_grid, dim=dim, rho_min=1e-12)
            predicted = -(sigma - sigma1) / (2.0 * s)
            fit = fit_decay(res["t"], res["norm"], predicted, window=(1e2, 1e4))
            fit_ref = fit_decay(res["t"], res["reference"], predicted, window=(1e2, 1e4))
            rel_ref = abs(fit.slope - fit_ref.slope) / abs(fit_ref.slope)
            assert fit.rel_err <= 0.05, (
                f"d={dim} s*={s}: slope {fit.slope:.4f} vs predicted {predicted:.4f} "
                f"(rel {fit.rel_err:.4f})"
            )
            assert rel_ref <= 0.02, (
                f"d={dim} s*={s}: slope {fit.slope:.4f} vs reference {fit_ref.slope:.4f} "
                f"(rel {rel_ref:.4f})"
            )
            details.append(f"d={dim} s*={s}: {fit.slope:.3f}/{predicted:.3f}")
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30 s"
    report(4, "linear-decay-slopes", "; ".join(details), t0)


def test_c05_littlewood_paley_suite():
    """Partition residue, quasi-orthogonality, Bernstein and Wu brackets."""
    t0 = time.time()
    eps = 1e-12
    residue = 0.0
    for grid in (make_grid(dim=1, lengths=2 * np.pi, modes=256),
                 make_grid(dim=2, lengths=2 * np.pi, modes=64)):
        part = build_partition(grid)
        total = part.partition_sum()
        nonzero = grid.xi_norm > 0
        residue = max(residue, float(np.max(np.abs(total[nonzero] - 1.0))))
    assert residue <= 1e-10, f"partition residue {residue:.3e} exceeds 1e-10"

    grid = make_grid(dim=1, lengths=2 * np.pi, modes=256)
    part = build_partition(grid)
    shells = {j: part.multiplier(j) for j in part.js}
    worst_ortho = 0.0
    worst_bern = {0.5: (np.inf, 0.0), 1.0: (np.inf, 0.0)}
    worst_wu = {0.25: (np.inf, 0.0), 0.75: (np.inf, 0.0)}
    min_wu_p4 = np.inf
    for i in range(100):
        rng = np.random.default_rng(1000 + i)

        spec = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        f = np.fft.ifftn(spec).real
        fhat = np.fft.fftn(f)
        power = np.abs(fhat) ** 2
        denom = float(np.sum(power[grid.xi_norm > 0]))
        for j in part.js:
            for k in part.js:
                if k - j < 2:
                    continue
                ip = float(np.sum(shells[j] * shells[k] * power)) / denom
                worst_ortho = max(worst_ortho, abs(ip))

        j = int(rng.integers(1, 6))
        fs = shell_field(grid, j, rng)
        for k in (0.5, 1.0):
            ratio = verify_bernstein(part, fs, j, k, 2, 2)
            lo, hi = worst_bern[k]
            worst_bern[k] = (min(lo, ratio), max(hi, ratio))
            assert SHELL_INNER**k - eps <= ratio <= SHELL_OUTER**k + eps, (
                f"sample {i}: Bernstein ratio {ratio:.6f} outside "
                f"[{SHELL_INNER**k:.4f}, {SHELL_OUTER**k:.4f}] at k={k}"
            )
        for aw in (0.25, 0.75):
            ratio = verify_wu_lower_bound(part, fs, j, 2, aw)
            lo, hi = worst_wu[aw]
            worst_wu[aw] = (min(lo, ratio), max(hi, ratio))
            assert SHELL_INNER ** (2 * aw) - eps <= ratio <= SHELL_OUTER ** (2 * aw) + eps, (
                f"sample {i}: Wu ratio {ratio:.6f} outside bracket at alpha_w={aw}"
            )
        ratio4 = verify_wu_lower_bound(part, fs, j, 4, 0.5)
        min_wu_p4 = min(min_wu_p4, ratio4)
        assert ratio4 > 0.0, f"sample {i}: p=4 dissipation ratio {ratio4:.3e} not positive"

    assert worst_ortho <= 1e-12, f"quasi-orthogonality {worst_ortho:.3e} exceeds 1e-12"
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30 s"
    report(
        5,
        "littlewood-paley-suite",
        f"residue {residue:.1e}, ortho {worst_ortho:.1e}, "
        f"bernstein k=1 in [{worst_bern[1.0][0]:.3f}, {worst_bern[1.0][1]:.3f}], "
        f"min p=4 wu {min_wu_p4:.3f}, 100 samples",
        t0,
    )


def test_c06_solver_linear_consistency():
    """Nonlinearity-disabled integration matches the mode propagator per block."""
    t0 = time.time()
    grid = make_grid(dim=1, lengths=64 * np.pi, modes=512)
    params = RieszParams.from_s_star(1, 0.5)
    state = perturbation_presets("smooth-bump", 0.1, grid)
    du = gradient(grid, state.a)[0]
    u0 = 0.05 * du / float(np.max(np.abs(du)))
    state = FieldState(a=state.a, u=u0[np.newaxis], t=0.0)

    times = (1.0, 2.5, 5.0, 10.0)
    cfg = SolverConfig(dt=0.05, t_end=10.0, snapshot_times=times, integrator="linear")
    traj = integrate(grid, state, params, cfg)
    assert traj.status == "completed"

    a_hat0 = np.fft.fftn(state.a)
    u_hat0 = np.fft.fftn(state.u[0])
    unit = grid.xi_unit[0]
    m_hat0 = 1j * unit * u_hat0
    rot_hat0 = u_hat0 + 1j * unit * m_hat0

    part = build_partition(grid)
    worst = 0.0
    for snap in traj.snapshots:
        P = propagator(grid.xi_norm, params.s_star, snap.t)
        a_ref = np.fft.ifftn(P[..., 0, 0] * a_hat0 + P[..., 0, 1] * m_hat0).real
        m_ref = P[..., 1, 0] * a_hat0 + P[..., 1, 1] * m_hat0
        u_ref = np.fft.ifftn(-1j * unit * m_ref + np.exp(-snap.t) * rot_hat0).real
        for j in part.js:
            err = lp_norm(grid, dyadic_block(part, snap.a - a_ref, j), 2)
            err = max(err, lp_norm(grid, dyadic_block(part, snap.u[0] - u_ref, j), 2))
            worst = max(worst, err)
            assert err <= 1e-8, f"t={snap.t}, shell {j}: block error {err:.3e}"
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60 s"
    report(
        6,
        "solver-linear-consistency",
        f"worst block err {worst:.2e} over {len(times)} times x {len(list(part.js))} shells",
        t0,
    )


def test_c07_conservation_and_order():
    """Mean density is conserved to 1e-12 and the scheme converges at order 4."""
    t0 = time.time()
    grid = make_grid(dim=1, lengths=4 * np.pi, modes=128)
    params = RieszParams.from_s_star(1, 0.5)
    state = perturbation_presets("smooth-bump", 0.05, grid)
    mean0 = float(np.mean(state.a))
    cfg = SolverConfig(dt=0.05, t_end=50.0, snapshot_times=(0.0, 10.0, 25.0, 50.0))
    traj = integrate(grid, state, params, cfg)
    assert traj.status == "completed"
    drift = max(abs(float(np.mean(s.a)) - mean0) for s in traj.snapshots)
    assert drift <= 1e-12, f"mean drift {drift:.3e} exceeds 1e-12"

    grid_o = make_grid(dim=1, lengths=2 * np.pi, modes=64)
    state_o = perturbation_presets("smooth-bump", 0.3, grid_o)

    def final(dt):
        cfg_o = SolverConfig(dt=dt, t_end=1.0, snapshot_times=(1.0,))
        return integrate(grid_o, state_o, params, cfg_o).snapshots[-1]

    ref = final(1.0 / 1024)
    dts = np.array([1.0 / 16, 1.0 / 32, 1.0 / 64])
    errs = np.array(
        [
            float(np.max(np.abs(s.a - ref.a)) + np.max(np.abs(s.u - ref.u)))
            for s in (final(dt) for dt in dts)
        ]
    )
    order = float(np.polyfit(np.log2(dts), np.log2(errs), 1)[0])
    assert abs(order - 4.0) <= 0.3, f"observed order {order:.3f} outside 4.0 +/- 0.3"
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.2f}s exceeds 2 min"
    report(7, "conservation-and-order", f"mean drift {drift:.1e}, order {order:.3f}", t0)


def test_c08_nonlinear_decay_trend():
    """Small-data nonlinear decay follows the linear prediction on the box.

    The linear prediction is the exact mode-propagator evolution of the
    same initial spectrum on the same lattice, fitted over the same
    window; the window [4, 25] ends before the infrared box cutoff
    (xi_min = 0.01) starts to deplete the norm.  The high-frequency
    hybrid norm must decay at least twice as fast as ||a||_L2.
    """
    t0 = time.time()
    grid = make_grid(dim=1, lengths=200 * np.pi, modes=4096)
    params = RieszParams.from_s_star(1, 0.5)
    state = perturbation_presets(
        "low-frequency-powerlaw", 0.005, grid, sigma1=-0.5, cutoff=1.0, seed=0
    )
    times = tuple(float(t) for t in np.geomspace(1.0, 40.0, 33))
    cfg = SolverConfig(dt=0.1, t_end=40.0, snapshot_times=times)
    traj = integrate(grid, state, params, cfg)
    assert traj.status == "completed"

    ts = np.array([s.t for s in traj.snapshots])
    l2 = np.array([d["l2_a"] for d in traj.diagnostics])

    dv = grid.cell_volume / grid.npoints
    a_hat0 = np.fft.fftn(state.a)
    linear = np.array(
        [
            float(np.sqrt(dv * np.sum(np.abs(propagator(grid.xi_norm, 0.5, float(t))[..., 0, 0] * a_hat0) ** 2)))
            for t in ts
        ]
    )

    window = (4.0, 25.0)
    fit_lin = fit_decay(ts, linear, -0.5, window=window)
    fit_nl = fit_decay(ts, l2, fit_lin.slope, window=window)
    assert fit_nl.rel_err <= 0.15, (
        f"nonlinear slope {fit_nl.slope:.4f} vs linear prediction {fit_lin.slope:.4f} "
        f"(rel {fit_nl.rel_err:.4f})"
    )

    part = build_partition(grid)
    high = np.array(
        [besov_norm(part, s.a, BesovSpec(1.5, 2, 1, "high", 0)) for s in traj.snapshots]
    )
    fit_high = fit_decay(ts, high, 2.0 * fit_nl.slope, window=window)
    assert fit_high.slope <= 2.0 * fit_nl.slope, (
        f"high-norm slope {fit_high.slope:.3f} not twice as fast as {fit_nl.slope:.4f}"
    )
    elapsed = time.time() - t0
    assert elapsed < 600.0, f"runtime {elapsed:.2f}s exceeds 10 min"
    report(
        8,
        "nonlinear-decay-trend",
        f"slope {fit_nl.slope:.4f} vs linear {fit_lin.slope:.4f} (rel {fit_nl.rel_err:.1e}), "
        f"high-norm slope {fit_high.slope:.2f}",
        t0,
    )


def test_c09_diagnostics_residuals():
    """Reformulated-equation residuals are small and shrink at order >= 2."""
    t0 = time.time()
    grid = make_grid(dim=1, lengths=4 * np.pi, modes=128)
    params = RieszParams.from_s_star(1, 0.5)
    state = perturbation_presets("smooth-bump", 0.1, grid)
    t_mid = 0.1
    residuals = {}
    for dt in (1e-3, 5e-4):
        cfg = SolverConfig(dt=dt, t_end=t_mid + dt, snapshot_times=(t_mid - dt, t_mid, t_mid + dt))
        traj = integrate(grid, state, params, cfg)
        assert traj.status == "completed"
        residuals[dt] = (
            density_equation_residual(grid, traj.snapshots, params),
            z_equation_residual(grid, traj.snapshots, params),
        )
    r_a, r_z = residuals[1e-3]
    assert r_a <= 1e-4, f"density residual {r_a:.3e} exceeds 1e-4"
    assert r_z <= 1e-4, f"effective-velocity residual {r_z:.3e} exceeds 1e-4"
    order_a = float(np.log2(r_a / residuals[5e-4][0]))
    order_z = float(np.log2(r_z / residuals[5e-4][1]))
    assert order_a >= 1.9, f"density residual order {order_a:.3f} below 2"
    assert order_z >= 1.9, f"effective-velocity residual order {order_z:.3f} below 2"
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.2f}s exceeds 5 min"
    report(
        9,
        "diagnostics-residuals",
        f"residuals {r_a:.1e}/{r_z:.1e} at dt=1e-3, orders {order_a:.2f}/{order_z:.2f}",
        t0,
    )


def test_c10_lyapunov_monotonicity():
    """Block Lyapunov functionals never increase along a linearized run."""
    t0 = time.time()
    grid = make_grid(dim=1, lengths=2 * np.pi, modes=256)
    params = RieszParams.from_s_star(1, 0.5)
    state = perturbation_presets("smooth-bump", 1e-3, grid)
    times = tuple(np.linspace(0.0, 5.0, 51))
    cfg = SolverConfig(dt=0.01, t_end=5.0, snapshot_times=times, integrator="linear")
    traj = integrate(grid, state, params, cfg)
    assert traj.status == "completed"

    part = build_partition(grid)
    j1, c_tilde = 0, 0.25
    blocks = [lyapunov_blocks(grid, s, c_tilde, part, params, j1) for s in traj.snapshots]
    js = [j for j in part.js if j >= j1 - 1]
    assert js, "no admissible high-frequency shells on this grid"
    worst = -np.inf
    for j in js:
        series = [b[j] for b in blocks]
        for prev, curr in zip(series, series[1:]):
            worst = max(worst, curr - prev)
            assert curr <= prev + 1e-8, (
                f"shell {j}: L^2 increased by {curr - prev:.3e} in one step"
            )
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 1 min"
    report(
        10,
        "lyapunov-monotonicity",
        f"worst increment {worst:.1e} over {len(js)} shells x {len(times) - 1} steps",
        t0,
    )


def convolution_table(keep):
    """q[k, p]: the position of the mode k - p (mod N) among the kept modes, else their count.

    With c extended by one trailing zero, the truncated grid product of
    c1 and c2 on the kept modes is sum_p c1[p] c2[q[k, p]], the
    ``grid_convolution`` sum restricted to kept inputs and outputs.
    """
    shape = keep.shape
    pos = np.full(shape, int(np.count_nonzero(keep)))
    pos[keep] = np.arange(np.count_nonzero(keep))
    k = np.stack(np.nonzero(keep), axis=-1) - np.array([n // 2 for n in shape])
    diff = k[:, None, :] - k[None, :, :]
    return pos[tuple((diff[..., ax] + n // 2) % n for ax, n in enumerate(shape))]


class FourierODE:
    """The dealiased system on the kept Fourier coefficients, for ``solve_ivp``.

    No FFT, no propagator, no Lawson step: the linear part comes from the
    raw symbols -rho_bar i xi . u and -lam u - kappa i xi |xi|^(2 s* - 2) a,
    the nonlinear part from the convolution table, in the convective form
    -div(a u), -u . grad u.  On the solver's alias-free box the
    pseudospectral tendency equals it, whatever form the solver takes.
    """

    def __init__(self, grid, params, fraction):
        self.keep = truncation(grid.shape, fraction)
        self.q = convolution_table(self.keep)
        self.n = self.q.shape[0]
        xi = []
        for ax, (n, L) in enumerate(zip(grid.shape, grid.lengths)):
            k = 2.0 * np.pi * np.arange(-(n // 2), n // 2) / L
            xi.append(np.broadcast_to(k.reshape([-1 if i == ax else 1 for i in range(grid.dim)]), grid.shape))
        self.ik = 1j * np.stack([c[self.keep] for c in xi])
        norm = np.sqrt(np.sum(np.abs(self.ik) ** 2, axis=0))
        safe = np.where(norm > 0, norm, 1.0)
        self.force = np.where(norm > 0, -params.kappa * safe ** (2.0 * params.s_star - 2.0), 0.0) * self.ik
        self.p, self.dim = params, grid.dim

    def conv(self, c1, c2):
        ext = np.concatenate([c2, np.zeros(c2.shape[:-1] + (1,))], axis=-1)
        return np.einsum("...kp,...p->...k", ext[..., self.q], c1)

    def rhs(self, _t, y):
        d, p = self.dim, self.p
        a, u = y[:self.n], y[self.n:].reshape(d, self.n)
        da = -p.rho_bar * np.sum(self.ik * u, axis=0) - np.sum(self.ik * self.conv(a, u), axis=0)
        grads = self.ik[:, None, :] * u[None, :, :]  # grads[j, i] = d_j u_i
        du = -p.lam * u + self.force * a - sum(self.conv(u[j], grads[j]) for j in range(d))
        return np.concatenate([da, du.ravel()])

    def pack(self, state):
        return np.concatenate([dft_coefficients(f)[self.keep] for f in (state.a, *state.u)])

    def fields(self, y):
        out = []
        for c in y.reshape(1 + self.dim, -1):
            full = np.zeros(self.keep.shape, dtype=complex)
            full[self.keep] = c
            out.append(dft_synthesis(full).real)
        return out[0], np.stack(out[1:])


#: c12 cases: (form, dim, lengths, modes, integrator, bound on the error at the finest dt).
#: The bounds were fixed from the first run, on the full-spectrum stages, at 1.2-1.3 times
#: the measured errors 7.95e-10, 3.31e-10, 8.07e-10 and 2.69e-3; they are never loosened.
#: The 16x24 case ran in convective form on K = (5, 8) then; on the alias-free box
#: K = (5, 7) it takes the rotational form.
C12_CASES = [
    ("conservative", 1, (2.0 * np.pi,), (32,), "ifrk4", 1.0e-9),
    ("rotational", 2, (2.0 * np.pi, 3.0 * np.pi), (16, 16), "ifrk4", 4.0e-10),
    ("rotational", 2, (2.0 * np.pi, 3.0 * np.pi), (16, 24), "ifrk4", 1.0e-9),
    ("rotational", 2, (2.0 * np.pi, 3.0 * np.pi), (16, 16), "exp-euler", 3.0e-3),
]


def test_c12_nonlinear_oracle():
    """integrate converges to an independent solve of the dealiased Fourier ODE.

    Band-limited random data (||a||_inf = 0.1, ||u||_inf = 0.5) on the kept
    modes, compared at t = 0.5 for dt = 1/8 ... 1/64: the observed order is
    4 +/- 0.3 for IFRK4 and 1 +/- 0.1 for exponential Euler, and the error
    at the finest dt stays within its fixed bound.
    """
    t0 = time.time()
    t_end, fraction = 0.5, 2.0 / 3.0
    dts = np.array([1.0 / 8, 1.0 / 16, 1.0 / 32, 1.0 / 64])
    details = []
    for seed, (form, dim, lengths, modes, integrator, bound) in enumerate(C12_CASES):
        grid = make_grid(dim=dim, lengths=lengths, modes=modes)
        params = RieszParams.from_s_star(dim, 0.4, lam=0.7, kappa=1.3)
        ode = FourierODE(grid, params, fraction)
        rng = np.random.default_rng(1200 + seed)
        fields = []
        for amp in (0.1,) + (0.5,) * dim:
            spec = np.zeros(grid.shape, dtype=complex)
            spec[ode.keep] = rng.standard_normal(ode.n) + 1j * rng.standard_normal(ode.n)
            f = dft_synthesis(spec).real
            fields.append(amp * f / np.max(np.abs(f)))
        state = FieldState(a=fields[0], u=np.stack(fields[1:]), t=0.0)

        # the table reproduces the test module's convolution sum of a and u_1
        y0 = ode.pack(state)
        c_a, c_u = (dft_coefficients(f) * ode.keep for f in (state.a, state.u[0]))
        direct = grid_convolution(c_a, c_u)[ode.keep]
        table = ode.conv(y0[:ode.n], y0[ode.n:2 * ode.n])
        assert np.max(np.abs(table - direct)) <= 1e-14 * np.max(np.abs(direct))

        sol = solve_ivp(ode.rhs, (0.0, t_end), y0, method="DOP853", rtol=1e-12, atol=1e-14)
        assert sol.success, sol.message
        a_ref, u_ref = ode.fields(sol.y[:, -1])

        errs = []
        for dt in dts:
            cfg = SolverConfig(dt=float(dt), t_end=t_end, integrator=integrator, dealias=fraction)
            traj = integrate(grid, state, params, cfg)
            assert traj.status == "completed"
            last = traj.snapshots[-1]
            errs.append(max(float(np.max(np.abs(last.a - a_ref))), float(np.max(np.abs(last.u - u_ref)))))
        order = float(np.polyfit(np.log2(dts), np.log2(errs), 1)[0])
        label = f"{integrator} {'x'.join(map(str, modes))} {form}"
        expected = 4.0 if integrator == "ifrk4" else 1.0
        tolerance = 0.3 if integrator == "ifrk4" else 0.1
        assert abs(order - expected) <= tolerance, (
            f"{label}: observed order {order:.3f} outside {expected} +/- {tolerance}")
        assert errs[-1] <= bound, f"{label}: error {errs[-1]:.3e} at dt=1/64 exceeds {bound:.1e}"
        details.append(f"{label}: order {order:.2f}, err {errs[-1]:.2e}")
    elapsed = time.time() - t0
    assert elapsed < 20.0, f"runtime {elapsed:.2f}s exceeds 20 s"
    report(12, "nonlinear-oracle", "; ".join(details), t0)
