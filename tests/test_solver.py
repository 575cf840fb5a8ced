"""Time integration: exact linear part, dealiased nonlinearity, presets."""

import numpy as np
import pytest

from rieszflow import (
    FieldState,
    RieszParams,
    SolverConfig,
    hodge_reconstruct,
    hodge_split,
    integrate,
    linear_step,
    lp_norm,
    make_grid,
    perturbation_presets,
    propagator,
    rhs_nonlinear,
)

from rieszflow import solver

from conftest import smooth_field, smooth_vector


def spectral_error(grid, f, g):
    return float(np.max(np.abs(np.fft.fftn(f) - np.fft.fftn(g)))) / grid.npoints


class TestSolverConfig:
    """Settings validation."""

    def test_defaults(self):
        cfg = SolverConfig(dt=0.1, t_end=1.0)
        assert cfg.integrator == "ifrk4"
        assert cfg.dealias == pytest.approx(2.0 / 3.0)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="dt"):
            SolverConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError, match="t_end"):
            SolverConfig(dt=0.1, t_end=-1.0)
        with pytest.raises(ValueError, match="integrator"):
            SolverConfig(dt=0.1, t_end=1.0, integrator="rk45")
        with pytest.raises(ValueError, match="dealias"):
            SolverConfig(dt=0.1, t_end=1.0, dealias=1.5)
        with pytest.raises(ValueError, match="positivity"):
            SolverConfig(dt=0.1, t_end=1.0, positivity_floor=0.0)

    def test_snapshot_times_checked(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SolverConfig(dt=0.1, t_end=1.0, snapshot_times=(0.5, 0.5))
        with pytest.raises(ValueError, match="0, t_end"):
            SolverConfig(dt=0.1, t_end=1.0, snapshot_times=(0.0, 2.0))


class TestPresets:
    """Initial data families."""

    def test_single_mode_shape(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=64)
        st = perturbation_presets("single-mode", 0.1, g, mode=3)
        x = g.coordinates()[0]
        assert np.allclose(st.a, 0.1 * np.cos(3.0 * x), atol=1e-14)
        assert np.all(st.u == 0.0)
        assert st.t == 0.0

    def test_all_presets_normalized_and_mean_zero(self, rng):
        g = make_grid(dim=1, lengths=8.0 * np.pi, modes=256)
        for kind in ("single-mode", "smooth-bump", "low-frequency-powerlaw"):
            st = perturbation_presets(kind, 0.05, g, sigma1=-0.5)
            assert np.max(np.abs(st.a)) == pytest.approx(0.05, rel=1e-12)
            assert abs(np.mean(st.a)) < 1e-16
            assert st.a.dtype == np.float64

    def test_powerlaw_spectrum_confined_to_cutoff(self):
        g = make_grid(dim=1, lengths=32.0 * np.pi, modes=512)
        st = perturbation_presets("low-frequency-powerlaw", 0.1, g, sigma1=-0.5, cutoff=0.5)
        spec = np.abs(np.fft.fftn(st.a))
        assert np.max(spec[g.xi_norm > 0.5]) < 1e-12 * np.max(spec)

    def test_powerlaw_seed_reproducible(self):
        g = make_grid(dim=1, lengths=8.0 * np.pi, modes=128)
        a = perturbation_presets("low-frequency-powerlaw", 0.1, g, sigma1=-0.5, seed=7)
        b = perturbation_presets("low-frequency-powerlaw", 0.1, g, sigma1=-0.5, seed=7)
        c = perturbation_presets("low-frequency-powerlaw", 0.1, g, sigma1=-0.5, seed=8)
        assert np.array_equal(a.a, b.a)
        assert not np.array_equal(a.a, c.a)

    def test_smooth_bump_2d(self):
        g = make_grid(dim=2, lengths=2.0 * np.pi, modes=32)
        st = perturbation_presets("smooth-bump", 0.2, g, width=0.5)
        assert st.a.shape == g.shape
        assert st.u.shape == (2,) + g.shape

    def test_validation(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=64)
        with pytest.raises(ValueError, match="unknown preset"):
            perturbation_presets("vortex", 0.1, g)
        with pytest.raises(ValueError, match="amplitude"):
            perturbation_presets("single-mode", 1.5, g)
        with pytest.raises(ValueError, match="dealias cutoff"):
            perturbation_presets("single-mode", 0.1, g, mode=30)
        with pytest.raises(ValueError, match="requires sigma1"):
            perturbation_presets("low-frequency-powerlaw", 0.1, g)
        with pytest.raises(ValueError, match="cutoff excludes"):
            perturbation_presets("low-frequency-powerlaw", 0.1, g, sigma1=-0.5, cutoff=0.5)


class TestNonlinearTendency:
    """Physical-space products against hand expansions."""

    def test_single_mode_products(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=64)
        x = g.coordinates()[0]
        eps, v, k = 0.2, 0.7, 3.0
        st = FieldState(a=eps * np.cos(k * x), u=(v * np.sin(k * x))[None, :], t=0.0)
        da, du = rhs_nonlinear(g, st, dealias=1.0)
        # -(a u)' = -eps v k cos(2kx); -u u' = -(v^2 k / 2) sin(2kx)
        assert np.allclose(da, -eps * v * k * np.cos(2 * k * x), atol=1e-13)
        assert np.allclose(du[0], -(v**2 * k / 2.0) * np.sin(2 * k * x), atol=1e-13)

    def test_density_tendency_mean_free(self, grid_2d, rng):
        st = FieldState(
            a=0.1 * smooth_field(grid_2d, rng), u=smooth_vector(grid_2d, rng), t=0.0
        )
        da, _ = rhs_nonlinear(grid_2d, st)
        assert abs(float(np.mean(da))) < 1e-17

    def test_dealias_mask_applied(self, rng):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=64)
        x = g.coordinates()[0]
        # modes 15 and 16 produce mode 31, beyond the 2/3 cutoff of 21
        st = FieldState(
            a=0.1 * np.cos(15.0 * x), u=(0.5 * np.sin(16.0 * x))[None, :], t=0.0
        )
        da, _ = rhs_nonlinear(g, st)
        spec = np.abs(np.fft.fftn(da))
        assert np.max(spec[np.abs(g.xi[0]) > 21.5]) < 1e-12


class TestLinearPropagation:
    """The exact linear stepping against the mode propagator."""

    def test_single_mode_matches_propagator_1d(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=64)
        p = RieszParams.from_s_star(1, 0.25)
        x = g.coordinates()[0]
        st = FieldState(a=0.3 * np.cos(2.0 * x), u=np.zeros((1,) + g.shape), t=0.0)
        t = 1.7
        out = linear_step(g, st, p, t)
        P = propagator(2.0, 0.25, t)
        assert np.allclose(out.a, 0.3 * P[0, 0] * np.cos(2.0 * x), atol=1e-13)
        # u = -i unit m_hat: m(t) = P21 a0 gives u = (P21 * 0.3) sin(2x) / ... sign chase
        # via divergence: du = -(P21 a0) Lambda^-1 grad? easier: check the l2 level
        m_level = abs(P[1, 0]) * lp_norm(g, st.a, 2)
        assert lp_norm(g, out.u, 2) == pytest.approx(m_level, rel=1e-12)

    def test_full_spectrum_matches_propagator_1d(self, rng):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=64)
        p = RieszParams.from_s_star(1, 0.5)
        a0 = 0.1 * smooth_field(g, rng)
        u0 = 0.1 * smooth_vector(g, rng)
        cfg = SolverConfig(dt=0.37, t_end=3.0, linear_only=True)
        tr = integrate(g, FieldState(a=a0, u=u0, t=0.0), p, cfg)
        ref = linear_step(g, FieldState(a=a0, u=u0, t=0.0), p, 3.0)
        assert tr.status == "completed"
        assert spectral_error(g, tr.snapshots[-1].a, ref.a) < 1e-12
        assert spectral_error(g, tr.snapshots[-1].u[0], ref.u[0]) < 1e-12

    def test_full_spectrum_matches_propagator_2d(self, grid_2d, rng):
        p = RieszParams(dim=2, alpha=1.0)
        a0 = 0.1 * smooth_field(grid_2d, rng)
        u0 = 0.1 * smooth_vector(grid_2d, rng)
        cfg = SolverConfig(dt=0.25, t_end=2.0, linear_only=True)
        tr = integrate(grid_2d, FieldState(a=a0, u=u0, t=0.0), p, cfg)
        ref = linear_step(grid_2d, FieldState(a=a0, u=u0, t=0.0), p, 2.0)
        for got, want in ((tr.snapshots[-1].a, ref.a), (tr.snapshots[-1].u[0], ref.u[0])):
            assert spectral_error(grid_2d, got, want) < 1e-12

    def test_rotational_part_decays_exponentially(self, grid_2d, rng):
        p = RieszParams(dim=2, alpha=1.0)
        _, w = hodge_split(grid_2d, smooth_vector(grid_2d, rng))
        u0 = hodge_reconstruct(grid_2d, np.zeros(grid_2d.shape), w)
        st = FieldState(a=np.zeros(grid_2d.shape), u=u0, t=0.0)
        out = linear_step(grid_2d, st, p, 1.0)
        assert np.max(np.abs(out.a)) < 1e-14
        assert np.max(np.abs(out.u - np.exp(-1.0) * u0)) < 1e-8

    def test_linear_step_composition(self, grid_1d, rng):
        p = RieszParams.from_s_star(1, 0.75)
        st = FieldState(a=0.2 * smooth_field(grid_1d, rng), u=0.1 * smooth_vector(grid_1d, rng), t=0.0)
        two = linear_step(grid_1d, linear_step(grid_1d, st, p, 0.6), p, 0.9)
        one = linear_step(grid_1d, st, p, 1.5)
        assert spectral_error(grid_1d, two.a, one.a) < 1e-13

    def test_rejects_negative_dt(self, grid_1d):
        p = RieszParams.from_s_star(1, 0.5)
        st = FieldState(a=np.zeros(grid_1d.shape), u=np.zeros((1,) + grid_1d.shape), t=0.0)
        with pytest.raises(ValueError):
            linear_step(grid_1d, st, p, -0.1)


class TestIntegrate:
    """Full nonlinear stepping, bookkeeping, and failure modes."""

    def test_snapshot_times_hit_exactly(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=64)
        p = RieszParams.from_s_star(1, 0.5)
        st = perturbation_presets("single-mode", 0.05, g, mode=2)
        cfg = SolverConfig(dt=0.3, t_end=1.0, snapshot_times=(0.0, 0.5, 1.0))
        tr = integrate(g, st, p, cfg)
        assert [s.t for s in tr.snapshots] == [0.0, 0.5, 1.0]
        assert tr.status == "completed"
        assert len(tr.diagnostics) == 3

    def test_mean_conserved_bit_exact(self):
        g = make_grid(dim=1, lengths=4.0 * np.pi, modes=128)
        p = RieszParams.from_s_star(1, 0.5)
        st = perturbation_presets("smooth-bump", 0.2, g)
        cfg = SolverConfig(dt=0.05, t_end=20.0, snapshot_times=tuple(np.arange(0.0, 21.0, 5.0)))
        tr = integrate(g, st, p, cfg)
        assert tr.status == "completed"
        for rec in tr.diagnostics:
            assert abs(rec["mean_a"]) < 1e-15

    def test_ifrk4_order(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=64)
        p = RieszParams.from_s_star(1, 0.5)
        st = perturbation_presets("smooth-bump", 0.2, g, width=0.5)
        t_end = 0.5

        def final_a(dt):
            cfg = SolverConfig(dt=dt, t_end=t_end)
            return integrate(g, st, p, cfg).snapshots[-1].a

        ref = final_a(t_end / 256)
        errs = [np.max(np.abs(final_a(t_end / n) - ref)) for n in (8, 16, 32)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 3.5) and np.all(orders < 4.6)

    def test_exp_euler_first_order_and_consistent(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=64)
        p = RieszParams.from_s_star(1, 0.5)
        st = perturbation_presets("smooth-bump", 0.2, g, width=0.5)
        t_end = 0.5

        def final_a(dt, method):
            cfg = SolverConfig(dt=dt, t_end=t_end, integrator=method)
            return integrate(g, st, p, cfg).snapshots[-1].a

        ref = final_a(t_end / 512, "ifrk4")
        errs = [np.max(np.abs(final_a(t_end / n, "exp-euler") - ref)) for n in (16, 32, 64)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 0.7) and np.all(orders < 1.3)
        assert errs[-1] < 5e-3

    def test_integrators_agree_on_linear_runs(self, grid_1d, rng):
        p = RieszParams.from_s_star(1, 0.5)
        st = FieldState(a=0.1 * smooth_field(grid_1d, rng), u=np.zeros((1,) + grid_1d.shape), t=0.0)
        outs = []
        for method in ("ifrk4", "exp-euler"):
            cfg = SolverConfig(dt=0.2, t_end=2.0, integrator=method, linear_only=True)
            outs.append(integrate(grid_1d, st, p, cfg).snapshots[-1].a)
        assert np.max(np.abs(outs[0] - outs[1])) < 1e-14

    def test_positivity_violation_detected(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=128)
        p = RieszParams.from_s_star(1, 0.5)
        x = g.coordinates()[0]
        # velocity-only data: the coupling transfers it into a density transient
        st = FieldState(a=np.zeros(g.shape), u=(3.0 * np.sin(x))[None, :], t=0.0)
        cfg = SolverConfig(dt=0.05, t_end=5.0, linear_only=True, positivity_floor=0.5)
        tr = integrate(g, st, p, cfg)
        assert tr.status == "positivity_violation"
        assert 0.0 < tr.abort_time < 5.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_detected(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=128)
        p = RieszParams.from_s_star(1, 0.5)
        x = g.coordinates()[0]
        st = FieldState(a=np.zeros(g.shape), u=(1e154 * np.sin(x))[None, :], t=0.0)
        tr = integrate(g, st, p, SolverConfig(dt=0.01, t_end=1.0))
        assert tr.status == "blowup"
        assert tr.abort_time is not None

    def test_initial_floor_checked(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=64)
        p = RieszParams.from_s_star(1, 0.5)
        st = perturbation_presets("single-mode", 0.5, g)
        cfg = SolverConfig(dt=0.1, t_end=1.0, positivity_floor=0.6)
        with pytest.raises(ValueError, match="positivity floor"):
            integrate(g, st, p, cfg)

    def test_shape_mismatch_rejected(self, grid_1d):
        p = RieszParams.from_s_star(1, 0.5)
        st = FieldState(a=np.zeros(32), u=np.zeros((1, 32)), t=0.0)
        with pytest.raises(ValueError, match="shapes"):
            integrate(grid_1d, st, p, SolverConfig(dt=0.1, t_end=1.0))

    def test_dims_must_match(self, grid_2d):
        p = RieszParams.from_s_star(1, 0.5)
        st = FieldState(a=np.zeros(grid_2d.shape), u=np.zeros((2,) + grid_2d.shape), t=0.0)
        with pytest.raises(ValueError, match="dim"):
            integrate(grid_2d, st, p, SolverConfig(dt=0.1, t_end=1.0))


class TestFactorCache:
    """Propagator factors are kept only for the step size in use."""

    @pytest.mark.parametrize("times", [np.geomspace(0.1, 4.0, 17), np.linspace(0.5, 4.0, 8)])
    def test_bounded_and_built_once_per_step_size(self, monkeypatch, times):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=32)
        p = RieszParams.from_s_star(1, 0.5)
        st = perturbation_presets("smooth-bump", 0.05, g)
        schemes, builds = [], []

        class Recorded(solver._Scheme):
            def __init__(self, *args):
                super().__init__(*args)
                schemes.append(self)

        def counted(xi, s_star, t, **kwargs):
            builds.append(t)
            return propagator(xi, s_star, t, **kwargs)

        monkeypatch.setattr(solver, "_Scheme", Recorded)
        monkeypatch.setattr(solver, "propagator", counted)
        # (integrator, linear_only, propagated fraction of the step): IFRK4
        # propagates by h/2 only, exponential Euler and linear-only runs by h
        for integrator, linear_only, fraction in [("ifrk4", False, 0.5), ("exp-euler", False, 1.0),
                                                  ("ifrk4", True, 1.0)]:
            schemes.clear()
            builds.clear()
            cfg = SolverConfig(dt=0.05, t_end=4.0, snapshot_times=tuple(float(t) for t in times),
                               integrator=integrator, linear_only=linear_only)
            traj = integrate(g, st, p, cfg)
            assert traj.status == "completed"

            expected = []
            for t0, t1 in zip((0.0,) + cfg.snapshot_times, cfg.snapshot_times):
                h = fraction * (t1 - t0) / max(1, int(np.ceil((t1 - t0) / cfg.dt - 1e-9)))
                if not expected or expected[-1] != h:
                    expected.append(h)
            # each segment builds its step size once; equal consecutive segments share it
            assert builds == expected
            assert traj.stats.propagator_builds == len(builds)
            assert len(schemes) == 1 and len(schemes[0]._factors) == 1


def hodge_propagator(grid, params, h):
    """E_h on half spectra of (a, u), rederived from ``propagator`` with its own Hodge split.

    Off the Nyquist region (per-axis Nyquist planes and self-conjugate
    points) the density and the compressible scalar m = i (xi/|xi|) . u
    are propagated by the 2x2 mode matrix and the rest of u is damped by
    exp(-lam h); on the region the density is frozen and u damped.
    """
    shape = grid.shape[:-1] + (grid.shape[-1] // 2 + 1,)
    xi, region = [], np.zeros(shape, dtype=bool)
    conj = np.ones(shape, dtype=bool)
    for ax, (n, L) in enumerate(zip(grid.shape, grid.lengths)):
        idx = np.arange(shape[ax])
        k = 2.0 * np.pi * np.where(idx < n // 2, idx, idx - n) / L
        along = [-1 if i == ax else 1 for i in range(grid.dim)]
        xi.append(np.broadcast_to(k.reshape(along), shape))
        region |= np.broadcast_to((idx == n // 2).reshape(along), shape)
        conj &= np.broadcast_to(((idx == 0) | (idx == n // 2)).reshape(along), shape)
    region |= conj
    norm = np.sqrt(sum(c**2 for c in xi))
    unit = np.stack([np.where(region, 0.0, c / np.where(region, 1.0, norm)) for c in xi])
    P = propagator(norm, params.s_star, h, lam=params.lam, kappa=params.kappa, rho_bar=params.rho_bar)
    rot = np.exp(-params.lam * h)

    def apply(s):
        a, u = s[0], s[1:]
        m = 1j * np.sum(unit * u, axis=0)
        comp = -1j * unit * m
        a_new = P[..., 0, 0] * a + P[..., 0, 1] * m
        m_new = P[..., 1, 0] * a + P[..., 1, 1] * m
        return np.concatenate([
            np.where(region, a, a_new)[None],
            rot * (u - comp) - 1j * unit * m_new,
        ])

    return apply


def random_half_state(grid, rng, amplitude=0.2):
    """Half spectra of a random real (a, u) with content on every mode, Nyquist included."""
    a = amplitude * rng.standard_normal(grid.shape)
    u = amplitude * rng.standard_normal((grid.dim,) + grid.shape)
    return np.fft.rfftn(np.concatenate([a[None], u]), axes=tuple(range(1, grid.dim + 1)))


def relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestLawsonStep:
    """The fused half-step IFRK4 against the classical six-propagation Lawson RK4."""

    CASES = [(1, (2.0 * np.pi,), (32,)), (2, (2.0 * np.pi, 3.0 * np.pi), (16, 24))]

    @pytest.mark.parametrize("h", [0.05, 0.37])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("dim, lengths, modes", CASES)
    def test_matches_six_propagation_form(self, dim, lengths, modes, seed, h):
        g = make_grid(dim=dim, lengths=lengths, modes=modes)
        p = RieszParams.from_s_star(dim, 0.4)
        s = random_half_state(g, np.random.default_rng(seed))
        sc = solver._Scheme(g, p)
        N = sc.rhs
        E_half, E_full = hodge_propagator(g, p, 0.5 * h), hodge_propagator(g, p, h)

        n1 = N(s)
        n2 = N(E_half(s) + 0.5 * h * E_half(n1))
        n3 = N(E_half(s) + 0.5 * h * n2)
        n4 = N(E_full(s) + h * E_half(n3))
        rk4 = E_full(s) + h / 6.0 * (E_full(n1) + 2.0 * E_half(n2) + 2.0 * E_half(n3) + n4)
        assert relative_error(sc.step_ifrk4(s, h), rk4) <= 1e-13
        assert relative_error(sc.step_exp_euler(s, h), E_full(s + h * n1)) <= 1e-13
        assert relative_error(sc.apply_linear(s, h), E_full(s)) <= 1e-13

    @pytest.mark.parametrize("dim, lengths, modes", CASES)
    def test_half_steps_compose_to_a_full_step(self, dim, lengths, modes):
        g = make_grid(dim=dim, lengths=lengths, modes=modes)
        sc = solver._Scheme(g, RieszParams.from_s_star(dim, 0.4))
        s = random_half_state(g, np.random.default_rng(7))
        for h in (0.05, 0.37, 2.0):
            twice = sc.apply_linear(sc.apply_linear(s, 0.5 * h), 0.5 * h)
            assert relative_error(twice, sc.apply_linear(s, h)) <= 1e-14


class TestRunStats:
    """integrate reports its steps, step sizes and propagator builds."""

    def test_c08_schedule(self):
        # the acceptance c08 schedule; the counts depend on the schedule only
        g = make_grid(dim=1, lengths=200 * np.pi, modes=256)
        p = RieszParams.from_s_star(1, 0.5)
        st = perturbation_presets("low-frequency-powerlaw", 0.005, g, sigma1=-0.5, cutoff=1.0, seed=0)
        times = tuple(float(t) for t in np.geomspace(1.0, 40.0, 33))
        stats = integrate(g, st, p, SolverConfig(dt=0.1, t_end=40.0, snapshot_times=times)).stats
        assert stats.steps == 414
        assert stats.propagator_builds == 33
        assert len(stats.step_sizes) == 33 and max(stats.step_sizes) <= 0.1

    def test_counts_stop_at_an_abort(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=32)
        p = RieszParams.from_s_star(1, 0.5)
        st = perturbation_presets("single-mode", 0.3, g, mode=1)
        st = FieldState(a=st.a, u=-2.0 * np.sin(g.coordinates()[0])[None], t=0.0)
        traj = integrate(g, st, p, SolverConfig(dt=0.01, t_end=2.0, positivity_floor=0.5))
        assert traj.status == "positivity_violation"
        assert traj.stats.steps == round(traj.abort_time / 0.01)
        assert traj.stats.step_sizes == (0.01,) and traj.stats.propagator_builds == 1

    def test_no_steps_no_builds(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=32)
        st = perturbation_presets("smooth-bump", 0.05, g)
        stats = integrate(g, st, RieszParams.from_s_star(1, 0.5), SolverConfig(dt=0.1, t_end=0.0)).stats
        assert (stats.steps, stats.step_sizes, stats.propagator_builds) == (0, (), 0)


def dft_coefficients(f):
    """Centered Fourier coefficients c_k (k in [-N/2, N/2) per axis) by explicit DFT sums."""
    out = np.asarray(f, dtype=complex)
    for ax, n in enumerate(out.shape):
        k = np.arange(-(n // 2), n // 2)
        mat = np.exp(-2j * np.pi * np.outer(k, np.arange(n)) / n) / n
        out = np.moveaxis(np.tensordot(mat, out, axes=(1, ax)), 0, ax)
    return out


def dft_synthesis(c):
    out = np.asarray(c, dtype=complex)
    for ax, n in enumerate(out.shape):
        k = np.arange(-(n // 2), n // 2)
        mat = np.exp(2j * np.pi * np.outer(np.arange(n), k) / n)
        out = np.moveaxis(np.tensordot(mat, out, axes=(1, ax)), 0, ax)
    return out


def truncation(shape, fraction):
    """Kept modes |k_i| <= min(floor(fraction N_i / 2), N_i / 2 - 1), rederived independently."""
    keep = np.ones(shape, dtype=bool)
    for ax, n in enumerate(shape):
        k = np.abs(np.arange(-(n // 2), n // 2))
        kept = k <= min(int(fraction * n / 2), n // 2 - 1)
        keep &= kept.reshape([-1 if i == ax else 1 for i in range(len(shape))])
    return keep


def grid_convolution(c1, c2):
    """(c1 * c2)_k = sum over p of c1_p c2_(k-p), indices mod N: the product on the N-point grid."""
    out = np.zeros_like(c2)
    for p in zip(*np.nonzero(c1)):
        shift = tuple(int(i) - n // 2 for i, n in zip(p, c1.shape))
        out += c1[p] * np.roll(c2, shift, axis=tuple(range(c1.ndim)))
    return out


class TestNonlinearOracle:
    """rhs_nonlinear against direct truncated convolution sums (no FFT, no dealias mask)."""

    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "dim, modes, lengths", [(1, 32, (2.0 * np.pi,)), (2, 16, (2.0 * np.pi, 3.0 * np.pi))]
    )
    def test_matches_convolution_sums(self, dim, modes, lengths, seed, fraction):
        g = make_grid(dim=dim, lengths=lengths, modes=modes)
        rng = np.random.default_rng(seed)
        a = 0.2 * rng.standard_normal(g.shape)
        u = rng.standard_normal((dim,) + g.shape)
        da, du = rhs_nonlinear(g, FieldState(a=a, u=u, t=0.0), dealias=fraction)

        keep = truncation(g.shape, fraction)
        a_k = dft_coefficients(a) * keep
        u_k = [dft_coefficients(c) * keep for c in u]
        ik = []
        for ax, (n, L) in enumerate(zip(g.shape, lengths)):
            k = 2.0 * np.pi * np.arange(-(n // 2), n // 2) / L
            ik.append(1j * k.reshape([-1 if i == ax else 1 for i in range(dim)]))
        da_k = -sum(ik[j] * grid_convolution(a_k, u_k[j]) for j in range(dim)) * keep
        du_k = [-sum(grid_convolution(u_k[j], ik[j] * u_k[i]) for j in range(dim)) * keep for i in range(dim)]

        da_ref = dft_synthesis(da_k).real
        du_ref = np.stack([dft_synthesis(c).real for c in du_k])
        assert np.max(np.abs(da - da_ref)) < 1e-12 * np.max(np.abs(da_ref))
        assert np.max(np.abs(du - du_ref)) < 1e-12 * np.max(np.abs(du_ref))


class TestTransformCount:
    """integrate runs on the half spectrum with a fixed transform count per IFRK4 step."""

    #: 4 tendencies x (irfftn of the state, irfftn of the gradients, rfftn of a u,
    #: rfftn of u . grad u) plus one irfftn of the density for the positivity check
    PER_STEP = 17

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rfft_only_and_fixed_per_step(self, dim, fft_calls):
        g = make_grid(dim=dim, lengths=2.0 * np.pi, modes=16)
        p = RieszParams.from_s_star(dim, 0.5)
        st = perturbation_presets("smooth-bump", 0.05, g)
        for nsteps in (2, 5):
            before = dict(fft_calls)
            integrate(g, st, p, SolverConfig(dt=1.0 / nsteps, t_end=1.0))
            made = {name: fft_calls[name] - before[name] for name in fft_calls}
            # one rfftn of the initial state, one irfftn per recorded snapshot (t = 0 and 1)
            assert made == {"fftn": 0, "ifftn": 0, "rfftn": 1 + 8 * nsteps, "irfftn": 2 + 9 * nsteps}
            assert made["rfftn"] + made["irfftn"] == 3 + self.PER_STEP * nsteps
