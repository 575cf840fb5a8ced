"""Time integration: exact linear part, dealiased nonlinearity, presets."""

import gc
import math
import tracemalloc
import weakref

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

from conftest import FFT_NAMES, smooth_field, smooth_vector


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
        # an infinite t_end would reach math.ceil as an OverflowError
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                SolverConfig(dt=bad, t_end=1.0)
            with pytest.raises(ValueError, match="t_end must be nonnegative and finite"):
                SolverConfig(dt=0.1, t_end=bad)
        with pytest.raises(ValueError, match="integrator"):
            SolverConfig(dt=0.1, t_end=1.0, integrator="rk45")
        with pytest.raises(ValueError, match="dealias"):
            SolverConfig(dt=0.1, t_end=1.0, dealias=1.5)
        with pytest.raises(ValueError, match="positivity"):
            SolverConfig(dt=0.1, t_end=1.0, positivity_floor=0.0)

    def test_refuses_fractions_above_two_thirds(self, grid_1d):
        # a wider box would keep modes whose products alias onto kept modes
        with pytest.raises(ValueError, match="2/3 rule"):
            SolverConfig(dt=0.1, t_end=1.0, dealias=0.7)
        st = FieldState(a=np.zeros(grid_1d.shape), u=np.zeros((1,) + grid_1d.shape), t=0.0)
        with pytest.raises(ValueError, match="2/3 rule"):
            rhs_nonlinear(grid_1d, st, dealias=1.0)
        assert SolverConfig(dt=0.1, t_end=1.0, dealias=2.0 / 3.0).dealias == 2.0 / 3.0

    def test_snapshot_times_checked(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SolverConfig(dt=0.1, t_end=1.0, snapshot_times=(0.5, 0.5))
        with pytest.raises(ValueError, match="0, t_end"):
            SolverConfig(dt=0.1, t_end=1.0, snapshot_times=(0.0, 2.0))
        # a NaN passes both checks above and would reach math.ceil in integrate
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="snapshot times must be finite"):
                SolverConfig(dt=0.1, t_end=1.0, snapshot_times=(0.0, bad, 1.0))


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
        for kind in solver.PRESETS:
            st = perturbation_presets(kind, 0.05, g)
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

    def test_single_mode_inside_the_alias_free_box(self):
        # 3 mode < N_1: on N = 48 the solver keeps |k| <= 15, so mode 16 lies outside
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=48)
        with pytest.raises(ValueError, match="dealias cutoff"):
            perturbation_presets("single-mode", 0.1, g, mode=16)
        st = perturbation_presets("single-mode", 0.1, g, mode=15)
        assert np.allclose(st.a, 0.1 * np.cos(15.0 * g.coordinates()[0]), atol=1e-14)

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
        with pytest.raises(ValueError, match="^width must lie in"):
            perturbation_presets("smooth-bump", 0.1, g, width=2.0)
        with pytest.raises(ValueError, match="^cutoff excludes"):
            perturbation_presets("low-frequency-powerlaw", 0.1, g, sigma1=-0.5, cutoff=0.5)

    @pytest.mark.parametrize("kind, key", [
        ("smooth-bump", "mode"), ("smooth-bump", "sigma1"), ("single-mode", "width"),
        ("low-frequency-powerlaw", "mode"),
    ])
    def test_keyword_of_another_kind_is_refused(self, kind, key):
        g = make_grid(dim=1, lengths=8.0 * np.pi, modes=64)
        reads = ", ".join(solver.PRESETS[kind])
        with pytest.raises(ValueError, match=rf"^{key} is not read by kind = {kind} \(it reads {reads}\)$"):
            perturbation_presets(kind, 0.1, g, **{key: 3})

    def test_every_keyword_of_another_kind_is_named(self):
        g = make_grid(dim=1, lengths=8.0 * np.pi, modes=64)
        with pytest.raises(ValueError, match=r"^mode is not read by kind = smooth-bump \(it reads width\); "
                                             r"sigma1 is not read by kind = smooth-bump"):
            perturbation_presets("smooth-bump", 0.1, g, mode=3, sigma1=-1.0)

    @pytest.mark.parametrize("kind", list(solver.PRESETS))
    def test_defaults_come_from_the_table(self, kind):
        g = make_grid(dim=2, lengths=8.0 * np.pi, modes=32)
        a = perturbation_presets(kind, 0.1, g, seed=5).a
        assert a.tobytes() == perturbation_presets(kind, 0.1, g, seed=5, **solver.PRESETS[kind]).a.tobytes()

    def test_powerlaw_default_sigma1(self):
        g = make_grid(dim=1, lengths=8.0 * np.pi, modes=128)
        a = perturbation_presets("low-frequency-powerlaw", 0.1, g, seed=7).a
        assert a.tobytes() == perturbation_presets("low-frequency-powerlaw", 0.1, g, sigma1=-0.5,
                                                   seed=7).a.tobytes()


class TestNonlinearTendency:
    """Physical-space products against hand expansions."""

    def test_single_mode_products(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=64)
        x = g.coordinates()[0]
        eps, v, k = 0.2, 0.7, 3.0
        st = FieldState(a=eps * np.cos(k * x), u=(v * np.sin(k * x))[None, :], t=0.0)
        da, du = rhs_nonlinear(g, st)
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

    @pytest.mark.parametrize("modes", [(32, 16), (48, 24), (30, 16)])
    def test_plane_wave_state_gives_the_1d_tendency(self, modes, rng):
        # a state of x_1 alone with u_2 = 0 has no vorticity, so the 2D
        # rotational form reduces to the 1D one, -(a u_1)_1 and -(u_1^2/2)_1
        L = 2.0 * np.pi
        g1 = make_grid(dim=1, lengths=L, modes=modes[0])
        g2 = make_grid(dim=2, lengths=(L, 3.0 * np.pi), modes=modes)
        a, u = 0.1 * smooth_field(g1, rng), smooth_field(g1, rng)
        da1, du1 = rhs_nonlinear(g1, FieldState(a=a, u=u[None, :], t=0.0))
        plane = (modes[0], 1)
        st = FieldState(a=np.broadcast_to(a.reshape(plane), modes).copy(),
                        u=np.stack([np.broadcast_to(u.reshape(plane), modes), np.zeros(modes)]), t=0.0)
        da2, du2 = rhs_nonlinear(g2, st)
        for got, want in ((da2, da1), (du2[0], du1[0])):
            want = np.broadcast_to(want.reshape(plane), modes)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.all(du2[1] == 0.0)


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
        cfg = SolverConfig(dt=0.37, t_end=3.0, integrator="linear")
        tr = integrate(g, FieldState(a=a0, u=u0, t=0.0), p, cfg)
        ref = linear_step(g, FieldState(a=a0, u=u0, t=0.0), p, 3.0)
        assert tr.status == "completed"
        assert spectral_error(g, tr.snapshots[-1].a, ref.a) < 1e-12
        assert spectral_error(g, tr.snapshots[-1].u[0], ref.u[0]) < 1e-12

    def test_full_spectrum_matches_propagator_2d(self, grid_2d, rng):
        p = RieszParams(dim=2, alpha=1.0)
        a0 = 0.1 * smooth_field(grid_2d, rng)
        u0 = 0.1 * smooth_vector(grid_2d, rng)
        cfg = SolverConfig(dt=0.25, t_end=2.0, integrator="linear")
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
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="dt must be nonnegative and finite"):
                linear_step(grid_1d, st, p, bad)


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

    def test_positivity_violation_detected(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=128)
        p = RieszParams.from_s_star(1, 0.5)
        x = g.coordinates()[0]
        # velocity-only data: the coupling transfers it into a density transient
        st = FieldState(a=np.zeros(g.shape), u=(3.0 * np.sin(x))[None, :], t=0.0)
        cfg = SolverConfig(dt=0.05, t_end=5.0, integrator="linear", positivity_floor=0.5)
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

    @pytest.mark.parametrize("where", ["density", "velocity"])
    def test_non_finite_initial_data_refused(self, where):
        # a NaN density has a NaN minimum, which the positivity check lets through
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=32)
        p = RieszParams.from_s_star(1, 0.5)
        st = perturbation_presets("smooth-bump", 0.1, g)
        if where == "density":
            st.a[5] = np.nan
        else:
            st.u[0, 7] = np.inf
        with pytest.raises(ValueError, match=f"initial {where} is not finite"):
            integrate(g, st, p, SolverConfig(dt=0.1, t_end=0.5))

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
        # (integrator, propagated fraction of the step): IFRK4 propagates
        # by h/2 only, exponential Euler and linear runs by h
        for integrator, fraction in [("ifrk4", 0.5), ("exp-euler", 1.0), ("linear", 1.0)]:
            schemes.clear()
            builds.clear()
            cfg = SolverConfig(dt=0.05, t_end=4.0, snapshot_times=tuple(float(t) for t in times),
                               integrator=integrator)
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

    def test_equal_segments_share_one_step_size(self):
        # linspace:0,1,6 at dt 0.05: the spans of the five segments differ in
        # the last bits (0.6000000000000001 - 0.4 is 0.20000000000000007)
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=32)
        st = perturbation_presets("smooth-bump", 0.05, g)
        times = tuple(float(t) for t in np.linspace(0.0, 1.0, 6))
        cfg = SolverConfig(dt=0.05, t_end=1.0, snapshot_times=times)
        traj = integrate(g, st, RieszParams.from_s_star(1, 0.5), cfg)
        assert traj.stats.steps == 20
        assert traj.stats.step_sizes == (0.05,) and traj.stats.propagator_builds == 1
        # every segment still ends exactly at its target
        assert [snap.t for snap in traj.snapshots] == list(times)

    def test_no_steps_no_builds(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=32)
        st = perturbation_presets("smooth-bump", 0.05, g)
        stats = integrate(g, st, RieszParams.from_s_star(1, 0.5), SolverConfig(dt=0.1, t_end=0.0)).stats
        assert (stats.steps, stats.step_sizes, stats.propagator_builds) == (0, (), 0)


class TestSnapshotSink:
    """integrate hands each snapshot to a sink as it reaches the snapshot's time."""

    @staticmethod
    def run(sink=None):
        g = make_grid(dim=2, lengths=16 * np.pi, modes=32)
        p = RieszParams.from_s_star(2, 0.5)
        st = perturbation_presets("low-frequency-powerlaw", 0.05, g, sigma1=-1.0, cutoff=1.0, seed=2)
        times = tuple(float(t) for t in np.linspace(0.0, 1.0, 9))
        return integrate(g, st, p, SolverConfig(dt=0.05, t_end=1.0, snapshot_times=times), sink=sink), times

    def test_sink_sees_the_default_snapshots_in_time_order(self):
        kept, times = self.run()
        seen = []
        traj, _ = self.run(lambda state, diag, spectrum: seen.append((state, diag)))
        assert [state.t for state, _ in seen] == list(times)
        assert len(seen) == len(kept.snapshots)
        for (state, diag), ref, ref_diag in zip(seen, kept.snapshots, kept.diagnostics):
            assert state.a.tobytes() == ref.a.tobytes() and state.u.tobytes() == ref.u.tobytes()
            assert diag == ref_diag
        assert traj.stats == kept.stats

    def test_a_sink_leaves_the_trajectory_without_states(self):
        count = []
        traj, times = self.run(lambda state, diag, spectrum: count.append(state.t))
        assert traj.snapshots == [] and traj.diagnostics == []
        assert traj.status == "completed" and traj.abort_time is None
        assert traj.stats.steps == 24 and traj.stats.propagator_builds == 1
        assert len(count) == len(times)

    def test_the_spectrum_refuses_writes(self):
        def write(state, diag, spectrum):
            spectrum[0, 1, 1] = 0.0

        with pytest.raises(ValueError, match="read-only"):
            self.run(write)

    def test_the_spectrum_is_one_view_of_the_transform_of_the_state(self):
        g = make_grid(dim=2, lengths=16 * np.pi, modes=32)
        seen, gaps = [], []

        def compare(state, diag, spectrum):
            seen.append(spectrum)
            ref = g.rfft(np.concatenate([state.a[None], state.u]))
            gaps.append(np.max(np.abs(spectrum - ref)) / np.max(np.abs(spectrum)))

        self.run(compare)
        # one view of the run's state for every snapshot, never a copy
        assert len(seen) == 9 and all(s is seen[0] for s in seen)
        assert seen[0].shape == (3, 32, 17) and not seen[0].flags.owndata
        # the state's own transform to round-off (4.3e-16 of the largest mode measured)
        assert max(gaps) < 1e-15

    def test_an_aborted_run_passed_exactly_the_snapshots_before_the_abort(self):
        # the data of TestRunStats.test_counts_stop_at_an_abort, which falls below the floor
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=32)
        p = RieszParams.from_s_star(1, 0.5)
        st = perturbation_presets("single-mode", 0.3, g, mode=1)
        st = FieldState(a=st.a, u=-2.0 * np.sin(g.coordinates()[0])[None], t=0.0)
        times = tuple(float(t) for t in np.linspace(0.0, 2.0, 17))
        cfg = SolverConfig(dt=0.01, t_end=2.0, snapshot_times=times, positivity_floor=0.5)
        ref = integrate(g, st, p, cfg)
        seen = []
        traj = integrate(g, st, p, cfg, sink=lambda state, diag, spectrum: seen.append(state.t))
        assert traj.status == ref.status == "positivity_violation"
        assert traj.abort_time == ref.abort_time and traj.stats == ref.stats
        assert seen == [s.t for s in ref.snapshots] == [t for t in times if t < traj.abort_time]
        assert 0 < len(seen) < len(times)


class TestFiniteCheck:
    """A NaN or an infinity in the density or the velocity spectra stops the run as a blowup."""

    @pytest.mark.parametrize("where, value", [
        ("velocity", complex(np.inf, 0.0)),
        ("velocity", complex(0.0, -np.inf)),
        ("velocity", complex(np.nan, 0.0)),
        ("density", np.nan),
        ("density", np.inf),
        ("density", -np.inf),
    ])
    def test_one_value_aborts(self, monkeypatch, where, value):
        g = make_grid(dim=2, lengths=16 * np.pi, modes=32)
        p = RieszParams.from_s_star(2, 0.5)
        st = perturbation_presets("smooth-bump", 0.05, g)
        steps = []

        class Injecting(solver._Scheme):
            """Puts ``value`` into one velocity mode or one density point after the third step."""

            def step_ifrk4(self, s, h, out=None):
                out = super().step_ifrk4(s, h, out=out)
                steps.append(h)
                if len(steps) == 3 and where == "velocity":
                    out[2, 5, 3] = value
                return out

            def density(self, s):
                a = super().density(s)
                if len(steps) == 3 and where == "density":
                    a[7, 11] = value
                return a

        monkeypatch.setattr(solver, "_Scheme", Injecting)
        traj = integrate(g, st, p, SolverConfig(dt=0.1, t_end=0.5))
        assert traj.status == "blowup"
        assert traj.abort_time == pytest.approx(0.3) and traj.stats.steps == 3


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
    """Kept modes |k_i| <= K_i, K_i the largest integer <= fraction N_i / 2 with 3 K_i < N_i.

    Rederived independently, by enumeration, in the centered order of
    ``dft_coefficients`` (k in [-N/2, N/2) per axis).
    """
    keep = np.ones(shape, dtype=bool)
    for ax, n in enumerate(shape):
        k = np.abs(np.arange(-(n // 2), n // 2))
        largest = max(m for m in range(n) if m <= fraction * n / 2 and 3 * m < n)
        keep &= (k <= largest).reshape([-1 if i == ax else 1 for i in range(len(shape))])
    return keep


def kept_half(grid, fraction):
    """``truncation`` on the half lattice, in the FFT order of half spectra."""
    return grid.half(np.fft.ifftshift(truncation(grid.shape, fraction)))


def grid_convolution(c1, c2):
    """(c1 * c2)_k = sum over p of c1_p c2_(k-p), indices mod N: the product on the N-point grid."""
    out = np.zeros_like(c2)
    for p in zip(*np.nonzero(c1)):
        shift = tuple(int(i) - n // 2 for i, n in zip(p, c1.shape))
        out += c1[p] * np.roll(c2, shift, axis=tuple(range(c1.ndim)))
    return out


class TestNonlinearOracle:
    """rhs_nonlinear against direct truncated convolution sums (no FFT, no dealias mask)."""

    # 0.5: the fraction, not the alias-free cap, sets the box (K = 8 at N = 32, 4 at 16)
    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5])
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

    #: per dimension, the transform calls of one step: 4 tendencies plus the inverse of
    #: the density for the positivity check (in 2D ifft over the first axis, then irfft).
    #: N = 16 keeps K = 5, so a 1D tendency (conservative form) is the irfft of the box of
    #: the state and the rfft of [a u, u^2/2], and a 2D one (rotational form) the inverse
    #: of the box of the state and the vorticity (ifft over the first axis on the K + 1
    #: kept columns, then irfft) and the forward of [a u, |u|^2/2, w u_2, w u_1] (rfft,
    #: then fft over the first axis on the kept columns).
    PER_STEP = {1: {"irfft": 5, "rfft": 4},
                2: {"ifft": 5, "irfft": 5, "rfft": 4, "fft": 4}}
    #: 1-D transform passes of one step: two per 1D tendency, four per 2D one, and one
    #: per axis for the density
    PASSES_PER_STEP = {1: 9, 2: 18}

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rfft_only_and_fixed_per_step(self, dim, fft_calls):
        g = make_grid(dim=dim, lengths=2.0 * np.pi, modes=16)
        p = RieszParams.from_s_star(dim, 0.5)
        st = perturbation_presets("smooth-bump", 0.05, g)
        n, kept_cols = 16, 6
        # points of one step: the 1D tendency transforms 2 box spectra of K + 1 modes and
        # 2 fields; the 2D one 4 box spectra padded to (N, K + 1), then their whole
        # (N, N/2 + 1) rows (zeroed past K), 5 fields and their (N, K + 1) kept columns;
        # the density check one half spectrum per pass
        points = {1: 4 * (2 * kept_cols + 2 * n) + (n // 2 + 1),
                  2: 4 * (4 * n * kept_cols + 4 * n * (n // 2 + 1) + 5 * n * n + 5 * n * kept_cols)
                  + 2 * n * (n // 2 + 1)}
        for nsteps in (2, 5):
            before, passes, points_before = dict(fft_calls), fft_calls.passes, fft_calls.points
            integrate(g, st, p, SolverConfig(dt=1.0 / nsteps, t_end=1.0))
            made = {name: fft_calls[name] - before[name] for name in FFT_NAMES}
            # one forward transform of the initial state (rfft, then fft over the first axis
            # in 2D) and one inverse per recorded snapshot, t = 0 and 1 (irfft, after ifft over
            # the first axis in 2D)
            setup = {"rfft": 1, "irfft": 2, "fft": dim - 1, "ifft": 2 * (dim - 1)}
            assert made == {name: setup.get(name, 0) + nsteps * self.PER_STEP[dim].get(name, 0)
                            for name in FFT_NAMES}
            assert fft_calls.passes - passes == 3 * dim + nsteps * self.PASSES_PER_STEP[dim]
            half = (1 + dim) * n ** (dim - 1) * (n // 2 + 1)
            setup_points = (1 + dim) * n**dim + (3 * dim - 1) * half
            assert fft_calls.points - points_before == setup_points + nsteps * points[dim]


class TestAliasFreeRule:
    """The solver keeps the largest box within the fraction whose products are alias-free,
    3 K_i < N_i on every axis, and takes the conservative (1D) or rotational (2D) form."""

    @pytest.mark.parametrize("modes, kept", [(30, 9), (48, 15), (96, 31)])
    def test_third_of_the_grid_kept_matches_convolution_sums(self, modes, kept):
        # N divisible by 3: fraction 2/3 keeps K = N/3 - 1, since products of
        # the modes +-N/3 alias onto kept modes
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=modes)
        assert solver._Scheme(g, None).kept == (kept,)
        for seed in (0, 1):
            TestNonlinearOracle().test_matches_convolution_sums(
                1, modes, (2.0 * np.pi,), seed, 2.0 / 3.0)

    @pytest.mark.parametrize("modes", [32, 64])
    def test_transforms_per_tendency(self, modes, fft_calls):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=modes)
        scheme = solver._Scheme(g, None)
        s = g.rfft(np.random.default_rng(0).standard_normal((2, modes)))
        before = dict(fft_calls)
        scheme.rhs(s)
        made = {name: fft_calls[name] - before[name] for name in FFT_NAMES}
        assert made == {name: 1 if name in ("rfft", "irfft") else 0 for name in FFT_NAMES}

    @pytest.mark.parametrize(
        "modes, kept",
        [((16, 32), (5, 10)), ((32, 20), (10, 6)),
         ((16, 24), (5, 7)), ((24, 16), (7, 5)), ((24, 24), (7, 7))],
    )
    def test_2d_rule_per_axis_matches_convolution_sums(self, modes, kept):
        # 2/3 keeps K_i = floor(N_i/3) on 16, 20 and 32 points and N_i/3 - 1 on 24
        lengths = (2.0 * np.pi, 3.0 * np.pi)
        g = make_grid(dim=2, lengths=lengths, modes=modes)
        assert solver._Scheme(g, None).kept == kept
        for seed in (0, 1):
            TestNonlinearOracle().test_matches_convolution_sums(2, modes, lengths, seed, 2.0 / 3.0)

    def test_transforms_per_tendency_2d(self, fft_calls):
        g = make_grid(dim=2, lengths=(2.0 * np.pi, 3.0 * np.pi), modes=(16, 32))
        scheme = solver._Scheme(g, None)
        s = g.rfft(np.random.default_rng(0).standard_normal((3, 16, 32)))
        before = dict(fft_calls)
        scheme.rhs(s)
        made = {name: fft_calls[name] - before[name] for name in FFT_NAMES}
        assert made == {name: 1 if name in ("fft", "ifft", "rfft", "irfft") else 0 for name in FFT_NAMES}


class AllocatingScheme:
    """The allocating tendency, linear update and steps the workspace replaced, as a reference.

    Every operation builds its result in a fresh array on the whole half
    lattice; the scheme under test must reproduce these results bit for
    bit.  The tendency is exactly +0 outside the dealias box.  The
    propagator factors come from ``propagator`` with the Nyquist rule
    written here, the mask from ``truncation`` and the symbols from the
    grid: no code of ``_Scheme`` is shared.
    """

    def __init__(self, grid, params, dealias):
        self.grid, self.params = grid, params
        self.mask = kept_half(grid, dealias)
        self.ie = 1j * np.stack(grid.half_xi_unit)

    def factors(self, h):
        """(p11, p12, q21, q22, rot) on the half lattice; on the Nyquist region a is frozen, u damped."""
        g, p = self.grid, self.params
        P = propagator(g.half_xi_norm, p.s_star, h, lam=p.lam, kappa=p.kappa, rho_bar=p.rho_bar)
        rot = math.exp(-p.lam * h)
        P[g.half_nyquist_region] = [[1.0, 0.0], [0.0, rot]]
        return P[..., 0, 0], P[..., 0, 1], -P[..., 1, 0], rot - P[..., 1, 1], rot

    def apply_linear(self, s, h):
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

    def rhs(self, s):
        g = self.grid
        masked = s * self.mask
        if g.dim == 2:
            k1, k2 = g.half_grad
            w_hat = k1 * masked[2] - k2 * masked[1]
            a, u1, u2, w = g.irfft(np.concatenate([masked, w_hat[None]]))
            v = g.rfft(np.stack([a * u1, a * u2, 0.5 * u1 * u1 + 0.5 * u2 * u2, w * u2, w * u1]))
            mg = tuple(-k for k in g.half_grad)
            out = np.empty_like(s)
            out[0] = mg[0] * v[0] + mg[1] * v[1]
            out[1] = mg[0] * v[2] + v[3]
            out[2] = mg[1] * v[2] - v[4]
            return np.where(self.mask, out, 0)
        a, u = g.irfft(masked)
        return np.where(self.mask, -g.half_grad[0] * g.rfft(np.stack([a * u, 0.5 * u * u])), 0)

    def step_exp_euler(self, s, h):
        return self.apply_linear(s + h * self.rhs(s), h)

    def step_ifrk4(self, s, h):
        half = 0.5 * h
        lin = self.apply_linear
        A = lin(s, half)
        B = lin(self.rhs(s), half)
        n2 = self.rhs(A + half * B)
        n3 = self.rhs(A + half * n2)
        n4 = self.rhs(lin(A + h * n3, half))
        return lin(A + (h / 6.0) * (B + 2.0 * (n2 + n3)), half) + (h / 6.0) * n4


#: (dim, lengths, modes, dealias fraction)
WORKSPACE_CASES = [
    (1, (2.0 * np.pi,), (32,), 2.0 / 3.0),
    (1, (2.0 * np.pi,), (48,), 2.0 / 3.0),  # N divisible by 3: K = N/3 - 1
    (2, (2.0 * np.pi, 3.0 * np.pi), (16, 24), 2.0 / 3.0),  # K_2 = N_2/3 - 1
    (2, (2.0 * np.pi, 3.0 * np.pi), (16, 32), 2.0 / 3.0),
    (2, (2.0 * np.pi, 3.0 * np.pi), (16, 32), 0.5),  # the box of the fraction, K = (4, 8)
    # more rows than one block of the physical stage (grid._ROW_BLOCK = 32), and not a multiple
    # of it; the cell of the (16, 24) case, on which TestKeptBox's white noise stays above the floor
    (2, (10.0 * np.pi, 3.0 * np.pi), (80, 24), 2.0 / 3.0),
    # a small box, K = (1, 3): the outside modes' state and scratch (6 x 260) exceed the five
    # half spectra (5 x 272) of the workspace's _spec, which is sized to hold them
    (2, (2.0 * np.pi, 3.0 * np.pi), (16, 32), 0.2),
]

#: SolverConfig settings of each advance path and the scheme method it uses
PATHS = {
    "ifrk4": (dict(integrator="ifrk4"), "step_ifrk4"),
    "exp-euler": (dict(integrator="exp-euler"), "step_exp_euler"),
    "linear": (dict(integrator="linear"), "apply_linear"),
}


def bit_equal(x, y):
    """Equal values and equal bytes: signed zeros must match too."""
    return np.array_equal(x, y) and x.tobytes() == y.tobytes()


def workspace_case(dim, lengths, modes, seed=0):
    g = make_grid(dim=dim, lengths=lengths, modes=modes)
    p = RieszParams.from_s_star(dim, 0.4)
    return g, p, random_half_state(g, np.random.default_rng(seed))


class TestWorkspaceStep:
    """The workspace scheme reproduces the allocating one bit for bit, fresh or in place."""

    @pytest.mark.parametrize("path", list(PATHS))
    @pytest.mark.parametrize("dim, lengths, modes, fraction", WORKSPACE_CASES)
    def test_steps_bit_identical(self, dim, lengths, modes, fraction, path):
        g, p, s0 = workspace_case(dim, lengths, modes)
        sc, ref = solver._Scheme(g, p, fraction), AllocatingScheme(g, p, fraction)
        method = PATHS[path][1]
        want, fresh, inplace = s0, s0, s0.copy()
        for h in (0.05, 0.05, 0.37, 0.05):
            want = getattr(ref, method)(want, h)
            fresh = getattr(sc, method)(fresh, h)
            assert getattr(sc, method)(inplace, h, out=inplace) is inplace
            assert bit_equal(fresh, want) and bit_equal(inplace, want)

    @pytest.mark.parametrize("dim, lengths, modes, fraction", WORKSPACE_CASES)
    def test_rhs_bit_identical(self, dim, lengths, modes, fraction):
        g, p, s = workspace_case(dim, lengths, modes, seed=3)
        sc, ref = solver._Scheme(g, p, fraction), AllocatingScheme(g, p, fraction)
        want = ref.rhs(s)
        assert bit_equal(sc.rhs(s), want)
        t = s.copy()
        assert sc.rhs(t, out=t) is t and bit_equal(t, want)

    @pytest.mark.parametrize("path", list(PATHS))
    @pytest.mark.parametrize("dim, lengths, modes, fraction", WORKSPACE_CASES)
    def test_integrate_bit_identical(self, dim, lengths, modes, fraction, path):
        g = make_grid(dim=dim, lengths=lengths, modes=modes)
        p = RieszParams.from_s_star(dim, 0.4)
        rng = np.random.default_rng(5)
        a, u = smooth_field(g, rng), smooth_vector(g, rng)
        st = FieldState(a=0.2 * a / np.max(np.abs(a)), u=0.2 * u / np.max(np.abs(u)), t=0.0)
        settings, method = PATHS[path]
        cfg = SolverConfig(dt=0.05, t_end=0.25, dealias=fraction, **settings)
        traj = integrate(g, st, p, cfg)
        assert traj.stats.steps == 5
        ref = AllocatingScheme(g, p, fraction)
        s = solver._state_spectrum(g, st)
        for _ in range(5):
            s = getattr(ref, method)(s, 0.25 / 5)
        want = g.irfft(s)
        assert bit_equal(traj.snapshots[-1].a, want[0])
        assert bit_equal(traj.snapshots[-1].u, want[1:])


    @pytest.mark.parametrize("dim, lengths, modes, fraction", WORKSPACE_CASES)
    def test_density_bit_identical(self, dim, lengths, modes, fraction):
        g, p, s = workspace_case(dim, lengths, modes, seed=6)
        sc, kept = solver._Scheme(g, p, fraction), s.copy()
        a = sc.density(s)
        assert bit_equal(a, g.irfft(s[0])) and np.array_equal(s, kept)


class TestWorkspaceAliasing:
    """Results are fresh arrays, inputs stay unchanged and schemes share no buffer."""

    @pytest.mark.parametrize("dim, lengths, modes, fraction", WORKSPACE_CASES)
    def test_results_are_fresh(self, dim, lengths, modes, fraction):
        g, p, s = workspace_case(dim, lengths, modes)
        sc = solver._Scheme(g, p, fraction)
        kept = s.copy()
        for call in (sc.rhs, lambda x: sc.apply_linear(x, 0.1), lambda x: sc.step_ifrk4(x, 0.1),
                     lambda x: sc.step_exp_euler(x, 0.1)):
            r1, r2 = call(s), call(s)
            assert np.array_equal(s, kept)
            assert np.array_equal(r1, r2)
            assert not np.shares_memory(r1, r2)
            assert not np.shares_memory(r1, s) and not np.shares_memory(r2, s)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_strided_out_is_refused(self, dim):
        # the modes outside the box are scattered back through a flat view of out
        g = make_grid(dim=dim, lengths=(2.0 * np.pi,) * dim, modes=(16,) * dim)
        sc = solver._Scheme(g, RieszParams.from_s_star(dim, 0.4))
        s = random_half_state(g, np.random.default_rng(0))
        out = np.empty(s.shape[:-1] + (2 * s.shape[-1],), dtype=complex)[..., ::2]
        for step in (sc.step_ifrk4, sc.step_exp_euler, sc.apply_linear):
            with pytest.raises(ValueError, match="C-contiguous"):
                step(s, 0.05, out=out)

    def test_freed_without_the_cycle_collector(self):
        # a finished run returns its workspace at once, not at the next full collection
        g = make_grid(dim=2, lengths=2.0 * np.pi, modes=16)
        p = RieszParams.from_s_star(2, 0.4)
        sc = solver._Scheme(g, p)
        sc.step_ifrk4(random_half_state(g, np.random.default_rng(0)), 0.05)
        ref = weakref.ref(sc)
        gc.disable()
        try:
            del sc
            assert ref() is None
        finally:
            gc.enable()

    def test_two_schemes_share_no_buffer(self):
        g = make_grid(dim=2, lengths=2.0 * np.pi, modes=16)
        p = RieszParams.from_s_star(2, 0.4)
        one, two = solver._Scheme(g, p), solver._Scheme(g, p)

        def workspace(sc):
            return [sc._stage, sc._spec, sc._boxspec, *sc._blocks, sc._phys, sc._box_factors,
                    sc._outside_factors, sc.ie_outside]

        for x in workspace(one):
            assert all(not np.shares_memory(x, y) for y in workspace(two))

    def test_workspace_bytes_at_256_squared(self):
        g = make_grid(dim=2, lengths=16 * np.pi, modes=256)
        sc = solver._Scheme(g, RieszParams.from_s_star(2, 0.5))
        sc.step_ifrk4(random_half_state(g, np.random.default_rng(0), amplitude=0.01), 0.05)
        buffers = [sc._stage, sc._spec, sc._boxspec, *sc._blocks, sc._phys, sc._box_factors,
                   sc._outside_factors, sc.ie_outside]
        assert all(b.base is None for b in buffers)
        # the physical stage holds one block of 32 rows of the 4 fields and of the 5 products
        # (589,824 B), where whole fields took 4,718,592 B (12,887,904 B in all)
        assert sum(b.nbytes for b in sc._blocks) == 9 * 32 * 256 * 8
        # the 256 x 129 - 171 x 86 modes outside the box: their factors and ie are held gathered
        # (1,172,352 B), their state and scratch are contiguous views at the start of _spec
        n = 256 * 129 - 171 * 86
        assert sc._outside_index.size == n == 18_318
        assert sc._outside_factors.nbytes + sc.ie_outside.nbytes == 4 * n * 8 + 2 * n * 16 == 1_172_352
        flat = sc._spec.reshape(-1)
        for view, start in ((sc._outside_state, 0), (sc._outside_work, 3 * n)):
            assert view.flags.c_contiguous and view.shape == (3, n)
            assert view.ctypes.data == flat[start:].ctypes.data
        assert sum(b.nbytes for b in buffers) == 9_923_296

    @pytest.mark.parametrize("path", list(PATHS))
    def test_snapshots_are_never_overwritten(self, path):
        g = make_grid(dim=2, lengths=2.0 * np.pi, modes=16)
        p = RieszParams.from_s_star(2, 0.4)
        st = perturbation_presets("smooth-bump", 0.05, g)
        times = (0.0, 0.1, 0.2, 0.3)
        cfg = SolverConfig(dt=0.05, t_end=0.3, snapshot_times=times, **PATHS[path][0])
        snaps = integrate(g, st, p, cfg).snapshots
        assert len(snaps) == len(times)
        for k in range(1, len(times)):
            # a run that ends at snapshot k takes the same steps up to it
            short = SolverConfig(dt=0.05, t_end=times[k], snapshot_times=times[:k + 1], **PATHS[path][0])
            again = integrate(g, st, p, short).snapshots[-1]
            assert np.array_equal(snaps[k].a, again.a) and np.array_equal(snaps[k].u, again.u)
        for x in snaps:
            for y in snaps:
                if x is not y:
                    assert not np.shares_memory(x.a, y.a) and not np.shares_memory(x.u, y.u)


class TestKeptBox:
    """A step runs the stages on the dealias box and propagates the rest by the propagator alone."""

    @pytest.mark.parametrize("path, halves", [("ifrk4", 2), ("exp-euler", 1)])
    @pytest.mark.parametrize("dim, lengths, modes, fraction", WORKSPACE_CASES)
    def test_outside_the_box_is_the_propagator_alone(self, dim, lengths, modes, fraction, path,
                                                     halves, monkeypatch):
        g = make_grid(dim=dim, lengths=lengths, modes=modes)
        p = RieszParams.from_s_star(dim, 0.4)
        rng = np.random.default_rng(11)
        st = FieldState(a=0.1 * rng.standard_normal(g.shape), u=0.1 * rng.standard_normal((dim,) + g.shape))
        Scheme, states = solver._Scheme, []

        class Recorded(Scheme):
            """Records the state after each step of ``integrate``."""

            def step_ifrk4(self, s, h, out=None):
                states.append((h, super().step_ifrk4(s, h, out=out).copy()))
                return out

            def step_exp_euler(self, s, h, out=None):
                states.append((h, super().step_exp_euler(s, h, out=out).copy()))
                return out

        monkeypatch.setattr(solver, "_Scheme", Recorded)
        cfg = SolverConfig(dt=0.05, t_end=0.3, dealias=fraction, **PATHS[path][0])
        assert integrate(g, st, p, cfg).stats.steps == len(states) == 6
        outside = ~kept_half(g, fraction)
        lin = AllocatingScheme(g, p, fraction)
        before = solver._state_spectrum(g, st)
        for h, after in states:
            want = before
            for _ in range(halves):
                want = lin.apply_linear(want, h / halves)
            assert bit_equal(after[:, outside], want[:, outside])
            before = after

    @pytest.mark.parametrize("path", ["ifrk4", "exp-euler"])
    @pytest.mark.parametrize("dim, lengths, modes, fraction", WORKSPACE_CASES)
    def test_box_part_equals_a_run_from_box_projected_data(self, dim, lengths, modes, fraction, path):
        g, p, s = workspace_case(dim, lengths, modes, seed=4)
        mask = kept_half(g, fraction)
        projected = np.where(mask, s, 0)
        sc = solver._Scheme(g, p, fraction)
        step = getattr(sc, PATHS[path][1])
        for _ in range(5):
            step(s, 0.05, out=s)
            step(projected, 0.05, out=projected)
            assert bit_equal(s[:, mask], projected[:, mask])
        assert np.all(projected[:, ~mask] == 0)


class TestRecordDiagnostics:
    """A record's L^2 norms are ``lp_norm``'s, formed in the solver workspace."""

    @pytest.mark.parametrize("integrator", list(solver.INTEGRATORS))
    @pytest.mark.parametrize("dim, modes", [(1, (4096,)), (2, (64, 64)), (2, (16, 24))])
    def test_norms_equal_lp_norm(self, dim, modes, integrator):
        g = make_grid(dim=dim, lengths=(2.0 * np.pi,) * dim, modes=modes)
        p = RieszParams.from_s_star(dim, 0.4)
        rng = np.random.default_rng(7)
        st = FieldState(a=0.2 * smooth_field(g, rng), u=0.2 * smooth_vector(g, rng), t=0.0)
        cfg = SolverConfig(dt=0.05, t_end=0.1, snapshot_times=(0.0, 0.05, 0.1), integrator=integrator)
        traj = integrate(g, st, p, cfg)
        assert len(traj.diagnostics) == 3
        for snap, diag in zip(traj.snapshots, traj.diagnostics):
            assert diag["t"] == snap.t
            assert diag["l2_a"] == lp_norm(g, snap.a, 2)
            assert diag["l2_u"] == lp_norm(g, snap.u, 2)
            assert diag["min_density"] == float(1.0 + np.min(snap.a))
            assert diag["mean_a"] == float(np.mean(snap.a))

    def test_traced_peak_of_a_record_s_diagnostics(self):
        g = make_grid(dim=2, lengths=16 * np.pi, modes=64)
        rng = np.random.default_rng(8)
        st = FieldState(a=0.05 * smooth_field(g, rng), u=0.05 * smooth_vector(g, rng), t=0.0)
        sc = solver._Scheme(g, RieszParams.from_s_star(2, 0.5))
        tracemalloc.start()
        try:
            sc.diagnostics(st)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            sc.diagnostics(st)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # the norms' squares go into the product buffers, so what is left is
        # the dict and its scalars (1,336 B here); lp_norm's temporaries for
        # the two norms would be 99,440 B
        assert peak <= 2048


class TestStepAllocation:
    """After warm-up an IFRK4 step allocates no state-sized array beyond its result."""

    def test_traced_peak_of_one_step(self):
        g = make_grid(dim=2, lengths=16 * np.pi, modes=64)
        p = RieszParams.from_s_star(2, 0.5)
        s = random_half_state(g, np.random.default_rng(0), amplitude=0.01)
        sc = solver._Scheme(g, p)
        # the fresh result and one state array of slack: the transforms run
        # in the workspace, the complex one over the first axis in place, so
        # the largest intermediate is NumPy's cast buffer for a real
        # propagator factor in the linear update of the whole state (one
        # half spectrum)
        fresh_bound = 2 * s.nbytes
        tracemalloc.start()
        try:
            for _ in range(2):
                s = sc.step_ifrk4(s, 0.05)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            r = sc.step_ifrk4(s, 0.05)
            fresh_peak = tracemalloc.get_traced_memory()[1] - start
            del r
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            sc.step_ifrk4(s, 0.05, out=s)
            inplace_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert fresh_peak <= fresh_bound
        assert inplace_peak <= fresh_bound - s.nbytes

    def test_traced_peak_of_the_step_loop(self, monkeypatch):
        # integrate's loop: each step in place, then the positivity and finiteness checks
        g = make_grid(dim=2, lengths=16 * np.pi, modes=64)
        p = RieszParams.from_s_star(2, 0.5)
        st = perturbation_presets("smooth-bump", 0.05, g)
        steps, between, mark = [], [], []

        class Traced(solver._Scheme):
            """Records the traced peak of each step and of the work between two steps."""

            def step_ifrk4(self, s, h, out=None):
                if mark:
                    between.append(tracemalloc.get_traced_memory()[1] - mark.pop())
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                out = super().step_ifrk4(s, h, out=out)
                steps.append(tracemalloc.get_traced_memory()[1] - start)
                tracemalloc.reset_peak()
                mark.append(tracemalloc.get_traced_memory()[0])
                return out

        monkeypatch.setattr(solver, "_Scheme", Traced)
        tracemalloc.start()
        try:
            traj = integrate(g, st, p, SolverConfig(dt=0.05, t_end=0.3))
        finally:
            tracemalloc.stop()
        assert traj.stats.steps == len(steps) == 6 and len(between) == 5
        half_points = g.shape[0] * (g.shape[1] // 2 + 1)
        state_bytes = 3 * half_points * 16
        # after the first step, which allocates the stage buffers, a step in place stays
        # within one state array (as in test_traced_peak_of_one_step); the checks between
        # steps transform the density in the workspace and reduce it and the velocity
        # spectra to their minima and maxima, so they allocate no array: what is left is
        # Python scalars, 1,600 B here (the boolean np.isfinite of the velocity spectra
        # alone would be 4,224 B, the complex intermediate of irfftn 33,792 B)
        assert max(steps[1:]) <= state_bytes
        assert max(between) <= 2048
