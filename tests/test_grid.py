"""Grid construction, Fourier multipliers, Hodge split, and norms."""

import ast
import gc
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rieszflow import (
    BesovSpec,
    FieldState,
    RieszParams,
    ZeroModeError,
    apply_multiplier,
    besov_norm,
    build_partition,
    curl,
    density_equation_residual,
    divergence,
    energy_functionals,
    frac_lambda,
    grad_frac_lambda,
    gradient,
    hodge_reconstruct,
    hodge_split,
    lp_norm,
    lyapunov_block,
    make_grid,
    riesz_force,
    spectral_l2,
    z_equation_residual,
)
from rieszflow import grid as grid_module
from rieszflow import solver
from rieszflow.grid import half_divergence, half_grad_frac, half_l2, spectral_inner, spectral_power
from rieszflow.cli import main

from conftest import smooth_field, smooth_vector


class TestGridConstruction:
    """Lattice layout and validation."""

    def test_wavenumber_lattice_1d(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=8)
        assert g.axes[0].tolist() == [0.0, 1.0, 2.0, 3.0, -4.0, -3.0, -2.0, -1.0]

    def test_wavenumber_scaling_with_box(self):
        g = make_grid(dim=1, lengths=4.0 * np.pi, modes=8)
        assert g.min_nonzero_wavenumber() == pytest.approx(0.5)
        assert g.axes[0][1] == pytest.approx(0.5)

    def test_cell_volume_and_total_volume(self):
        g = make_grid(dim=2, lengths=(2.0 * np.pi, 4.0 * np.pi), modes=(16, 32))
        assert g.cell_volume == pytest.approx((2 * np.pi / 16) * (4 * np.pi / 32))
        assert g.volume == pytest.approx(8.0 * np.pi**2)

    def test_self_conjugate_count(self):
        g1 = make_grid(dim=1, lengths=2.0 * np.pi, modes=16)
        g2 = make_grid(dim=2, lengths=2.0 * np.pi, modes=16)
        assert int(np.sum(g1.self_conjugate)) == 2
        assert int(np.sum(g2.self_conjugate)) == 4

    def test_nyquist_region_is_planes_plus_zero(self):
        g = make_grid(dim=2, lengths=2.0 * np.pi, modes=16)
        # two full planes of 16 points overlap in one point, plus the origin
        assert int(np.sum(g.nyquist_region)) == 16 + 16 - 1 + 1

    def test_xi_unit_vanishes_on_own_plane(self):
        g = make_grid(dim=2, lengths=2.0 * np.pi, modes=16)
        assert np.all(g.xi_unit[0][8, :] == 0.0)
        assert np.all(g.xi_unit[1][:, 8] == 0.0)
        # and is a unit vector away from planes and zero
        interior = ~g.nyquist_region
        norm = g.xi_unit[0] ** 2 + g.xi_unit[1] ** 2
        assert np.allclose(norm[interior & (g.xi_norm > 0)], 1.0)

    def test_rejects_odd_or_tiny_mode_counts(self):
        with pytest.raises(ValueError):
            make_grid(dim=1, lengths=2.0 * np.pi, modes=15)
        with pytest.raises(ValueError):
            make_grid(dim=1, lengths=2.0 * np.pi, modes=4)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            make_grid(dim=3, lengths=(1.0, 1.0, 1.0), modes=(8, 8, 8))

    @pytest.mark.parametrize("modes, largest", [(64, 21), (48, 15)])
    def test_dealias_mask_two_thirds(self, modes, largest):
        # the solver's box: on 48 points the modes +-16 would alias (3 K < N)
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=modes)
        mask = g.dealias_mask()
        kept = np.fft.fftfreq(modes, 1 / modes).astype(int)[mask]
        assert kept.max() == largest and kept.min() == -largest

    def test_dealias_mask_never_keeps_nyquist(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=64)
        mask = g.dealias_mask(1.0)
        assert not mask[32]
        assert mask.sum() == 63


@pytest.fixture(params=["1d", "2d-rect"])
def any_grid(request):
    if request.param == "1d":
        return make_grid(dim=1, lengths=2.0 * np.pi, modes=64)
    return make_grid(dim=2, lengths=(2.0 * np.pi, 3.0 * np.pi), modes=(32, 24))


class TestHalfLattice:
    """Half-lattice symbols, and the full lattice built only on demand."""

    def test_half_symbols_equal_the_full_slices(self, any_grid):
        g = any_grid
        pairs = [(g.half_xi_norm, g.xi_norm), (g.half_nyquist_region, g.nyquist_region)]
        pairs += list(zip(g.half_xi_unit, g.xi_unit))
        for i, n in enumerate(g.modes):
            plane = np.zeros(g.shape, dtype=bool)
            index = [slice(None)] * g.dim
            index[i] = n // 2
            plane[tuple(index)] = True
            pairs.append((g.half_grad[i], np.where(plane, 0.0, 1j * g.xi[i])))
        # the Parseval weights: 1 on the k = 0 and k = N_d/2 columns, 2 in between, times dV / N
        k = np.abs(np.fft.fftfreq(g.modes[-1], 1.0 / g.modes[-1]))
        weights = np.where((k == 0) | (k == g.modes[-1] // 2), 1.0, 2.0)
        pairs.append((g.half_parseval, np.broadcast_to(weights * (g.cell_volume / g.npoints), g.shape)))
        for half, full in pairs:
            assert half.base is None and half.flags.c_contiguous
            assert half.dtype == full.dtype
            assert half.shape == g.half(full).shape
            assert half.tobytes() == g.half(full).tobytes()

    def test_library_paths_never_build_the_full_lattice(self, tmp_path, monkeypatch):
        extents = []
        builder = grid_module._build_lattice

        def recording_builder(axes, extent):
            extents.append((axes[-1].size, extent))
            return builder(axes, extent)

        monkeypatch.setattr(grid_module, "_build_lattice", recording_builder)
        cfg = tmp_path / "sim.ini"
        cfg.write_text(
            "[experiment]\nkind = simulate\n"
            "[grid]\ndim = 2\nlength = 50.26548245743669\nmodes = 32\n"
            "[params]\ns_star = 0.5\n"
            "[preset]\nkind = low-frequency-powerlaw\namplitude = 0.05\nsigma1 = -1\ncutoff = 1\n"
            "[solver]\ndt = 0.05\nt_end = 0.2\nsnapshot_times = 0,0.1,0.2\n"
            "[diagnostics]\nenergy = true\n"
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        # one grid per run: the header's grid is the grid the run uses
        assert extents == [(32, 17)]

        # the inputs come from another grid: smooth_field reads the full lattice
        g = make_grid(dim=2, lengths=(2.0 * np.pi, 3.0 * np.pi), modes=(32, 24))
        rng = np.random.default_rng(3)
        states = [FieldState(0.05 * smooth_field(g, rng), 0.05 * smooth_vector(g, rng), 0.1 * k)
                  for k in range(3)]
        params = RieszParams.from_s_star(2, 0.5)
        extents.clear()
        fresh = make_grid(dim=2, lengths=(2.0 * np.pi, 3.0 * np.pi), modes=(32, 24))
        part = build_partition(fresh)
        energy_functionals(fresh, states[1], part, params)
        besov_norm(part, states[1].a, BesovSpec(s=0.5, p=2, r=1))
        for j in part.js:
            lyapunov_block(fresh, states[1], j, 0.25, part, params)
        density_equation_residual(fresh, states, params)
        z_equation_residual(fresh, states, params)
        assert "_full" not in vars(fresh)
        assert extents == [(24, 13)]

    def test_grid_and_filled_partition_memory(self):
        def build():
            g = make_grid(dim=2, lengths=16.0 * np.pi, modes=256)
            part = build_partition(g)
            st = FieldState(np.zeros(g.shape), np.zeros((2,) + g.shape))
            energy_functionals(g, st, part, RieszParams.from_s_star(2, 0.5))
            return g, part

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kept = build()
            gc.collect()
            size = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert "_parseval" in vars(kept[1])  # the p = 2 shell norms' table, which replaced the masks
        # 7.26 MiB when the grid and the shell masks were held on the full lattice
        assert size <= 0.6 * 7.26 * 2**20


class TestRieszParams:
    """Coefficient validation and the derived dissipation index."""

    def test_s_star_from_alpha(self):
        p = RieszParams(dim=2, alpha=1.0)
        assert p.s_star == pytest.approx(0.5)

    def test_round_trip_from_s_star(self):
        p = RieszParams.from_s_star(1, 0.25)
        assert p.alpha == pytest.approx(-0.5)
        assert p.s_star == pytest.approx(0.25)

    def test_from_s_star_takes_the_dataclass_coefficients(self):
        assert RieszParams.from_s_star(1, 0.5) == RieszParams(dim=1, alpha=0.0)
        assert RieszParams.from_s_star(2, 0.5, lam=2.0, rho_bar=0.5) == RieszParams(2, 1.0, lam=2.0, rho_bar=0.5)
        with pytest.raises(ValueError, match="kappa must be positive"):
            RieszParams.from_s_star(1, 0.5, kappa=0.0)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            RieszParams(dim=1, alpha=1.0)
        with pytest.raises(ValueError):
            RieszParams(dim=2, alpha=0.0)

    def test_coefficients_positive(self):
        with pytest.raises(ValueError):
            RieszParams(dim=1, alpha=0.0, lam=0.0)


class TestMultipliers:
    """Fourier multiplier application and its conventions."""

    def test_single_mode_derivative(self, grid_1d):
        x = grid_1d.coordinates()[0]
        f = np.sin(3.0 * x)
        df = apply_multiplier(grid_1d, f, lambda xi: 1j * xi)
        assert np.allclose(df, 3.0 * np.cos(3.0 * x), atol=1e-12)

    def test_frac_lambda_single_mode(self, grid_1d):
        x = grid_1d.coordinates()[0]
        f = np.sin(3.0 * x)
        out = frac_lambda(grid_1d, f, 1.0)
        assert np.allclose(out, 3.0 * np.sin(3.0 * x), atol=1e-12)

    def test_frac_lambda_sigma_zero_is_identity(self, grid_1d, rng):
        f = rng.standard_normal(grid_1d.shape)
        assert np.array_equal(frac_lambda(grid_1d, f, 0.0), f)

    def test_frac_lambda_composition(self, grid_1d, rng):
        f = smooth_field(grid_1d, rng)
        once = frac_lambda(grid_1d, frac_lambda(grid_1d, f, 0.7), -0.7)
        assert np.max(np.abs(once - f)) < 1e-12

    def test_negative_power_needs_mean_zero(self, grid_1d):
        f = np.ones(grid_1d.shape)
        with pytest.raises(ZeroModeError):
            frac_lambda(grid_1d, f, -1.0)

    def test_mean_stays_untouched_by_regular_symbol(self, grid_1d, rng):
        f = smooth_field(grid_1d, rng) + 2.5
        out = apply_multiplier(grid_1d, f, np.ones(grid_1d.shape))
        assert out.mean() == pytest.approx(2.5)

    def test_vector_input_broadcasts(self, grid_2d, rng):
        v = smooth_vector(grid_2d, rng)
        out = frac_lambda(grid_2d, v, 0.5)
        assert out.shape == v.shape

    def test_rejects_wrong_shape(self, grid_1d):
        with pytest.raises(ValueError):
            apply_multiplier(grid_1d, np.zeros(12), np.ones(grid_1d.shape))

    def test_rejects_nonfinite_symbol_away_from_zero(self, grid_1d, rng):
        f = smooth_field(grid_1d, rng)
        bad = np.ones(grid_1d.shape)
        bad[5] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            apply_multiplier(grid_1d, f, bad)

    def test_rejects_non_hermitian_symbol(self, grid_1d, rng):
        f = smooth_field(grid_1d, rng)
        with pytest.raises(ValueError, match="Hermitian"):
            apply_multiplier(grid_1d, f, 1j * np.ones(grid_1d.shape))

    def test_odd_symbol_real_output_with_nyquist_content(self, grid_2d, rng):
        # full-spectrum field, including both Nyquist planes
        f = np.fft.ifftn(rng.standard_normal(grid_2d.shape)
                         + 1j * rng.standard_normal(grid_2d.shape)).real
        out = apply_multiplier(grid_2d, f, lambda x1, x2: 1j * x1)
        assert np.all(np.isfinite(out))

    def test_odd_symbol_drops_only_own_plane(self, grid_2d):
        spec = np.zeros(grid_2d.shape, dtype=complex)
        spec[3, 16] = 1.0 + 2.0j  # on the axis-1 Nyquist plane only
        spec[-3, 16] = np.conj(spec[3, 16])
        g = np.fft.ifftn(spec).real
        d0 = apply_multiplier(grid_2d, g, lambda x1, x2: 1j * x1)
        d1 = apply_multiplier(grid_2d, g, lambda x1, x2: 1j * x2)
        assert np.max(np.abs(d0)) > 1e-12  # xi_1 is paired there
        assert np.max(np.abs(d1)) < 1e-14  # xi_2 is unpaired there


class TestVectorCalculus:
    """Gradient, divergence, curl, and the interaction force."""

    def test_divergence_of_gradient_is_laplacian(self, grid_2d, rng):
        f = smooth_field(grid_2d, rng)
        lap = divergence(grid_2d, gradient(grid_2d, f))
        ref = -frac_lambda(grid_2d, f, 2.0)
        assert np.max(np.abs(lap - ref)) < 1e-10

    def test_curl_of_gradient_vanishes(self, grid_2d, rng):
        f = smooth_field(grid_2d, rng)
        w = curl(grid_2d, gradient(grid_2d, f))
        assert np.max(np.abs(w)) < 1e-12

    def test_curl_is_zero_in_1d(self, grid_1d, rng):
        v = smooth_vector(grid_1d, rng)
        assert np.array_equal(curl(grid_1d, v), np.zeros(grid_1d.shape))

    def test_riesz_force_single_mode(self, grid_1d):
        # a = cos(kx): force = -kappa k |k|^(2s*-2) sin(kx)
        p = RieszParams.from_s_star(1, 0.25, kappa=2.0)
        x = grid_1d.coordinates()[0]
        k = 5.0
        F = riesz_force(grid_1d, np.cos(k * x), p)
        expected = -2.0 * k ** (2 * 0.25 - 1.0) * np.sin(k * x)
        assert np.allclose(F[0], expected, atol=1e-12)

    def test_riesz_force_divergence_identity(self, grid_2d, rng):
        p = RieszParams(dim=2, alpha=1.5)
        a = smooth_field(grid_2d, rng)
        lhs = divergence(grid_2d, riesz_force(grid_2d, a, p))
        rhs = -p.kappa * frac_lambda(grid_2d, a, 2.0 * p.s_star)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_riesz_force_needs_mean_zero(self, grid_1d):
        p = RieszParams.from_s_star(1, 0.5)
        with pytest.raises(ZeroModeError):
            riesz_force(grid_1d, np.ones(grid_1d.shape), p)

    def test_grad_frac_lambda_matches_composition(self, grid_2d, rng):
        f = smooth_field(grid_2d, rng)
        direct = grad_frac_lambda(grid_2d, f, -0.5)
        composed = gradient(grid_2d, frac_lambda(grid_2d, f, -0.5))
        assert np.max(np.abs(direct - composed)) < 1e-11


class TestHodge:
    """Compressible/rotational split and reconstruction."""

    def test_round_trip_2d(self, grid_2d, rng):
        u = smooth_vector(grid_2d, rng)
        m, w = hodge_split(grid_2d, u)
        back = hodge_reconstruct(grid_2d, m, w)
        assert np.max(np.abs(back - u)) < 1e-13 * max(1.0, np.max(np.abs(u)))

    def test_round_trip_1d(self, grid_1d, rng):
        u = smooth_vector(grid_1d, rng)
        m, w = hodge_split(grid_1d, u)
        assert np.array_equal(w, np.zeros(grid_1d.shape))
        back = hodge_reconstruct(grid_1d, m, w)
        assert np.max(np.abs(back - u)) < 1e-13

    def test_compressible_part_is_curl_free(self, grid_2d, rng):
        u = smooth_vector(grid_2d, rng)
        m, _ = hodge_split(grid_2d, u)
        u_comp = hodge_reconstruct(grid_2d, m, np.zeros(grid_2d.shape))
        assert np.max(np.abs(curl(grid_2d, u_comp))) < 1e-12

    def test_rotational_part_is_divergence_free(self, grid_2d, rng):
        u = smooth_vector(grid_2d, rng)
        _, w = hodge_split(grid_2d, u)
        u_rot = hodge_reconstruct(grid_2d, np.zeros(grid_2d.shape), w)
        assert np.max(np.abs(divergence(grid_2d, u_rot))) < 1e-12

    def test_divergence_equals_lambda_m(self, grid_2d, rng):
        u = smooth_vector(grid_2d, rng)
        m, _ = hodge_split(grid_2d, u)
        assert np.max(np.abs(divergence(grid_2d, u) - frac_lambda(grid_2d, m, 1.0))) < 1e-11

    def test_split_requires_mean_zero(self, grid_2d):
        u = np.ones((2,) + grid_2d.shape)
        with pytest.raises(ZeroModeError):
            hodge_split(grid_2d, u)


class TestNorms:
    """Discrete L^p norms and the Parseval route."""

    def test_l2_of_cosine(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=64)
        x = g.coordinates()[0]
        f = np.cos(3.0 * x)
        assert lp_norm(g, f, 2) == pytest.approx(np.sqrt(np.pi), rel=1e-13)

    def test_l4_of_cosine(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=64)
        x = g.coordinates()[0]
        f = np.cos(3.0 * x)
        assert lp_norm(g, f, 4) == pytest.approx((3.0 * np.pi / 4.0) ** 0.25, rel=1e-13)

    def test_linf_norm(self, grid_1d, rng):
        f = smooth_field(grid_1d, rng)
        assert lp_norm(grid_1d, f, np.inf) == pytest.approx(np.max(np.abs(f)))

    def test_vector_norm_uses_pointwise_magnitude(self, grid_2d):
        v = np.zeros((2,) + grid_2d.shape)
        v[0] = 3.0
        v[1] = 4.0
        assert lp_norm(grid_2d, v, np.inf) == pytest.approx(5.0)

    def test_parseval_agreement(self, grid_2d, rng):
        f = smooth_field(grid_2d, rng)
        assert spectral_l2(grid_2d, f) == pytest.approx(lp_norm(grid_2d, f, 2), rel=1e-13)

    def test_p_below_one_rejected(self, grid_1d):
        with pytest.raises(ValueError):
            lp_norm(grid_1d, np.ones(grid_1d.shape), 0.5)


#: (lengths, modes) of the spectral_inner tests: 1D, 2D square and 2D rectangular
INNER_GRIDS = pytest.mark.parametrize("lengths, modes", [
    ((2.0 * np.pi,), (64,)), ((2.0 * np.pi,) * 2, (32, 32)), ((2.0 * np.pi, 3.0 * np.pi), (32, 24)),
], ids=["1d", "2d-square", "2d-rect"])


def correlated_pair(grid, rng, lead=()):
    """Two random real fields (of leading shape ``lead``) whose integral of f . h is far from zero."""
    f = rng.standard_normal(lead + grid.shape)
    return f, f + rng.standard_normal(f.shape)


class TestSpectralInner:
    """``spectral_inner`` against the integral of f . h in physical space."""

    @INNER_GRIDS
    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    def test_half_spectra(self, lengths, modes, vector):
        g = make_grid(dim=len(modes), lengths=lengths, modes=modes)
        f, h = correlated_pair(g, np.random.default_rng(11), (g.dim,) if vector else ())
        want = g.cell_volume * float(np.sum(f * h))
        assert spectral_inner(g, g.rfft(f), g.rfft(h)) == pytest.approx(want, rel=1e-12)

    @INNER_GRIDS
    @pytest.mark.parametrize("nyquist", [True, False], ids=["with-nyquist-column", "without"])
    def test_box_arrays_equal_the_zero_filled_half_spectra(self, lengths, modes, nyquist):
        g = make_grid(dim=len(modes), lengths=lengths, modes=modes)
        kept = tuple(n // 4 for n in modes[:-1]) + (modes[-1] // (2 if nyquist else 4),)
        fhat, hhat = (g.rfft(x) for x in correlated_pair(g, np.random.default_rng(12)))
        box_f, box_h = g._box_gather(fhat, kept), g._box_gather(hhat, kept)
        # the box arrays keep the k = N_d/2 column exactly when the box reaches it
        assert (box_f.shape[-1] == fhat.shape[-1]) == nyquist
        filled_f, filled_h = (g._box_scatter(b, kept, np.zeros_like(fhat)) for b in (box_f, box_h))
        want = g.cell_volume * float(np.sum(g.irfft(filled_f) * g.irfft(filled_h)))
        assert spectral_inner(g, box_f, box_h) == pytest.approx(want, rel=1e-12)
        assert spectral_inner(g, filled_f, filled_h) == pytest.approx(want, rel=1e-12)


class TestInPlaceOperators:
    """The grid's half-spectrum operators, given their ``out`` and ``work`` buffers, allocate no array."""

    def test_warm_in_place_operators_at_64_squared(self):
        g = make_grid(dim=2, lengths=16 * np.pi, modes=64)
        vhat = g.rfft(np.random.default_rng(13).standard_normal((2,) + g.shape))
        fhat, half = vhat[0], g.half_xi_norm.shape
        div, grad, spare = np.empty_like(fhat), np.empty_like(vhat), np.empty_like(fhat)
        power, pair = np.empty(half), np.empty((2,) + half)
        calls = {
            "half_divergence": (lambda: half_divergence(g, vhat, out=div, work=spare),
                                lambda: half_divergence(g, vhat)),
            "half_grad_frac": (lambda: half_grad_frac(g, fhat, -0.5, out=grad, work=power),
                               lambda: half_grad_frac(g, fhat, -0.5)),
            "spectral_power": (lambda: spectral_power(g, vhat, out=power, work=pair),
                               lambda: spectral_power(g, vhat)),
            "half_l2": (lambda: half_l2(g, fhat, out=power, work=pair), lambda: half_l2(g, fhat)),
        }
        peaks = {}
        for name, (in_place, allocating) in calls.items():
            in_place()
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                got = in_place()
                peaks[name] = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            want = allocating()
            assert np.array_equal(got, want) and np.shape(got) == np.shape(want)
        # the symbol is formed once per component, for one scalar spectrum
        with pytest.raises(ValueError, match="one scalar half spectrum"):
            half_grad_frac(g, vhat, -0.5)
        # what is left is NumPy's per-call bookkeeping (measured 400, 2,216, 1,424 and 1,328 B,
        # the most for |xi|^sigma's errstate); a product with a broadcast symbol took a 35,088 B
        # buffer, more than a half spectrum (33,792 B here)
        assert max(peaks.values()) <= 3072


#: (modes, dealias fraction) of the box tests: N divisible by 3, fraction 1, one 256^2 grid
BOX_CASES = [((32,), 2.0 / 3.0), ((48,), 2.0 / 3.0), ((32,), 1.0), ((16, 24), 2.0 / 3.0),
             ((32, 20), 2.0 / 3.0), ((24, 24), 2.0 / 3.0), ((16, 24), 1.0), ((256, 256), 2.0 / 3.0)]


def box_case(modes, fraction, seed=0):
    """Grid, kept (the grid's ``dealias_box``, the box the solver uses), box rows and columns."""
    g = make_grid(dim=len(modes), lengths=(2.0 * np.pi, 3.0 * np.pi)[:len(modes)], modes=modes)
    kept = g.dealias_box(fraction)
    # the box's half-lattice indices per axis: k = 0..K, then -K..-1 on the first axis in 2D
    index = [np.r_[0:k + 1, n - k:n] for k, n in zip(kept[:-1], modes[:-1])] + [np.arange(kept[-1] + 1)]
    return g, kept, np.ix_(*index), np.random.default_rng(seed)


def bit_equal(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def numpy_fft_uses(source: str) -> list[str]:
    """Dotted names of the ``numpy.fft`` calls and imports in ``source``."""
    def dotted(node):
        if isinstance(node, ast.Attribute):
            head = dotted(node.value)
            return head and f"{head}.{node.attr}"
        return node.id if isinstance(node, ast.Name) else None

    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            names.append(dotted(node.func) or "")
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    return [n for n in names if n == "numpy.fft" or n.startswith(("np.fft.", "numpy.fft."))]


class TestTransformOwnership:
    """Only ``grid.py`` calls ``numpy.fft``: every transform goes through ``SpectralGrid``."""

    def test_no_other_module_calls_numpy_fft(self):
        package = Path(grid_module.__file__).parent
        uses = {path.name: numpy_fft_uses(path.read_text()) for path in sorted(package.glob("*.py"))
                if path.name != "grid.py"}
        assert len(uses) >= 8
        assert {name: found for name, found in uses.items() if found} == {}

    def test_detects_calls_and_imports(self):
        assert numpy_fft_uses("import numpy as np\nf = np.fft.ifftn(x).real\n") == ["np.fft.ifftn"]
        assert numpy_fft_uses("from numpy import fft\n") == ["numpy.fft"]
        assert numpy_fft_uses("from numpy.fft import rfft\n") == ["numpy.fft.rfft"]
        assert numpy_fft_uses("y = grid.irfft(x)\nz = np.abs(x)\n") == []


class TestBoxTransforms:
    """The inverse and the box-pruned transforms equal irfftn/rfftn of the masked half spectra bit for bit."""

    @pytest.mark.parametrize("modes, fraction", BOX_CASES)
    def test_box_layout(self, modes, fraction):
        g, kept, at, rng = box_case(modes, fraction)
        s = g.rfft(rng.standard_normal((3,) + g.shape))
        box = g._box_gather(s, kept)
        assert bit_equal(box, s[(slice(None),) + at])
        back = g._box_scatter(box, kept, np.zeros_like(s))
        mask = g.half(g.dealias_mask(fraction))
        assert bit_equal(back, np.where(mask, s, 0))

    @pytest.mark.parametrize("modes, fraction", BOX_CASES)
    def test_box_symbols_are_the_box_parts_of_the_whole_symbols(self, modes, fraction):
        g, kept, at, _ = box_case(modes, fraction)
        ie = 1j * np.stack(g.half_xi_unit)
        pairs = [(g._box_gather(m, kept), m) for m in (*g.half_grad, g.half_xi_norm, ie)]
        if fraction <= 2.0 / 3.0:  # the solver's own, on the box it takes
            sc = solver._Scheme(g, None, fraction)
            pairs += [(b, -k) for b, k in zip(sc.minus_grad, g.half_grad)] + [(sc.ie_box, ie)]
        for b, m in pairs:
            assert b.base is None and b.flags.c_contiguous
            assert bit_equal(b, m[(Ellipsis,) + at])

    @pytest.mark.parametrize("modes, fraction", BOX_CASES)
    def test_inverse_equals_irfftn_of_the_masked_spectra(self, modes, fraction):
        g, kept, at, rng = box_case(modes, fraction)
        s = g.rfft(rng.standard_normal((4,) + g.shape))
        axes = tuple(range(-g.dim, 0))
        masked = s * g.half(g.dealias_mask(fraction))
        want = np.fft.irfftn(masked, s=g.modes, axes=axes)
        # the one inverse, on whole and on column-cut half spectra, fresh and into buffers
        for fhat, ref in ((s, np.fft.irfftn(s, s=g.modes, axes=axes)), (masked[..., :kept[-1] + 1], want)):
            assert bit_equal(g.irfft(fhat), ref)
            out, work = np.empty(ref.shape), np.empty_like(fhat)
            assert g.irfft(fhat, out=out, work=work) is out
            assert bit_equal(out, ref)
        box = s[(slice(None),) + at]
        assert bit_equal(g._box_irfft(box, kept), want)
        out, work = np.empty(want.shape), np.empty_like(s)
        assert g._box_irfft(box, kept, out=out, work=work) is out
        assert bit_equal(out, want)
        if g.dim == 2:
            # a sequence of box arrays, into the same workspace
            assert bit_equal(g._box_irfft(list(box), kept, out=out, work=work), want)

    @pytest.mark.parametrize("modes", [(32,), (16, 24)])
    def test_whole_lattice_box_is_its_own_workspace(self, modes):
        g = make_grid(dim=len(modes), lengths=(2.0 * np.pi, 3.0 * np.pi)[:len(modes)], modes=modes)
        whole = tuple(n // 2 for n in modes)
        f = np.random.default_rng(3).standard_normal((3,) + g.shape)
        axes = tuple(range(-g.dim, 0))
        spectra = np.fft.rfftn(f, axes=axes)
        want = np.fft.rfftn(np.fft.irfftn(spectra, s=g.modes, axes=axes), axes=axes)
        # the box of the whole half lattice is the half spectrum: the round trip of the
        # identity is rfftn of irfftn, and the inverse may run in place on its result
        box = np.empty_like(spectra)
        blocks = (np.empty((3,) + g._block_shape()), np.empty((3,) + g._block_shape()))
        g._box_products(spectra, whole, lambda f, p: np.copyto(p, f), box, np.empty_like(spectra), blocks)
        assert bit_equal(box, want)
        samples = g._box_irfft(box, whole, work=box if g.dim == 2 else None)
        assert bit_equal(samples, np.fft.irfftn(want, s=g.modes, axes=axes))

    def test_transforms_allocate_only_their_output(self):
        g = make_grid(dim=2, lengths=2.0 * np.pi, modes=64)
        f = np.random.default_rng(0).standard_normal((3,) + g.shape)
        s = g.rfft(f)
        work = np.empty_like(s)
        g.irfft(s, work=work)
        peaks = []
        tracemalloc.start()
        try:
            for transform in (lambda: g.rfft(f), lambda: g.irfft(s, work=work)):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                result = transform()
                peaks.append(tracemalloc.get_traced_memory()[1] - start - result.nbytes)
                del result
        finally:
            tracemalloc.stop()
        # what comes on top of the output is NumPy's per-call Python objects, about 1.5 kB at
        # any grid size; a second complex array of the half spectra (s.nbytes, 101,376 B here:
        # rfftn's own second step, or the inverse's first-axis transform without work) is not
        assert max(peaks) <= 2048

    @pytest.mark.parametrize("modes, fraction", BOX_CASES)
    def test_support_box_of_the_dealias_mask(self, modes, fraction):
        g, kept, _, _ = box_case(modes, fraction)
        assert g._support_box(g.half(g.dealias_mask(fraction))) == kept
        whole = tuple(n // 2 for n in modes)
        assert g._support_box(np.ones(g.half_xi_norm.shape)) == whole
        assert g._support_box(np.zeros(g.half_xi_norm.shape)) == (0,) * g.dim

    @pytest.mark.parametrize("modes, low, shell, coarse", [
        ((64,), (3,), (6,), (16,)),
        ((48, 40), (3, 1), (6, 4), (16, 10)),
        # the shell box reaches the axis-2 Nyquist index: that axis keeps the grid's lattice
        ((48, 16), (3, 2), (6, 8), (16, 16)),
    ])
    def test_coarse_product_sums_to_the_grid_integral(self, modes, low, shell, coarse):
        """One field on the box ``low`` times two on ``shell``, summed on the alias-free lattice."""
        g = make_grid(dim=len(modes), lengths=(2.0 * np.pi, 3.0 * np.pi)[:len(modes)], modes=modes)
        assert g._product_modes(low, shell, shell) == coarse
        spectra = g.rfft(np.random.default_rng(1).standard_normal((3,) + g.shape))
        for f, box in zip(spectra, (low, shell, shell)):
            inside = np.ones(f.shape, dtype=bool)
            for ax, (k, n) in enumerate(zip(box, modes)):
                index = np.arange(f.shape[ax])
                if ax < g.dim - 1:
                    index = np.minimum(index, n - index)
                inside &= (index <= k).reshape((-1,) + (1,) * (g.dim - 1 - ax))
            f[~inside] = 0
        fields = g.irfft(spectra)
        want = g.cell_volume * np.sum(fields[0] * fields[1] * fields[2])
        samples = g._box_irfft(g._box_gather(spectra, shell), shell, modes=coarse)
        weight = np.prod([L / m for L, m in zip(g.lengths, coarse)])
        assert weight * np.sum(samples[0] * samples[1] * samples[2]) == pytest.approx(want, rel=1e-12)
        # on the grid's own lattice the coarse inverse is the inverse
        assert bit_equal(g._box_irfft(g._box_gather(spectra, shell), shell, modes=modes), fields)
        with pytest.raises(ValueError, match="does not fit"):
            g._box_irfft(g._box_gather(spectra, shell), shell, modes=tuple(2 * k for k in shell))

    # (80, 24): more rows than one block, and not a multiple of it
    @pytest.mark.parametrize("modes, fraction", BOX_CASES + [((80, 24), 2.0 / 3.0)])
    def test_forward_equals_rfftn_on_the_box(self, modes, fraction, fft_calls):
        """The round trip is rfftn of the products of irfftn of the masked spectra, on the box.

        The workspace starts as NaN, as if an earlier call had left its products
        there: in 2D each block's irfft reads whole rows of N_2/2 + 1 columns,
        so their columns past K_2 must be zeroed first.
        """
        g, kept, at, rng = box_case(modes, fraction)
        axes = tuple(range(-g.dim, 0))
        f = rng.standard_normal((4,) + g.shape)
        s = g.rfft(f)
        assert bit_equal(s, np.fft.rfftn(f, axes=axes))
        fields = np.fft.irfftn(s * g.half(g.dealias_mask(fraction)), s=g.modes, axes=axes)
        pairs = [(i % 4, (i + 1) % 4) for i in range(5)]
        want = np.fft.rfftn(np.stack([fields[i] * fields[j] for i, j in pairs]), axes=axes)[(slice(None),) + at]
        heights = []

        def form(f, p):
            heights.append(f.shape[-2])
            for o, (i, j) in zip(p, pairs):
                np.multiply(f[i], f[j], out=o)

        box, out = s[(slice(None),) + at], np.empty_like(want)
        work = np.full((5,) + g.half_xi_norm.shape, np.nan, dtype=complex)
        blocks = (np.empty((4,) + g._block_shape()), np.empty((5,) + g._block_shape()))
        assert g._box_products(box, kept, form, out, work, blocks) is out
        assert bit_equal(out, want)
        # one block of rows per call of form: the whole row in 1D, blocks of grid._ROW_BLOCK rows in 2D
        rows = g.modes[0] if g.dim == 2 else 1
        height = min(grid_module._ROW_BLOCK, rows)
        assert heights == [height] * (rows // height) + [rows % height] * (rows % height > 0)
        # and one irfft per block, of whole rows in 2D and of the box's K_1 + 1 columns in 1D
        widths = [shape[-1] for name, shape, _ in fft_calls.log if name == "irfft"]
        assert widths == [g.modes[-1] // 2 + 1 if g.dim == 2 else kept[0] + 1] * len(heights)
        if g.dim == 2:
            # a sequence of box arrays, into the same workspace
            assert bit_equal(g._box_products(list(box), kept, form, out, work, blocks), want)

    @pytest.mark.parametrize("modes, kept", [((32,), (10,)), ((16, 24), (5, 7)), ((80, 24), (26, 7)),
                                             ((16, 24), (8, 7))])
    def test_outside_box_is_the_complement(self, modes, kept):
        g = make_grid(dim=len(modes), lengths=(2.0 * np.pi, 3.0 * np.pi)[:len(modes)], modes=modes)
        index = g._outside_index(kept)
        # increasing flat positions that, with the box, cover the half lattice exactly once
        # (in 2D the rows outside the box too, unless the box holds every row)
        assert index.dtype == np.intp and np.all(np.diff(index) > 0)
        covered = g._box_scatter(np.ones(g._box_shape(kept), dtype=int), kept,
                                 np.zeros(g.half_xi_norm.shape, dtype=int))
        np.add.at(covered.reshape(-1), index, 1)
        assert np.all(covered == 1)
        if kept == g.dealias_box():
            # the solver's own: the same index, and ie there the whole ie's
            sc = solver._Scheme(g, None)
            ie = 1j * np.stack(g.half_xi_unit)
            assert np.array_equal(sc._outside_index, index)
            assert bit_equal(sc.ie_outside, ie.reshape(g.dim, -1)[:, index])
