"""Dyadic partition profiles, Besov norms, and shell inequalities."""

import numpy as np
import pytest

from rieszflow import (
    BesovSpec,
    LPPartition,
    besov_norm,
    build_partition,
    chemin_lerner_norm,
    chi_profile,
    decompose,
    dyadic_block,
    low_pass,
    lp_norm,
    make_grid,
    phi_profile,
    verify_bernstein,
    verify_wu_lower_bound,
)

from conftest import full_lattice_filter, reference_besov, sequence_norm, smooth_field


def shell_mode(grid, j, rng):
    """Random real field spectrally supported inside shell j."""
    lo, hi = 0.75 * 2.0**j, (8.0 / 3.0) * 2.0**j
    inside = (grid.xi_norm > lo) & (grid.xi_norm < hi)
    spec = np.zeros(grid.shape, dtype=complex)
    spec[inside] = rng.standard_normal(int(inside.sum())) + 1j * rng.standard_normal(
        int(inside.sum())
    )
    f = np.fft.ifftn(spec).real
    # re-symmetrize: keep only the Hermitian part
    spec = np.fft.fftn(f)
    spec[~inside] = 0.0
    return np.fft.ifftn(spec).real


class TestProfiles:
    """The radial cutoff and shell profiles."""

    def test_chi_plateaus(self):
        assert chi_profile(0.0) == 1.0
        assert chi_profile(0.75) == 1.0
        assert chi_profile(4.0 / 3.0) == 0.0
        assert chi_profile(10.0) == 0.0

    def test_chi_midpoint_value(self):
        # closed form at r = 1: 1 / (1 + exp(-7/12))
        assert float(chi_profile(1.0)) == pytest.approx(0.6418340450887311, abs=1e-15)

    def test_chi_monotone(self):
        r = np.linspace(0.0, 2.0, 400)
        v = chi_profile(r)
        assert np.all(np.diff(v) <= 1e-15)

    def test_phi_support(self):
        r = np.linspace(0.0, 4.0, 800)
        v = phi_profile(r)
        assert np.all(v[r < 0.74] == 0.0)
        assert np.all(v[r > 8.0 / 3.0 + 0.01] == 0.0)
        assert np.all(v >= 0.0)

    def test_phi_telescopes(self):
        r = np.geomspace(0.05, 40.0, 200)
        total = sum(phi_profile(r / 2.0**j) for j in range(-8, 9))
        assert np.allclose(total, 1.0, atol=1e-15)


class TestPartition:
    """Resolved range selection and exactness of the partition."""

    def test_partition_sum_is_one_on_nonzero_modes(self, grid_2d):
        part = build_partition(grid_2d)
        total = part.partition_sum()
        nz = grid_2d.xi_norm > 0
        assert np.max(np.abs(total[nz] - 1.0)) == 0.0
        assert total[grid_2d.zero_index] == 0.0

    def test_range_covers_lattice(self, grid_1d):
        part = build_partition(grid_1d)
        assert 2.0**part.j_min * (4.0 / 3.0) <= grid_1d.min_nonzero_wavenumber()
        assert 2.0**part.j_max * 1.5 >= grid_1d.max_wavenumber()

    def test_too_few_shells_rejected(self, grid_1d):
        with pytest.raises(ValueError, match="3 dyadic shells"):
            LPPartition(grid=grid_1d, j_min=0, j_max=1)

    def test_check_j_bounds(self, grid_1d):
        part = build_partition(grid_1d)
        with pytest.raises(ValueError, match="outside resolved range"):
            part.check_j(part.j_max + 1)

    def test_blocks_quasi_orthogonal(self, grid_1d, rng):
        part = build_partition(grid_1d)
        f = smooth_field(grid_1d, rng)
        worst = 0.0
        for j in part.js:
            for k in part.js:
                if abs(j - k) < 2:
                    continue
                bj = np.fft.fftn(dyadic_block(part, f, j))
                bk = np.fft.fftn(dyadic_block(part, f, k))
                worst = max(worst, abs(float(np.sum(bj * np.conj(bk)).real)))
        assert worst < 1e-12

    def test_decompose_residual_zero(self, grid_2d, rng):
        part = build_partition(grid_2d)
        dec = decompose(part, smooth_field(grid_2d, rng))
        assert dec.residual < 1e-14

    def test_decompose_constant_field(self, grid_1d):
        part = build_partition(grid_1d)
        dec = decompose(part, np.full(grid_1d.shape, 3.0))
        assert dec.residual == 0.0

    def test_low_pass_plus_tail(self, grid_1d, rng):
        part = build_partition(grid_1d)
        f = smooth_field(grid_1d, rng)
        j = part.j_min + 2
        tail = sum(dyadic_block(part, f, jj) for jj in range(j, part.j_max + 1))
        recon = low_pass(part, f, j) + tail
        assert np.max(np.abs(recon - (f - f.mean()))) < 1e-13


class TestBesovNorms:
    """Weighted shell-sequence norms."""

    def test_single_shell_field(self, grid_1d, rng):
        part = build_partition(grid_1d)
        x = grid_1d.coordinates()[0]
        f = np.cos(4.0 * x)  # |xi| = 4 sits in shells j=1 and j=2 only
        full = besov_norm(part, f, BesovSpec(s=0.0, p=2, r=1))
        # the shells covering the mode sum to 1, so the total mass is ||f||_2
        assert full == pytest.approx(lp_norm(grid_1d, f, 2), rel=1e-12)

    def test_scaling_weight(self, grid_1d):
        part = build_partition(grid_1d)
        x = grid_1d.coordinates()[0]
        f = np.cos(8.0 * x)
        n0 = besov_norm(part, f, BesovSpec(s=0.0, p=2, r=np.inf))
        n1 = besov_norm(part, f, BesovSpec(s=1.0, p=2, r=np.inf))
        # the dominant shell for |xi| = 8 is j = 3
        assert n1 / n0 == pytest.approx(8.0, rel=0.45)

    def test_flavor_split_overlaps_one_shell(self, grid_1d, rng):
        part = build_partition(grid_1d)
        f = smooth_field(grid_1d, rng)
        j1 = part.j_min + 3
        low = besov_norm(part, f, BesovSpec(s=0.0, p=2, r=1, flavor="low", j1=j1))
        high = besov_norm(part, f, BesovSpec(s=0.0, p=2, r=1, flavor="high", j1=j1))
        full = besov_norm(part, f, BesovSpec(s=0.0, p=2, r=1))
        overlap = sum(
            lp_norm(grid_1d, dyadic_block(part, f, j), 2) for j in (j1 - 1, j1)
        )
        assert low + high == pytest.approx(full + overlap, rel=1e-12)

    def test_flavor_j1_out_of_range(self, grid_1d, rng):
        part = build_partition(grid_1d)
        spec = BesovSpec(s=0.0, p=2, r=1, flavor="low", j1=part.j_max + 5)
        with pytest.raises(ValueError, match="outside resolved range"):
            besov_norm(part, smooth_field(grid_1d, rng), spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BesovSpec(s=0.0, p=0.5, r=1)
        with pytest.raises(ValueError):
            BesovSpec(s=0.0, p=2, r=0.0)
        with pytest.raises(ValueError, match="flavor"):
            BesovSpec(s=0.0, p=2, r=1, flavor="middle")

    def test_vector_fields_supported(self, grid_2d, rng):
        part = build_partition(grid_2d)
        v = np.stack([smooth_field(grid_2d, rng), smooth_field(grid_2d, rng)])
        n = besov_norm(part, v, BesovSpec(s=0.5, p=2, r=1))
        assert n > 0.0


class TestCheminLerner:
    """Time-inside-shells norms."""

    def test_constant_trajectory_matches_spatial_norm(self, grid_1d, rng):
        part = build_partition(grid_1d)
        f = smooth_field(grid_1d, rng)
        times = np.linspace(0.0, 2.0, 9)
        spec = BesovSpec(s=0.5, p=2, r=1)
        n_inf = chemin_lerner_norm(part, times, [f] * 9, np.inf, spec)
        assert n_inf == pytest.approx(besov_norm(part, f, spec), rel=1e-12)
        n_one = chemin_lerner_norm(part, times, [f] * 9, 1.0, spec)
        assert n_one == pytest.approx(2.0 * besov_norm(part, f, spec), rel=1e-12)

    def test_input_validation(self, grid_1d, rng):
        part = build_partition(grid_1d)
        f = smooth_field(grid_1d, rng)
        spec = BesovSpec(s=0.0, p=2, r=1)
        with pytest.raises(ValueError, match="two time samples"):
            chemin_lerner_norm(part, np.array([0.0]), [f], 1.0, spec)
        with pytest.raises(ValueError, match="strictly increasing"):
            chemin_lerner_norm(part, np.array([0.0, 0.0]), [f, f], 1.0, spec)
        with pytest.raises(ValueError, match="one field per time"):
            chemin_lerner_norm(part, np.array([0.0, 1.0]), [f], 1.0, spec)
        with pytest.raises(ValueError, match="rho_exp"):
            chemin_lerner_norm(part, np.array([0.0, 1.0]), [f, f], 0.5, spec)


@pytest.fixture(params=[1, 2], ids=["1d", "2d"])
def lattice(request):
    """A 1D or 2D grid, its partition, a threshold j1 inside the resolved range."""
    grid = make_grid(dim=1, lengths=2.0 * np.pi, modes=64) if request.param == 1 else \
        make_grid(dim=2, lengths=2.0 * np.pi, modes=32)
    part = build_partition(grid)
    return grid, part, (part.j_min + part.j_max) // 2


class TestHalfSpectrumOracle:
    """Half-spectrum blocks and norms against full-lattice references.

    The fields are seeded standard-normal samples, so every mode carries
    content, the Nyquist planes included.
    """

    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    @pytest.mark.parametrize("flavor", ["full", "low", "high"])
    @pytest.mark.parametrize("p", [2, 4])
    def test_besov_norm(self, lattice, p, flavor, vector):
        grid, part, j1 = lattice
        rng = np.random.default_rng(31 + p)
        f = rng.standard_normal(((grid.dim,) if vector else ()) + grid.shape)
        for r in (1, 2, np.inf):
            spec = BesovSpec(s=0.7, p=p, r=r, flavor=flavor, j1=j1)
            assert besov_norm(part, f, spec) == pytest.approx(reference_besov(part, f, spec), rel=1e-12)

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("rho", [1.0, np.inf])
    def test_chemin_lerner_norm(self, lattice, rho, p):
        grid, part, j1 = lattice
        rng = np.random.default_rng(47)
        times = np.array([0.0, 0.3, 0.5, 1.1])
        fields = [rng.standard_normal(grid.shape) for _ in times]
        spec = BesovSpec(s=0.5, p=p, r=1, flavor="high", j1=j1)
        weighted = []
        for j in part.js:
            if j < j1 - 1:
                continue
            series = np.array([lp_norm(grid, full_lattice_filter(f, part.multiplier(j)), p)
                               for f in fields])
            tnorm = series.max() if rho == np.inf else np.trapezoid(series**rho, times) ** (1 / rho)
            weighted.append(2.0 ** (j * spec.s) * tnorm)
        want = sequence_norm(weighted, spec.r)
        assert chemin_lerner_norm(part, times, fields, rho, spec) == pytest.approx(want, rel=1e-12)

    def test_blocks_and_low_pass(self, lattice):
        grid, part, _ = lattice
        f = np.random.default_rng(5).standard_normal((grid.dim,) + grid.shape)
        for j in part.js:
            assert np.allclose(dyadic_block(part, f, j), full_lattice_filter(f, part.multiplier(j)),
                               rtol=0, atol=1e-13)
            assert np.allclose(low_pass(part, f, j), full_lattice_filter(f, part.low_pass_multiplier(j)),
                               rtol=0, atol=1e-13)

    def test_half_masks_are_views_of_the_cached_arrays(self, lattice):
        grid, part, _ = lattice
        j = part.j_max - 1
        for full in (part.multiplier(j), part.low_pass_multiplier(j)):
            half = grid.half(full)
            assert half.base is full
            assert half.shape == grid.shape[:-1] + (grid.shape[-1] // 2 + 1,)


class TestTransformCount:
    """Each public norm transforms its input once."""

    def test_p2_besov_of_a_vector_field_is_one_forward_transform(self, grid_2d, rng, fft_calls):
        part = build_partition(grid_2d)
        v = rng.standard_normal((2,) + grid_2d.shape)
        besov_norm(part, v, BesovSpec(s=0.5, p=2, r=1))
        assert fft_calls == {"fftn": 0, "ifftn": 0, "rfftn": 1, "irfftn": 0}

    def test_p4_besov_is_one_inverse_transform_per_shell(self, grid_2d, rng, fft_calls):
        part = build_partition(grid_2d)
        besov_norm(part, rng.standard_normal(grid_2d.shape), BesovSpec(s=0.5, p=4, r=1))
        assert fft_calls == {"fftn": 0, "ifftn": 0, "rfftn": 1, "irfftn": len(part.js)}


class TestBernstein:
    """Derivative-gain brackets on shell-supported fields."""

    def test_l2_bracket_random_shells(self, grid_1d, rng):
        part = build_partition(grid_1d)
        for trial in range(25):
            j = int(rng.integers(1, part.j_max - 1))
            f = shell_mode(grid_1d, j, rng)
            if np.max(np.abs(f)) == 0.0:
                continue
            for k in (0.5, 1.0, 2.0):
                ratio = verify_bernstein(part, f, j, k, 2, 2)
                assert 0.75**k <= ratio <= (8.0 / 3.0) ** k

    def test_k_zero_p_equals_q_is_one(self, grid_1d, rng):
        part = build_partition(grid_1d)
        f = shell_mode(grid_1d, 2, rng)
        assert verify_bernstein(part, f, 2, 0.0, 2, 2) == pytest.approx(1.0)

    def test_low_to_high_integrability(self, grid_1d, rng):
        part = build_partition(grid_1d)
        f = shell_mode(grid_1d, 2, rng)
        # p=2 -> q=inf costs 2^(j d / 2); the normalized ratio stays O(1)
        ratio = verify_bernstein(part, f, 2, 0.0, 2, np.inf)
        assert 0.0 < ratio < 10.0

    def test_rejects_q_below_p(self, grid_1d, rng):
        part = build_partition(grid_1d)
        f = shell_mode(grid_1d, 2, rng)
        with pytest.raises(ValueError, match="q >= p"):
            verify_bernstein(part, f, 2, 1.0, 4, 2)

    def test_rejects_negative_order(self, grid_1d, rng):
        part = build_partition(grid_1d)
        f = shell_mode(grid_1d, 2, rng)
        with pytest.raises(ValueError, match=">= 0"):
            verify_bernstein(part, f, 2, -1.0, 2, 2)

    def test_rejects_off_shell_support(self, grid_1d):
        part = build_partition(grid_1d)
        x = grid_1d.coordinates()[0]
        f = np.cos(20.0 * x)
        with pytest.raises(ValueError, match="leaks outside shell"):
            verify_bernstein(part, f, 1, 1.0, 2, 2)

    def test_rejects_zero_field(self, grid_1d):
        part = build_partition(grid_1d)
        with pytest.raises(ValueError, match="identically zero"):
            verify_bernstein(part, np.zeros(grid_1d.shape), 2, 1.0, 2, 2)


class TestWuLowerBound:
    """Shell-wise fractional dissipation ratios."""

    def test_p2_bracket(self, grid_1d, rng):
        part = build_partition(grid_1d)
        for trial in range(25):
            j = int(rng.integers(1, part.j_max - 1))
            f = shell_mode(grid_1d, j, rng)
            for aw in (0.25, 0.5, 0.75):
                ratio = verify_wu_lower_bound(part, f, j, 2, aw)
                assert 0.75 ** (2 * aw) <= ratio <= (8.0 / 3.0) ** (2 * aw)

    def test_p4_positive(self, grid_1d, rng):
        part = build_partition(grid_1d)
        for trial in range(25):
            j = int(rng.integers(1, part.j_max - 1))
            f = shell_mode(grid_1d, j, rng)
            assert verify_wu_lower_bound(part, f, j, 4, 0.5) > 0.0

    def test_validity_range(self, grid_1d, rng):
        part = build_partition(grid_1d)
        f = shell_mode(grid_1d, 2, rng)
        with pytest.raises(ValueError, match="validity range"):
            verify_wu_lower_bound(part, f, 2, 4, 1.5)
        with pytest.raises(ValueError, match="validity range"):
            verify_wu_lower_bound(part, f, 2, 1.5, 0.5)

    def test_alpha_zero_p2_is_one(self, grid_1d, rng):
        part = build_partition(grid_1d)
        f = shell_mode(grid_1d, 2, rng)
        assert verify_wu_lower_bound(part, f, 2, 2, 0.0) == pytest.approx(1.0)
