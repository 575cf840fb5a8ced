"""Effective velocity, residuals, energy functionals, and decay fits."""

import numpy as np
import pytest

from rieszflow import (
    BesovSpec,
    FieldState,
    ZeroModeError,
    apply_multiplier,
    RieszParams,
    SolverConfig,
    build_partition,
    density_equation_residual,
    dyadic_block,
    effective_velocity,
    energy_functionals,
    fit_decay,
    frac_lambda,
    integrate,
    lp_norm,
    lyapunov_block,
    lyapunov_blocks,
    lyapunov_equivalence,
    make_grid,
    perturbation_presets,
    z_equation_residual,
)
from rieszflow.diagnostics import default_fit_window

from conftest import full_lattice_filter, reference_besov, smooth_field, smooth_vector


def snapshots_around(grid, params, state, t_mid, h, dt=5e-4):
    cfg = SolverConfig(dt=dt, t_end=t_mid + h, snapshot_times=(t_mid - h, t_mid, t_mid + h))
    tr = integrate(grid, state, params, cfg)
    assert tr.status == "completed"
    return tr.snapshots


class TestEffectiveVelocity:
    """The damped combination z = u + (kappa/lam) grad |nabla|^(2s*-2) a."""

    def test_single_mode_oracle(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=64)
        p = RieszParams.from_s_star(1, 0.25)
        x = g.coordinates()[0]
        k = 4.0
        st = FieldState(a=np.cos(k * x), u=np.zeros((1,) + g.shape), t=0.0)
        z = effective_velocity(g, st, p)
        ref = -(k ** (2.0 * 0.25 - 1.0)) * np.sin(k * x)
        assert np.allclose(z[0], ref, atol=1e-13)

    def test_coefficient_scaling(self):
        g = make_grid(dim=1, lengths=2.0 * np.pi, modes=64)
        x = g.coordinates()[0]
        st = FieldState(a=np.cos(2.0 * x), u=np.zeros((1,) + g.shape), t=0.0)
        p1 = RieszParams.from_s_star(1, 0.5, kappa=1.0, lam=1.0)
        p2 = RieszParams.from_s_star(1, 0.5, kappa=3.0, lam=2.0)
        z1 = effective_velocity(g, st, p1)
        z2 = effective_velocity(g, st, p2)
        assert np.allclose(z2 - st.u, 1.5 * (z1 - st.u), atol=1e-14)

    def test_linearity(self, grid_2d, rng):
        p = RieszParams(dim=2, alpha=1.0)
        a1, a2 = smooth_field(grid_2d, rng), smooth_field(grid_2d, rng)
        u1, u2 = smooth_vector(grid_2d, rng), smooth_vector(grid_2d, rng)
        z_sum = effective_velocity(grid_2d, FieldState(a=a1 + a2, u=u1 + u2, t=0.0), p)
        z_split = effective_velocity(
            grid_2d, FieldState(a=a1, u=u1, t=0.0), p
        ) + effective_velocity(grid_2d, FieldState(a=a2, u=u2, t=0.0), p)
        assert np.max(np.abs(z_sum - z_split)) < 1e-13


@pytest.fixture(scope="module")
def run():
    g = make_grid(dim=1, lengths=4.0 * np.pi, modes=128)
    p = RieszParams.from_s_star(1, 0.5)
    st = perturbation_presets("smooth-bump", 0.1, g)
    return g, p, st


class TestEquationResiduals:
    """Reformulated equations evaluated on solver output."""

    def test_residuals_small(self, run):
        g, p, st = run
        snaps = snapshots_around(g, p, st, 1.0, 0.01)
        assert density_equation_residual(g, snaps, p) < 1e-4
        assert z_equation_residual(g, snaps, p) < 1e-4

    def test_density_residual_fine_stencil(self, run):
        g, p, st = run
        snaps = snapshots_around(g, p, st, 1.0, 1e-3)
        assert density_equation_residual(g, snaps, p) < 1e-6

    def test_residuals_second_order_in_spacing(self, run):
        g, p, st = run
        coarse = snapshots_around(g, p, st, 1.0, 0.02)
        fine = snapshots_around(g, p, st, 1.0, 0.01)
        for resid in (density_equation_residual, z_equation_residual):
            ratio = resid(g, coarse, p) / resid(g, fine, p)
            assert 3.5 < ratio < 4.5

    def test_needs_exactly_three_snapshots(self, run):
        g, p, st = run
        with pytest.raises(ValueError, match="three consecutive"):
            density_equation_residual(g, [st, st], p)

    def test_needs_increasing_times(self, run):
        g, p, st = run
        with pytest.raises(ValueError, match="strictly increasing"):
            z_equation_residual(g, [st, st, st], p)

    def test_zero_state_residual_is_zero(self, run):
        g, p, _ = run
        mk = lambda t: FieldState(a=np.zeros(g.shape), u=np.zeros((1,) + g.shape), t=t)
        snaps = [mk(0.0), mk(1.0), mk(2.0)]
        assert density_equation_residual(g, snaps, p) == 0.0
        assert z_equation_residual(g, snaps, p) == 0.0


class TestEnergyFunctionals:
    """Hybrid low/high norms and the dissipation counterpart."""

    def test_components_and_homogeneity(self, grid_2d, rng):
        p = RieszParams(dim=2, alpha=1.0)
        part = build_partition(grid_2d)
        a = 0.1 * smooth_field(grid_2d, rng)
        u = 0.1 * smooth_vector(grid_2d, rng)
        rec1 = energy_functionals(grid_2d, FieldState(a=a, u=u, t=0.5), part, p)
        assert set(rec1.components) == {"a_low", "u_low", "a_high", "u_high"}
        assert rec1.t == 0.5
        assert rec1.energy == pytest.approx(sum(rec1.components.values()))
        assert rec1.energy > 0.0
        # without the quadratic transport term the record is 1-homogeneous;
        # with it, doubling the state at most quadruples each piece
        rec2 = energy_functionals(grid_2d, FieldState(a=2 * a, u=2 * u, t=0.5), part, p)
        assert rec2.energy == pytest.approx(2.0 * rec1.energy, rel=1e-12)

    def test_velocity_only_state(self, grid_2d, rng):
        p = RieszParams(dim=2, alpha=1.0)
        part = build_partition(grid_2d)
        st = FieldState(a=np.zeros(grid_2d.shape), u=smooth_vector(grid_2d, rng), t=0.0)
        rec = energy_functionals(grid_2d, st, p=2.0, partition=part, params=p)
        assert rec.components["a_low"] == 0.0
        assert rec.components["a_high"] == 0.0
        assert rec.components["u_low"] > 0.0

    def test_dissipation_dominates_for_high_frequency_data(self, grid_1d):
        p = RieszParams.from_s_star(1, 0.5)
        part = build_partition(grid_1d)
        x = grid_1d.coordinates()[0]
        st = FieldState(a=0.1 * np.cos(8.0 * x), u=np.zeros((1,) + grid_1d.shape), t=0.0)
        rec = energy_functionals(grid_1d, st, part, p)
        # above unit frequency the dissipation index gain 2 s* >= 0 pays off
        assert rec.dissipation >= rec.energy - 1e-12

    def test_inadmissible_p_warns(self, grid_1d, rng):
        p = RieszParams.from_s_star(1, 0.5)
        part = build_partition(grid_1d)
        st = FieldState(a=0.1 * smooth_field(grid_1d, rng), u=np.zeros((1,) + grid_1d.shape), t=0.0)
        with pytest.warns(UserWarning, match="admissible"):
            energy_functionals(grid_1d, st, part, p, p=6.0)


class TestLyapunovBlock:
    """Shell-wise Lyapunov functionals."""

    @pytest.fixture
    def shell_state(self, grid_1d, rng):
        part = build_partition(grid_1d)
        j = part.j_max - 2
        f = smooth_field(grid_1d, rng, decay=2.0**j)
        a_j = dyadic_block(part, f, j)
        return part, j, a_j

    def test_density_only_quadratic_oracle(self, grid_1d, shell_state):
        p = RieszParams.from_s_star(1, 0.5)
        part, j, a_j = shell_state
        st = FieldState(a=a_j, u=np.zeros((1,) + grid_1d.shape), t=0.0)
        got = lyapunov_block(grid_1d, st, j, 0.25, part, p)
        # no velocity: the cubic and cross terms vanish identically
        ref = lp_norm(grid_1d, frac_lambda(grid_1d, dyadic_block(part, a_j, j), 0.5), 2) ** 2
        assert got == pytest.approx(ref, rel=1e-10)

    def test_equivalence_near_one_small_data(self, grid_2d, rng):
        p = RieszParams(dim=2, alpha=1.0)
        part = build_partition(grid_2d)
        j = part.j_max - 2
        st = FieldState(
            a=0.05 * smooth_field(grid_2d, rng), u=0.05 * smooth_vector(grid_2d, rng), t=0.0
        )
        ratio = lyapunov_equivalence(grid_2d, st, j, 0.1, part, p)
        assert 0.7 < ratio < 1.3

    def test_equivalence_of_zero_state_is_one(self, grid_1d):
        p = RieszParams.from_s_star(1, 0.5)
        part = build_partition(grid_1d)
        st = FieldState(a=np.zeros(grid_1d.shape), u=np.zeros((1,) + grid_1d.shape), t=0.0)
        assert lyapunov_equivalence(grid_1d, st, part.j_max - 1, 0.2, part, p) == 1.0

    def test_threshold_and_coefficient_validation(self, grid_1d, rng):
        p = RieszParams.from_s_star(1, 0.5)
        part = build_partition(grid_1d)
        st = FieldState(a=smooth_field(grid_1d, rng), u=np.zeros((1,) + grid_1d.shape), t=0.0)
        with pytest.raises(ValueError, match="j >= j1 - 1"):
            lyapunov_block(grid_1d, st, part.j_min, 0.2, part, p, j1=part.j_min + 3)
        with pytest.raises(ValueError, match="c_tilde"):
            lyapunov_block(grid_1d, st, part.j_max - 1, 0.7, part, p)
        with pytest.raises(ValueError, match="outside resolved range"):
            lyapunov_block(grid_1d, st, part.j_max + 2, 0.2, part, p)


# Full-lattice references: derivative operators go through apply_multiplier,
# shell blocks through full_lattice_filter, norms through physical lp_norm.


def ref_grad_frac(grid, f, sigma):
    with np.errstate(divide="ignore", invalid="ignore"):
        symbols = [1j * grid.xi[i] * grid.xi_norm**sigma for i in range(grid.dim)]
    return np.stack([apply_multiplier(grid, f, m) for m in symbols])


def ref_div(grid, v):
    return sum(apply_multiplier(grid, v[i], 1j * grid.xi[i]) for i in range(grid.dim))


def ref_z(grid, st, params):
    return st.u + params.kappa / params.lam * ref_grad_frac(grid, st.a, 2 * params.s_star - 2)


def ref_density_residual(grid, snaps, params):
    s0, s1, s2 = snaps
    beta = params.kappa / params.lam
    terms = [
        (s2.a - s0.a) / (s2.t - s0.t),
        beta * apply_multiplier(grid, s1.a, grid.xi_norm ** (2 * params.s_star)),
        ref_div(grid, ref_z(grid, s1, params)),
        ref_div(grid, s1.a * s1.u),
    ]
    return lp_norm(grid, sum(terms), 2) / max(lp_norm(grid, t, 2) for t in terms)


def ref_z_residual(grid, snaps, params):
    s0, s1, s2 = snaps
    beta, sigma = params.kappa / params.lam, 2 * params.s_star - 2
    z1 = ref_z(grid, s1, params)
    advection = np.stack([
        sum(s1.u[k] * apply_multiplier(grid, s1.u[i], 1j * grid.xi[k]) for k in range(grid.dim))
        for i in range(grid.dim)
    ])
    residual = (
        (ref_z(grid, s2, params) - ref_z(grid, s0, params)) / (s2.t - s0.t)
        + params.lam * z1
        + beta * ref_grad_frac(grid, ref_div(grid, z1), sigma)
        + beta**2 * ref_grad_frac(grid, s1.a, 4 * params.s_star - 2)
        + beta * ref_grad_frac(grid, ref_div(grid, s1.a * s1.u), sigma)
        + advection
    )
    return lp_norm(grid, residual, 2) / lp_norm(grid, z1, 2)


def ref_energy(grid, st, part, params, p, j1):
    d = grid.dim
    besov = lambda f, s, q, flavor: reference_besov(part, f, BesovSpec(s, q, 1, flavor, j1))
    comp = {
        "a_low": besov(st.a, d / p - 1, p, "low"),
        "u_low": besov(st.u, d / p, p, "low"),
        "a_high": besov(st.a, d / 2 + 1, 2, "high"),
        "u_high": besov(st.u, d / 2 + 2 - params.s_star, 2, "high"),
    }
    dadt = -ref_div(grid, st.u) - ref_div(grid, st.a * st.u)
    dissipation = (besov(st.a, d / p - 1 + 2 * params.s_star, p, "low") + comp["u_low"]
                   + comp["a_high"] + comp["u_high"] + besov(dadt, d / p, p, "full"))
    return sum(comp.values()), dissipation, comp


def ref_lyapunov(grid, st, j, c_tilde, part, params):
    dv = grid.cell_volume
    a_j = full_lattice_filter(st.a, part.multiplier(j))
    u_j = full_lattice_filter(st.u, part.multiplier(j))
    lam_a = apply_multiplier(grid, a_j, grid.xi_norm**params.s_star)
    lam_u = np.stack([apply_multiplier(grid, c, grid.xi_norm) for c in u_j])
    low_a = full_lattice_filter(st.a, part.low_pass_multiplier(j - 1))
    quad = dv * np.sum(lam_a**2) + dv * np.sum(lam_u**2)
    cubic = dv * np.sum(low_a * np.sum(lam_u**2, axis=0))
    cross = -2 * c_tilde * dv * np.sum(a_j * ref_div(grid, u_j))
    return quad + cubic + cross, quad


@pytest.fixture(params=[1, 2], ids=["1d", "2d"])
def rough_case(request):
    """Grid, parameters and three seeded standard-normal states (Nyquist content included)."""
    grid = make_grid(dim=1, lengths=2 * np.pi, modes=64) if request.param == 1 else \
        make_grid(dim=2, lengths=(2 * np.pi, 3 * np.pi), modes=(32, 24))
    params = RieszParams.from_s_star(grid.dim, 0.3, lam=0.8, kappa=1.5)
    rng = np.random.default_rng(11 * request.param)
    states = []
    for t in (0.0, 0.2, 0.5):
        a = rng.standard_normal(grid.shape)
        states.append(FieldState(a=0.1 * (a - a.mean()),
                                 u=0.1 * rng.standard_normal((grid.dim,) + grid.shape), t=t))
    return grid, build_partition(grid), params, states


class TestHalfSpectrumOracle:
    """Half-spectrum diagnostics against full-lattice references."""

    @pytest.mark.parametrize("p", [2, 4])
    def test_energy_functionals(self, rough_case, p):
        grid, part, params, states = rough_case
        rec = energy_functionals(grid, states[1], part, params, p=p, j1=0)
        energy, dissipation, comp = ref_energy(grid, states[1], part, params, p, 0)
        assert rec.energy == pytest.approx(energy, rel=1e-12)
        assert rec.dissipation == pytest.approx(dissipation, rel=1e-12)
        for key, value in comp.items():
            assert rec.components[key] == pytest.approx(value, rel=1e-12)

    def test_lyapunov_block_and_equivalence(self, rough_case):
        grid, part, params, states = rough_case
        for j in range(max(-1, part.j_min), part.j_max + 1):
            total, quad = ref_lyapunov(grid, states[1], j, 0.3, part, params)
            assert lyapunov_block(grid, states[1], j, 0.3, part, params) == pytest.approx(total, rel=1e-12)
            assert lyapunov_equivalence(grid, states[1], j, 0.3, part, params) == pytest.approx(
                total / quad, rel=1e-12)

    def test_residuals(self, rough_case):
        grid, _, params, states = rough_case
        got = density_equation_residual(grid, states, params)
        assert abs(got - ref_density_residual(grid, states, params)) <= 1e-12
        got = z_equation_residual(grid, states, params)
        assert abs(got - ref_z_residual(grid, states, params)) <= 1e-12

    def test_effective_velocity(self, rough_case):
        grid, _, params, states = rough_case
        z = effective_velocity(grid, states[1], params)
        assert np.max(np.abs(z - ref_z(grid, states[1], params))) <= 1e-13

    def test_nonzero_mean_density_raises(self, rough_case):
        grid, _, params, states = rough_case
        shifted = [FieldState(a=s.a + 0.5, u=s.u, t=s.t) for s in states]
        with pytest.raises(ZeroModeError):
            effective_velocity(grid, shifted[1], params)
        with pytest.raises(ZeroModeError):
            density_equation_residual(grid, shifted, params)
        with pytest.raises(ZeroModeError):
            z_equation_residual(grid, shifted, params)


def smooth_even_at_least(need):
    """The smallest even integer >= need with no prime factor above 5."""
    m = need + need % 2
    while True:
        r = m
        for q in (2, 3, 5):
            while r % q == 0:
                r //= q
        if r == 1:
            return m
        m += 2


def support_box(grid, m):
    """max |k_i| over the nonzero entries of half-lattice array m, per axis."""
    index = np.nonzero(m)
    rows = [np.max(np.minimum(i, n - i)) for i, n in zip(index[:-1], grid.modes[:-1])]
    return tuple(int(k) for k in rows + [np.max(index[-1])])


def lyapunov_lattice(grid, part, j):
    """The box of shell j and the alias-free lattice of S_(j-1) a |Lambda u_j|^2, capped at the grid."""
    shell, low = support_box(grid, part.half_shell(j)), support_box(grid, part.half_low_pass(j - 1))
    return shell, tuple(min(smooth_even_at_least(kl + 2 * k + 1), n)
                        for kl, k, n in zip(low, shell, grid.modes))


def analyze_2d_states(grid, seed, count):
    """Smooth mean-zero states scaled to max 0.05, as the analyze-2d benchmark stores them."""
    rng = np.random.default_rng(seed)
    states = []
    for k in range(count):
        a = smooth_field(grid, rng)
        u = np.stack([smooth_field(grid, rng) for _ in range(grid.dim)])
        states.append(FieldState(0.05 * a / np.max(np.abs(a)), 0.05 * u / np.max(np.abs(u)), 0.2 * k))
    return states


class TestBandedLyapunov:
    """The box kernel of the Lyapunov blocks against the full-lattice ``ref_lyapunov``.

    Each case names the shells whose stacked inverse runs on a lattice smaller
    than the grid, read off the transforms it makes, so the comparison covers
    the banded path and not only the shells whose box is the whole lattice.
    ``lyapunov_blocks``, which gathers every box from one transform of each
    field, must equal ``lyapunov_block`` on each shell bit for bit.
    """

    @pytest.mark.parametrize("case, banded", [
        ("1d", {-1, 0, 1, 2, 3}),
        # (32, 24) on (2 pi, 3 pi): shell 2 reaches the axis-2 Nyquist index and is banded on axis 1 only
        ("2d-rect", {-1, 0, 1, 2}),
        ("analyze-2d", {-1, 0, 1, 2}),
    ])
    def test_matches_the_full_lattice_reference(self, case, banded, fft_calls):
        if case == "analyze-2d":
            grid = make_grid(dim=2, lengths=16 * np.pi, modes=256)
            params = RieszParams.from_s_star(2, 0.5)
            state = analyze_2d_states(grid, 31, 1)[0]
        else:
            grid = make_grid(dim=1, lengths=2 * np.pi, modes=64) if case == "1d" else \
                make_grid(dim=2, lengths=(2 * np.pi, 3 * np.pi), modes=(32, 24))
            params = RieszParams.from_s_star(grid.dim, 0.3, lam=0.8, kappa=1.5)
            rng = np.random.default_rng(5)
            a = rng.standard_normal(grid.shape)
            state = FieldState(0.1 * (a - a.mean()), 0.1 * rng.standard_normal((grid.dim,) + grid.shape))
        part = build_partition(grid)
        blocks = lyapunov_blocks(grid, state, 0.3, part, params)
        assert list(blocks) == list(range(max(-1, part.j_min), part.j_max + 1))
        took_a_box = set()
        for j in blocks:
            start = len(fft_calls.log)
            got = lyapunov_block(grid, state, j, 0.3, part, params)
            assert got == blocks[j]
            name, shape, n = fft_calls.log[-1]
            lattice = shape[-2:-1] + (n,) if grid.dim == 2 else (n,)
            assert name == "irfft" and shape[0] == 1 + grid.dim
            assert lattice == lyapunov_lattice(grid, part, j)[1]
            if lattice != grid.modes:
                took_a_box.add(j)
            total, quad = ref_lyapunov(grid, state, j, 0.3, part, params)
            assert got == pytest.approx(total, rel=1e-12)
            assert lyapunov_equivalence(grid, state, j, 0.3, part, params) == pytest.approx(
                total / quad, rel=1e-12)
            del fft_calls.log[start:]
        assert took_a_box == banded


class TestTransformCount:
    """Each diagnostic transforms each input field once, whatever the shell."""

    def test_energy_functionals_p2(self, grid_2d, rng, fft_calls):
        st = FieldState(a=rng.standard_normal(grid_2d.shape),
                        u=rng.standard_normal((2,) + grid_2d.shape), t=0.0)
        energy_functionals(grid_2d, st, build_partition(grid_2d), RieszParams(dim=2, alpha=1.0))
        # one forward transform each of a, u and a u (rfft, then fft over the first axis), no inverse
        assert {name: n for name, n in fft_calls.items() if n} == {"rfft": 3, "fft": 3}

    def test_lyapunov_block_count_does_not_depend_on_j(self, grid_2d, rng, fft_calls):
        part = build_partition(grid_2d)
        params = RieszParams(dim=2, alpha=1.0)
        st = FieldState(a=rng.standard_normal(grid_2d.shape),
                        u=rng.standard_normal((2,) + grid_2d.shape), t=0.0)
        counts = []
        for j in part.js:
            before = sum(fft_calls.values())
            lyapunov_block(grid_2d, st, j, 0.25, part, params)
            counts.append(sum(fft_calls.values()) - before)
        assert fft_calls["fftn"] == fft_calls["ifftn"] == 0
        assert len(set(counts)) == 1

    def test_lyapunov_blocks_transform_a_and_u_once_whatever_the_shells(self, grid_2d, rng, fft_calls):
        part = build_partition(grid_2d)
        params = RieszParams(dim=2, alpha=1.0)
        st = FieldState(a=rng.standard_normal(grid_2d.shape),
                        u=rng.standard_normal((2,) + grid_2d.shape), t=0.0)
        shells = []
        for j1 in (part.j_min, part.j_max):
            before = dict(fft_calls)
            shells.append(len(lyapunov_blocks(grid_2d, st, 0.25, part, params, j1)))
            made = {name: n - before[name] for name, n in fft_calls.items() if n != before[name]}
            # one forward transform each of a and u; one stacked inverse per shell
            assert made == {"rfft": 2, "fft": 2, "ifft": shells[-1], "irfft": shells[-1]}
        assert shells == [len(part.js), 2]

    @pytest.mark.parametrize("c_tilde", [0.0, 0.5])
    def test_lyapunov_blocks_refuse_c_tilde_outside_its_range(self, grid_2d, rng, c_tilde):
        st = FieldState(a=rng.standard_normal(grid_2d.shape),
                        u=rng.standard_normal((2,) + grid_2d.shape), t=0.0)
        args = (build_partition(grid_2d), RieszParams(dim=2, alpha=1.0))
        with pytest.raises(ValueError, match=r"c_tilde must lie in \(0, 0.5\)"):
            lyapunov_blocks(grid_2d, st, c_tilde, *args)
        with pytest.raises(ValueError, match=r"c_tilde must lie in \(0, 0.5\)"):
            lyapunov_block(grid_2d, st, 0, c_tilde, *args)

    def test_lyapunov_block_transforms_a_low_shell_on_its_box(self, grid_2d, rng, fft_calls):
        part = build_partition(grid_2d)
        st = FieldState(a=rng.standard_normal(grid_2d.shape),
                        u=rng.standard_normal((2,) + grid_2d.shape), t=0.0)
        (n1, n2), j = grid_2d.modes, 1
        kept, (m1, m2) = lyapunov_lattice(grid_2d, part, j)
        assert kept[1] < n2 // 2 and m1 < n1 and m2 < n2
        lyapunov_block(grid_2d, st, j, 0.25, part, RieszParams(dim=2, alpha=1.0))
        cols = kept[1] + 1
        # the column passes of a and u run on the box's K_2 + 1 columns; the one inverse of
        # [S_(j-1) a, |nabla| u_j] runs on the M_1 x (M_2/2 + 1) half lattice
        assert fft_calls.log == [
            ("rfft", (n1, n2), None), ("fft", (n1, cols), None),
            ("rfft", (2, n1, n2), None), ("fft", (2, n1, cols), None),
            ("ifft", (3, m1, cols), None), ("irfft", (3, m1, cols), m2),
        ]


class TestDecayFit:
    """Log-log slope extraction."""

    def test_exact_power_law(self):
        t = np.linspace(0.0, 50.0, 201)
        norms = 3.0 * (1.0 + t) ** (-0.75)
        fit = fit_decay(t, norms, predicted=-0.75)
        assert fit.slope == pytest.approx(-0.75, abs=1e-12)
        assert fit.rel_err < 1e-12
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.window == default_fit_window(50.0)

    def test_explicit_window(self):
        t = np.linspace(0.0, 100.0, 401)
        norms = (1.0 + t) ** (-0.5) + 0.3 * np.exp(-t)
        late = fit_decay(t, norms, predicted=-0.5, window=(20.0, 100.0))
        assert late.rel_err < 5e-3

    def test_zero_predicted_uses_absolute_error(self):
        t = np.linspace(0.0, 20.0, 101)
        fit = fit_decay(t, np.full_like(t, 2.0), predicted=0.0)
        assert fit.rel_err == pytest.approx(abs(fit.slope))

    def test_needs_enough_samples(self):
        t = np.linspace(0.0, 10.0, 5)
        with pytest.raises(ValueError, match="at least 8 samples"):
            fit_decay(t, np.ones_like(t), predicted=-1.0)

    def test_rejects_nonpositive_norms(self):
        t = np.linspace(0.0, 10.0, 21)
        norms = np.ones_like(t)
        norms[15] = 0.0
        with pytest.raises(ValueError, match="positive"):
            fit_decay(t, norms, predicted=-1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            fit_decay(np.arange(10.0), np.ones(9), predicted=-1.0)

    def test_default_window(self):
        assert default_fit_window(50.0) == (5.0, 50.0)
        assert default_fit_window(5.0) == (1.0, 5.0)
