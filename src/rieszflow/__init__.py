"""Pseudospectral simulation and spectral analysis of damped fluids with
fractional-Laplacian interaction forces on periodic boxes."""

from .grid import (
    FieldState,
    RieszParams,
    SpectralGrid,
    ZeroModeError,
    apply_multiplier,
    curl,
    divergence,
    frac_lambda,
    grad_frac_lambda,
    gradient,
    hodge_reconstruct,
    hodge_split,
    lp_norm,
    make_grid,
    riesz_force,
    spectral_l2,
)
from .littlewood_paley import (
    BesovSpec,
    LPDecomposition,
    LPPartition,
    besov_norm,
    build_partition,
    chemin_lerner_norm,
    chi_profile,
    decompose,
    dyadic_block,
    low_pass,
    phi_profile,
    verify_bernstein,
    verify_wu_lower_bound,
)
from .spectrum import (
    EigenPair,
    ModeSystem,
    asymptotic_check,
    dissipative_constant,
    effective_mode_response,
    eigenvalues,
    linear_decay_quadrature,
    mode_system,
    propagator,
    vorticity_decay,
)
from .solver import (
    RunStats,
    SolverConfig,
    Trajectory,
    integrate,
    linear_step,
    perturbation_presets,
    rhs_nonlinear,
)
from .diagnostics import (
    DecayFit,
    FunctionalRecord,
    density_equation_residual,
    effective_velocity,
    energy_functionals,
    fit_decay,
    lyapunov_block,
    lyapunov_blocks,
    lyapunov_equivalence,
    z_equation_residual,
)
from .snapshots import read_snapshot, write_snapshot

__version__ = "0.1.0"
