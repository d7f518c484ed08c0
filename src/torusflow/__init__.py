"""Pseudospectral toolkit on the periodic 3-torus.

Spectral fields with exact multiplier calculus, frequency-band blending
operators, dyadic (Littlewood-Paley style) frequency analysis, three
independent Navier-Stokes time schemes, and a verification harness that
measures the identities, inequalities, and convergence rates the pieces
are supposed to satisfy.
"""

from .config import ExperimentConfig, parse_config
from .diagnostics import (
    ConvergenceStudy,
    DiagnosticsRecord,
    RecordPass,
    convergence_study,
    diagnostics_csv,
    energy_identity_residual,
    enstrophy,
    kinetic_energy,
    mild_residual,
    records_for_trajectory,
    strong_residual,
    unified_reconstruction,
    weak_form_residual,
    weak_test_battery,
)
from .dyadic import (
    almost_orthogonality_ratio,
    bernstein_check,
    block_energies,
    block_weights,
    commutator_bound_ratio,
    commutator_constant,
    dyadic_block,
    paraproduct_decompose,
    reassemble,
)
from .operators import (
    MollifierSpec,
    WeightPartition,
    band_weights,
    binary_blend,
    binary_cutoff,
    blend,
    mollifier_symbol,
    regularize,
    smooth,
    spatial_window,
    weighted_blend,
)
from .solvers import (
    SolverParams,
    Trajectory,
    cfl_limit,
    lifespan_lower_bound,
    pressure_solve,
    random_solenoidal_init,
    run,
    shear_init,
    step,
    taylor_green_init,
)
from .spectral import (
    GridSpec,
    PhysicalField,
    SpectralField,
    advect,
    curl,
    dealias,
    divergence,
    divergence_defect,
    forward_transform,
    gradient,
    heat_semigroup,
    hermitian_defect,
    inner_product,
    inverse_transform,
    l2_norm,
    leray_project,
    nonlinear_term,
    physical_l2_norm,
    sobolev_norm,
    vorticity_max,
    zero_mean,
)

__version__ = "0.1.0"
