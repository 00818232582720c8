"""Two damped pendula on a spring-restrained sliding beam.

Models the coupled beam-pendula system, analyzes the spectrum of its
linearization (Routh-Hurwitz stability, Eneström-Kakeya annulus,
Gershgorin discs), and classifies the dimensionless parameter quadrant
into regions where antiphase synchronization is facilitated or
inhibited, cross-validated against direct nonlinear simulation.
"""

from .params import (
    DerivedConstants,
    EscapementSpec,
    ParamError,
    PhysicalParams,
    ReducedParams,
    SystemState,
    ZERO_ESCAPEMENT,
    derived_constants,
    identical_pendula,
    params_from_dimensionless,
    psi1,
    psi1_approx,
    psi2,
    psi2_approx,
    reduce_params,
    to_q_form,
    to_y_form,
)
from .dynamics import (
    CrossCheckError,
    DampingModel,
    StiffnessError,
    Trajectory,
    accel_q,
    accel_y,
    energy,
    generalized_damping,
    integrate,
    theta_factor,
)
from .linear_analysis import (
    ClosedFormSolution,
    FundamentalFrequencies,
    LinearMatrices,
    amplitude_profiles,
    closed_form,
    coupling_b,
    delta_closed_form,
    eval_closed_form,
    fundamental_frequencies,
    linearize_frictionless,
    periodicity_params,
    perturbation_p,
)
from .spectral import (
    EKInapplicableError,
    GershgorinDisc,
    PolyCoeffs,
    RouthHurwitzReport,
    SpectrumReport,
    char_poly_general,
    char_poly_identical,
    ek_ratios,
    enestrom_kakeya,
    gershgorin,
    linear_system,
    poly_roots,
    routh_hurwitz,
    spectrum_report,
)
from .regions import (
    BranchUnsupportedError,
    GridSpec,
    QuadrantPoint,
    RegionMap,
    RegionVerdict,
    antiphase_conditions,
    classify_zone,
    complex_root_bound,
    conic_conditions,
    empirical_decay_rates,
    mu_threshold,
    no_inphase_check,
    region_map,
    semicircle_condition,
)

__version__ = "0.1.0"
