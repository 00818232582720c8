"""Two damped pendula on a spring-restrained sliding beam.

Models the coupled beam-pendula system, analyzes the spectrum of its
linearization (Routh-Hurwitz stability, Eneström-Kakeya annulus,
Gershgorin discs), and classifies the dimensionless parameter quadrant
into regions where antiphase synchronization is facilitated or
inhibited, cross-validated against direct nonlinear simulation.
"""

from .params import (
    DerivedConstants,
    ParamError,
    PhysicalParams,
    ReducedParams,
    SystemState,
    derived_constants,
    identical_pendula,
    params_from_dimensionless,
    reduce_params,
)
from .dynamics import (
    CrossCheckError,
    DampingModel,
    StiffnessError,
    Trajectory,
    accel_q,
    accel_y,
    energy,
    integrate,
)
from .linear_analysis import (
    ClosedFormSolution,
    FundamentalFrequencies,
    amplitude_profiles,
    closed_form,
    coupling_b,
    delta_closed_form,
    fundamental_frequencies,
    periodicity_params,
    perturbation_p,
)
from .spectral import (
    EKInapplicableError,
    RouthHurwitzReport,
    char_poly_general,
    char_poly_identical,
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
    antiphase_conditions,
    classify_zone,
    complex_root_bound,
    conic_conditions,
    empirical_decay_rates,
    region_map,
    semicircle_condition,
)

__version__ = "0.1.0"
