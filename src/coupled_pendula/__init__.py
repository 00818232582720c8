"""Two damped pendula on a spring-restrained sliding beam.

Models the coupled beam-pendula system, analyzes the spectrum of its
linearization (Routh-Hurwitz stability, Eneström-Kakeya annulus,
Gershgorin discs), and classifies the dimensionless parameter quadrant
into regions where antiphase synchronization is facilitated or
inhibited, cross-validated against direct nonlinear simulation.

The package's public names are listed in ``_EXPORTS`` and loaded on
first use: importing the package runs none of its modules, and importing
one module runs only what that module imports, so a command loads only
what it runs.  The first public name asked of the package imports every
module in the table, in its order, and binds all the table's names, so
``from coupled_pendula import X`` sees the whole library in place.
"""

__version__ = "0.1.0"

#: Each module, in load order, and the public names the package takes from
#: it; each name is in that module's ``__all__``.  ``verification`` exports
#: nothing here but loads with the rest.
_EXPORTS = {
    "params": (
        "DerivedConstants", "ParamError", "PhysicalParams", "ReducedParams", "SystemState",
        "derived_constants", "identical_pendula", "params_from_dimensionless",
        "reduce_params", "CrossCheckError", "DampingModel", "StiffnessError", "GridSpec",
    ),
    "dynamics": ("Trajectory", "accel_q", "accel_y", "energy", "integrate"),
    "linear_analysis": (
        "ClosedFormSolution", "FundamentalFrequencies", "amplitude_profiles", "closed_form",
        "coupling_b", "delta_closed_form", "fundamental_frequencies", "periodicity_params",
        "perturbation_p",
    ),
    "spectral": (
        "EKInapplicableError", "RouthHurwitzReport", "char_poly_general",
        "char_poly_identical", "enestrom_kakeya", "gershgorin", "linear_system",
        "poly_roots", "routh_hurwitz", "spectrum_report",
    ),
    "regions": (
        "BranchUnsupportedError", "QuadrantPoint", "RegionMap", "antiphase_conditions",
        "classify_zone", "complex_root_bound", "conic_conditions", "empirical_decay_rates",
        "region_map", "semicircle_condition",
    ),
    "verification": (),
}

_PUBLIC = frozenset(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):
    # Called only for a name the module does not bind yet; a submodule name
    # falls through to the import system, which binds it on import.
    if name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    for module, names in _EXPORTS.items():
        loaded = import_module(f".{module}", __name__)
        globals().update((n, getattr(loaded, n)) for n in names)
    return globals()[name]
