"""Two damped pendula on a spring-restrained sliding beam.

Models the coupled beam-pendula system, analyzes the spectrum of its
linearization (Routh-Hurwitz stability, Eneström-Kakeya annulus,
Gershgorin discs), and classifies the dimensionless parameter quadrant
into regions where antiphase synchronization is facilitated or
inhibited, cross-validated against direct nonlinear simulation.

The package exports each library module's ``__all__`` and loads it on
first use: importing the package runs none of its modules, and a
submodule name (``from coupled_pendula import params``, say) loads only
that submodule, so a command loads only what it runs.  The first public
name asked of the package imports every module in ``_MODULES``, in its
order, and binds their ``__all__`` names, so ``from coupled_pendula
import X`` sees the whole library in place.
"""

__version__ = "0.1.0"

#: The library modules, in load order; ``verification`` exports nothing.
_MODULES = ("params", "dynamics", "linear_analysis", "spectral", "regions", "verification")


def __getattr__(name):
    # Called only for a name the module does not bind yet.  A private or
    # submodule name fails at once, and the import system loads just that
    # submodule; any other name loads the library first.
    if not (name.startswith("_") or name in _MODULES or name == "cli"):
        from importlib import import_module

        for module in _MODULES:
            loaded = import_module(f".{module}", __name__)
            globals().update((n, getattr(loaded, n)) for n in getattr(loaded, "__all__", ()))
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
