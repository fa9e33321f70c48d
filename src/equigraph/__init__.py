"""Exact equienergy analysis of regular graphs and their complements.

The public names are re-exported from the modules that define them.  A
module runs the first time one of its names is read (PEP 562), so
``import equigraph.cli`` runs only the modules the CLI itself imports.
A module that uses a layer in only some of its functions binds it
through ``_lazy_module``, so the layer runs at the first read of a name.
"""

import importlib.util
import sys
from types import ModuleType

__version__ = "0.1.0"

# the re-exported names of each module
_EXPORTS = {
    "exact": (
        "ExactValue",
        "Surd",
        "exact_sum",
    ),
    "spectra": (
        "DiscrepancyBreakdown",
        "Eig",
        "EquienReport",
        "Spectrum",
        "UncertifiableBranch",
        "check_equienergetic",
        "complement_spectrum",
        "discrepancy",
        "energy",
        "spectra_match",
    ),
    "srg": (
        "CaseB",
        "CaseC",
        "Conference",
        "InfeasibleParams",
        "NotEquien",
        "SrgParams",
        "classify",
        "complement_params",
        "eigen_data",
        "energy_closed",
        "enumerate_equien",
        "equien_condition",
        "family_params",
        "gp_spectrum",
        "oa_params",
    ),
    "rings": (
        "RingProfile",
        "equien_check",
        "search_field_products",
        "subset_sums",
        "unitary_spectrum",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def _lazy_module(name: str) -> ModuleType:
    """The package's module ``name``, entered in ``sys.modules`` and bound on
    the package as ``import`` does, whose body runs on the first read of an
    attribute; the module already there, if it was imported before."""
    fullname = f"{__name__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    globals()[name] = module
    return module


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
