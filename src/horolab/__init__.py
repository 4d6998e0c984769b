"""Numerical laboratory for backward-orbit cocycles of z**2 + epsilon.

The package studies full backward orbits converging to the repelling
fixed point a: orbit words, the certified series for the height cocycle
between two such orbits, the resulting height sets and their density
structure, the additive semigroup of cocycle values, and the certified
disk geometry (sigma, delta) that turns the sign law into a
quantitative lower bound, all for the quadratic family.  The parameter
epsilon is the map's only handle: words, the cocycle, Julia samples,
periodic points and the linearizer all take it.
The public names and submodules are imported on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("cli", "cocycle", "errors", "julia", "maps", "orbits", "periodic", "quadratic", "reports", "suite")

# public name -> the module that defines it
_DEFINED_IN = {
    "CocycleValue": "cocycle",
    "DensityReport": "cocycle",
    "ProgressionReport": "cocycle",
    "basic_cocycle": "cocycle",
    "cocycle_field": "cocycle",
    "cocycle_vs_fixed": "cocycle",
    "height_set": "cocycle",
    "make_density_report": "cocycle",
    "progression_density_check": "cocycle",
    "series_terms": "cocycle",
    "values_vs_fixed": "cocycle",
    "ConfigError": "errors",
    "ConstructionError": "errors",
    "DegenerateBranchError": "errors",
    "DepthBudgetError": "errors",
    "DivergentWordError": "errors",
    "DomainError": "errors",
    "HorolabError": "errors",
    "PreconditionError": "errors",
    "RootFindingError": "errors",
    "SingularTermError": "errors",
    "SuiteFailureError": "errors",
    "JuliaSample": "julia",
    "inverse_iteration_sample": "julia",
    "evaluate": "maps",
    "quadratic_map": "maps",
    "OrbitWord": "orbits",
    "PiMembership": "orbits",
    "RealizedOrbit": "orbits",
    "concatenate": "orbits",
    "fixed_word": "orbits",
    "is_in_Pi_a": "orbits",
    "realize": "orbits",
    "shift": "orbits",
    "CollinearityReport": "periodic",
    "Linearizer": "periodic",
    "PeriodicPoint": "periodic",
    "base_point": "periodic",
    "build_linearizer": "periodic",
    "classify": "periodic",
    "collinearity_in_linearizer": "periodic",
    "fixed_point_a": "periodic",
    "list_1_1_member": "periodic",
    "make_periodic_point": "periodic",
    "periodic_points": "periodic",
    "preimage_points": "periodic",
    "BoundCheck": "quadratic",
    "ContainmentReport": "quadratic",
    "ExcursionStats": "quadratic",
    "ExtremalityReport": "quadratic",
    "LimitDecomposition": "quadratic",
    "SigmaDelta": "quadratic",
    "bound_checks": "quadratic",
    "branch_exceptional": "quadratic",
    "build_B_epsilon": "quadratic",
    "cocycle_lower_bound_check": "quadratic",
    "default_sigma_delta": "quadratic",
    "derivative_extremality_check": "quadratic",
    "disk_containment_check": "quadratic",
    "excursion_stats": "quadratic",
    "family_word": "quadratic",
    "find_sigma": "quadratic",
    "find_sigma_delta": "quadratic",
    "limit_decomposition_check": "quadratic",
    "lower_bound": "quadratic",
    "nested_decomposition_check": "quadratic",
    "normalize_word": "quadratic",
    "sample_words": "quadratic",
    "sampled_heights": "quadratic",
    "value_sums": "quadratic",
}

__all__ = sorted(_DEFINED_IN)


def __getattr__(name: str):
    """The public name or submodule, imported on access.  A public name
    is looked up in its module on every access and never bound here, so
    what its module binds (a patched function too) is what it gives."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _DEFINED_IN:
        return getattr(importlib.import_module(f"{__name__}.{_DEFINED_IN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
