"""Exact census of hyperbolic SL2(Z) conjugacy classes by trace residue.

The package counts primitive-unit weighted class numbers along trace
lines, reduces traces mod p, and compares the resulting residue masses
against closed-form conjugacy data for SL2(F_p).
"""

__version__ = "0.1.0"

from .analysis import (
    ClassReport,
    DensityReport,
    ExponentFit,
    class_report,
    density_error_series,
    density_report,
    error_exponent_fit,
)
from .census import (
    CensusResult,
    RunConfig,
    required_table_limit,
    run_census,
    trace_bound,
    trace_decompositions,
)
from . import lfunctions  # noqa: F401
from .numtheory import SpfTable, build_spf_table, factorize, kronecker, valid_discriminant
from .sl2fp import (
    ConjClass,
    class_list,
    class_mass,
    classify,
    group_order,
    predicted_density,
    trace_mass,
)

__all__ = [
    "CensusResult",
    "ClassReport",
    "ConjClass",
    "DensityReport",
    "ExponentFit",
    "RunConfig",
    "SpfTable",
    "__version__",
    "build_spf_table",
    "class_list",
    "class_mass",
    "class_report",
    "classify",
    "density_error_series",
    "density_report",
    "error_exponent_fit",
    "factorize",
    "group_order",
    "kronecker",
    "predicted_density",
    "required_table_limit",
    "run_census",
    "trace_bound",
    "trace_decompositions",
    "trace_mass",
    "valid_discriminant",
]
