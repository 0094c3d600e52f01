"""Perturbative scattering phase shifts for 1-D Schrodinger problems.

The pipeline: define potentials on a grid (:mod:`phaseshift.potential`),
solve the reference wave (:mod:`phaseshift.refwave`), iterate the correction
hierarchy (:mod:`phaseshift.hierarchy`), assemble the phase series through
partition combinatorics (:mod:`phaseshift.partitions`,
:mod:`phaseshift.series`), and validate against closed-form low orders
(:mod:`phaseshift.cross_check`) and an exact ODE oracle
(:mod:`phaseshift.oracle`).  :mod:`phaseshift.cli` wraps it all in a
config-driven batch tool.
"""

from .errors import (
    ConfigInvalid,
    DegenerateSweep,
    EvenPointCount,
    GridMismatch,
    InsufficientFValues,
    NonFiniteResult,
    NonpositiveK,
    OrderOutOfRange,
    PhaseshiftError,
    TabulatedGridMismatch,
    TruncationTooHigh,
    WronskianViolation,
)
from .potential import (
    ComplexGridFunction,
    Grid,
    PotentialSpec,
    cumulative_from_right,
    sample_potential,
    simpson_weights,
)
from .refwave import ReferenceWave, analytic_free_reference, solve_reference
from .hierarchy import (HierarchyResult, compute_hierarchy,
                        step_by_double_integral)
from .partitions import (
    MAX_ORDER,
    PartitionTuple,
    enumerate_partitions,
)
from .series import (
    PhaseSeries,
    assemble_delta_n,
    assemble_series,
    divergence_flag,
    evaluate_truncated,
    log_expansion_reference,
)
from .cross_check import (
    NestedIntegrandSet,
    delta1_direct,
    delta2_direct,
    delta3_direct,
    integrand_factors,
    nested_integral,
)
from .oracle import (
    ConvergenceReport,
    OracleResult,
    TruncationCheck,
    convergence_order_check,
    solve_exact,
    sweep_exact,
)
from .cli import JobConfig, parse_config, run

__version__ = "0.1.0"

__all__ = [
    "ComplexGridFunction",
    "ConfigInvalid",
    "ConvergenceReport",
    "DegenerateSweep",
    "EvenPointCount",
    "Grid",
    "GridMismatch",
    "HierarchyResult",
    "InsufficientFValues",
    "JobConfig",
    "MAX_ORDER",
    "NestedIntegrandSet",
    "NonFiniteResult",
    "NonpositiveK",
    "OracleResult",
    "OrderOutOfRange",
    "PartitionTuple",
    "PhaseSeries",
    "PhaseshiftError",
    "PotentialSpec",
    "ReferenceWave",
    "TabulatedGridMismatch",
    "TruncationCheck",
    "TruncationTooHigh",
    "WronskianViolation",
    "analytic_free_reference",
    "assemble_delta_n",
    "assemble_series",
    "compute_hierarchy",
    "convergence_order_check",
    "cumulative_from_right",
    "delta1_direct",
    "delta2_direct",
    "delta3_direct",
    "divergence_flag",
    "enumerate_partitions",
    "evaluate_truncated",
    "integrand_factors",
    "log_expansion_reference",
    "nested_integral",
    "parse_config",
    "run",
    "sample_potential",
    "simpson_weights",
    "solve_exact",
    "solve_reference",
    "step_by_double_integral",
    "sweep_exact",
    "__version__",
]
