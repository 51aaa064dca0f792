"""Coalition-structure prediction for outsider agents.

Given the worths of outsider coalitions by size, this package computes
the structure-uniform average worth, builds the per-size equilibrium
hyperplanes, predicts the coalition size a representative outsider joins
by minimum normalized distance, and simulates the underlying replicator
dynamics. A brute-force set-partition oracle cross-checks every closed
form at desk scale.
"""

from .combinatorics import (
    BellTable,
    EnumerationTooLarge,
    PartitionStats,
    SetPartition,
    build_bell_table,
    enumerate_partitions,
    partition_stats,
)
from .oracle import (
    OptimalStructureResult,
    VerificationReport,
    brute_force_average,
    brute_force_multiplicities,
    optimal_structure,
    oracle_suite,
)
from .predictor import (
    HyperplaneSystem,
    PredictionReport,
    average_worth,
    distances,
    evaluate_planes,
    hyperplane_system,
    predict,
    residuals,
)
from .replicator import (
    DynamicsConfig,
    IntegrationError,
    Mode,
    ReplicatorState,
    RestPointReport,
    Trajectory,
    initial_frequencies,
    integrate,
    rest_point_check,
    uniform_frequencies,
    vector_field,
)
from .worth import (
    CharacteristicFunction,
    SymmetricWorth,
    SymmetryViolation,
    characteristic_from_coalitions,
    expand_to_characteristic,
    per_capita_vector,
    reduce_to_symmetric,
)

__all__ = [
    "BellTable",
    "CharacteristicFunction",
    "DynamicsConfig",
    "EnumerationTooLarge",
    "HyperplaneSystem",
    "IntegrationError",
    "Mode",
    "OptimalStructureResult",
    "PartitionStats",
    "PredictionReport",
    "ReplicatorState",
    "RestPointReport",
    "SetPartition",
    "SymmetricWorth",
    "SymmetryViolation",
    "Trajectory",
    "VerificationReport",
    "average_worth",
    "brute_force_average",
    "brute_force_multiplicities",
    "build_bell_table",
    "characteristic_from_coalitions",
    "distances",
    "enumerate_partitions",
    "evaluate_planes",
    "expand_to_characteristic",
    "hyperplane_system",
    "initial_frequencies",
    "integrate",
    "optimal_structure",
    "oracle_suite",
    "partition_stats",
    "per_capita_vector",
    "predict",
    "rest_point_check",
    "reduce_to_symmetric",
    "residuals",
    "uniform_frequencies",
    "vector_field",
]

__version__ = "0.1.0"
