"""Coalition-structure prediction for outsider agents.

Given the worths of outsider coalitions by size, this package computes
the structure-uniform average worth, builds the per-size equilibrium
hyperplanes, predicts the coalition size a representative outsider joins
by minimum normalized distance, and simulates the underlying replicator
dynamics. A brute-force set-partition oracle cross-checks every closed
form at desk scale.

Public names load lazily (PEP 562): importing the package loads no
submodule, and the first use of a name imports the module that defines it,
so a one-shot CLI call pays only for the modules its command runs.
"""

from importlib import import_module

# public name -> the submodule that defines it; __all__ keeps this order
_HOMES = {
    "BellTable": "combinatorics",
    "CharacteristicFunction": "worth",
    "DynamicsConfig": "replicator",
    "EnumerationTooLarge": "errors",
    "HyperplaneSystem": "predictor",
    "IntegrationError": "errors",
    "Mode": "replicator",
    "OptimalStructureResult": "oracle",
    "PartitionStats": "combinatorics",
    "PredictionReport": "predictor",
    "ReplicatorState": "replicator",
    "RestPointReport": "replicator",
    "SetPartition": "combinatorics",
    "SymmetricWorth": "worth",
    "SymmetryViolation": "errors",
    "Trajectory": "replicator",
    "VerificationReport": "oracle",
    "average_worth": "predictor",
    "brute_force_average": "oracle",
    "brute_force_multiplicities": "oracle",
    "build_bell_table": "combinatorics",
    "characteristic_from_coalitions": "worth",
    "distances": "predictor",
    "enumerate_partitions": "combinatorics",
    "evaluate_planes": "predictor",
    "hyperplane_system": "predictor",
    "initial_frequencies": "replicator",
    "integrate": "replicator",
    "optimal_structure": "oracle",
    "oracle_suite": "oracle",
    "partition_stats": "combinatorics",
    "per_capita_vector": "worth",
    "predict": "predictor",
    "rest_point_check": "replicator",
    "reduce_to_symmetric": "worth",
    "uniform_frequencies": "replicator",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name or submodule, imported on first use and then kept as a global."""
    if name in _HOMES:
        value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    elif name in _HOMES.values():
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
