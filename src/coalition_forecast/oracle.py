"""Brute-force ground truth at desk scale.

Everything here works by enumerating coalition structures outright, never
through the closed-form weights, so it can referee them. The exhaustive
best-structure search doubles as a diagnostic companion to the distance
prediction.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import lru_cache

from .combinatorics import (
    PartitionStats,
    SetPartition,
    _check_cap,
    _rgs_prefixes,
    build_bell_table,
    partition_stats,
)
from .errors import TooManySamples
from .predictor import average_worth, predict
from .worth import (
    CharacteristicFunction,
    SymmetricWorth,
    SymmetryViolation,
    dyadic,
    float_or_none,
    reduce_to_symmetric,
)

MAX_TRIALS = 1_000_000  # the bound of replicator.MAX_SAMPLES, for oracle_suite's trials


def _scan_stats(m: int) -> PartitionStats:
    """Block-size and fixed-agent counts, one enumerated partition at a time.

    A prefix with block sizes s_j = masks[j].bit_count() has nb + 1
    completions: the one where the last element joins block j has s_j + 1
    in place of s_j, and the last one adds a singleton. So every s_j
    appears in nb of them and s_j + 1 in one. Element 0 sits in block 0.
    """
    multiplicity = [0] * (m + 1)
    choice_counts = [0] * (m + 1)
    for _, masks, nb in _rgs_prefixes(m):
        for mask in masks[:nb]:
            size = mask.bit_count()
            multiplicity[size] += nb
            multiplicity[size + 1] += 1
        multiplicity[1] += 1
        first = masks[0].bit_count()
        choice_counts[first] += nb
        choice_counts[first + 1] += 1
    return PartitionStats(
        m=m,
        multiplicity=tuple(multiplicity[1:]),
        choice_counts=tuple(choice_counts[1:]),
    )


_cached_stats = lru_cache(maxsize=None)(_scan_stats)


def brute_force_average(worth: SymmetricWorth, cap: int | None = None) -> float:
    """Mean per-agent worth over every enumerated coalition structure.

    Each structure contributes the sum of its block worths divided by m.
    Summed over all structures, that is sum_k mult_k v(k) / (m * count),
    with the enumerated block-size multiplicities and structure count of a
    per-m cached scan. The sum is exact, so the result is the correctly
    rounded float of the true mean.
    """
    m = worth.m
    _check_cap(m, cap)
    stats = _cached_stats(m)
    numerators, den = dyadic(worth.by_size)
    total = sum(n * mult for n, mult in zip(numerators, stats.multiplicity))
    return total / (den * m * sum(stats.choice_counts))  # int / int rounds correctly


def brute_force_multiplicities(m: int, cap: int | None = None) -> PartitionStats:
    """Block-size and fixed-agent counts recomputed by raw enumeration."""
    _check_cap(m, cap)
    return _scan_stats(m)


@dataclass(frozen=True)
class OptimalStructureResult:
    """Best coalition structure found by exhaustive scan."""

    partition: SetPartition
    total_worth: float | None  # None when the exact total lies beyond the float range
    predicted_size: int | None  # distance prediction, when the game is symmetric


def optimal_structure(cf: CharacteristicFunction, cap: int | None = None) -> OptimalStructureResult:
    """Exhaustive search for the structure maximizing total block worth.

    Totals are summed exactly, as integers over one power-of-two
    denominator, so ties are exact and break to the first maximizer in
    enumeration order; total_worth is the correctly rounded float of the
    best total. Symmetry is not required for the scan; when the game is
    symmetric the distance prediction is attached for side-by-side
    comparison.
    """
    m = cf.m
    _check_cap(m, cap)
    numerators, den = dyadic(cf.entries[mask] for mask in range(1, 1 << m))
    worth = [0] + numerators  # worth[mask] * den, exact; the empty block is worth 0
    last = 1 << (m - 1)
    alone = worth[last]
    best_total = -sum(map(abs, numerators)) - 1  # below every structure's total
    for labels, masks, nb in _rgs_prefixes(m):
        total = sum([worth[mask] for mask in masks])
        for j, mask in enumerate(masks[:nb]):
            joined = total - worth[mask] + worth[mask | last]
            if joined > best_total:
                best_total, best_labels = joined, (*labels, j)
        if total + alone > best_total:
            best_total, best_labels = total + alone, (*labels, nb)

    try:
        symmetric = reduce_to_symmetric(cf)
        bell = build_bell_table(m)
        predicted = predict(symmetric, bell).chosen_size
    except SymmetryViolation:
        predicted = None
    return OptimalStructureResult(
        partition=SetPartition(labels=best_labels),
        total_worth=float_or_none(best_total, den),
        predicted_size=predicted,
    )


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the oracle suite for one m."""

    m: int
    trials: int
    seed: int
    partitions_enumerated: int
    bell_value: int
    count_matches: bool
    multiplicity_matches: bool
    choice_counts_match: bool
    max_average_rel_err: float
    averages_match: bool

    @property
    def passed(self) -> bool:
        return (self.count_matches and self.multiplicity_matches
                and self.choice_counts_match and self.averages_match)

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _relative_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def oracle_suite(m: int, trials: int = 1000, seed: int = 0,
                 cap: int | None = None) -> VerificationReport:
    """Run the full enumeration-vs-closed-form check for one m.

    Compares enumerated block counts against the closed forms, and the
    brute-force average against the weighted-mean average on `trials` worth
    vectors drawn uniform on [-1, 1] per coordinate. The brute-force average
    reads the enumerated multiplicities, so once count_matches and
    multiplicity_matches hold, both averages round the same exact ratio and
    averages_match cannot fail: the trials only confirm that regrouping.
    Counts and trials read one cached walk, taken after the trials and cap checks.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if trials > MAX_TRIALS:
        raise TooManySamples(f"{trials} trials exceed the bound of {MAX_TRIALS}")
    _check_cap(m, cap)
    enumerated = _cached_stats(m)  # the walk the trials' brute_force_average reads
    bell = build_bell_table(m)
    closed = partition_stats(m, bell)
    n_partitions = sum(enumerated.choice_counts)

    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        w = SymmetricWorth(m=m, by_size=tuple(rng.uniform(-1.0, 1.0) for _ in range(m)))
        gap = _relative_gap(brute_force_average(w, cap=cap), average_worth(w, bell))
        worst = max(worst, gap)

    return VerificationReport(
        m=m,
        trials=trials,
        seed=seed,
        partitions_enumerated=n_partitions,
        bell_value=bell[m],
        count_matches=(n_partitions == bell[m]),
        multiplicity_matches=(enumerated.multiplicity == closed.multiplicity),
        choice_counts_match=(enumerated.choice_counts == closed.choice_counts),
        max_average_rel_err=worst,
        averages_match=(worst == 0.0),
    )
