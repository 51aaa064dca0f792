"""Brute-force ground truth at desk scale.

Everything here works by enumerating coalition structures outright, never
through the closed-form weights, so it can referee them. The exhaustive
best-structure search doubles as a diagnostic companion to the distance
prediction.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache

from .combinatorics import (PartitionStats, SetPartition, _rgs_prefixes, build_bell_table,
                            partition_stats)
from .errors import MAX_SAMPLES, TooManySamples
from .predictor import average_worth, predict
from .worth import (CharacteristicFunction, SymmetricWorth, SymmetryViolation, dyadic,
                    float_or_none, reduce_to_symmetric)

def brute_force_multiplicities(m: int) -> PartitionStats:
    """Block-size and fixed-agent counts recomputed by raw enumeration, one prefix at a time.

    A prefix with block sizes s_j = masks[j].bit_count() has nb + 1
    completions: the one where the last element joins block j has s_j + 1
    in place of s_j, and the last one adds a singleton. So every s_j
    appears in nb of them and s_j + 1 in one. Element 0 sits in block 0.
    """
    prefixes = _rgs_prefixes(m)  # checks m before the count lists grow with it
    multiplicity = [0] * (m + 1)
    choice_counts = [0] * (m + 1)
    for _, masks, nb in prefixes:
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


_cached_stats = lru_cache(maxsize=None)(brute_force_multiplicities)


def brute_force_average(worth: SymmetricWorth) -> float:
    """Mean per-agent worth over every enumerated coalition structure.

    Each structure contributes the sum of its block worths divided by m.
    Summed over all structures, that is sum_k mult_k v(k) / (m * count),
    with the enumerated block-size multiplicities and structure count of a
    per-m cached scan. The sum is exact, so the result is the correctly
    rounded float of the true mean.
    """
    return _mean_worth(worth, _cached_stats(worth.m))


def _mean_worth(worth: SymmetricWorth, stats: PartitionStats) -> float:
    numerators, den = dyadic(worth.by_size)
    total = sum(n * mult for n, mult in zip(numerators, stats.multiplicity))
    return total / (den * worth.m * sum(stats.choice_counts))  # int / int rounds correctly


class OptimalStructureResult(namedtuple("OptimalStructureResult",
                                        "partition total_worth predicted_size")):
    """Best coalition structure found by exhaustive scan; total_worth is None beyond the float
    range, and predicted_size, the distance prediction, is None for an asymmetric game."""

    __slots__ = ()


def optimal_structure(cf: CharacteristicFunction) -> OptimalStructureResult:
    """Exhaustive search for the structure maximizing total block worth.

    Totals are summed exactly, as integers over one power-of-two
    denominator, so ties are exact and break to the first maximizer in
    enumeration order; total_worth is the correctly rounded float of the
    best total. Symmetry is not required for the scan; when the game is
    symmetric the distance prediction is attached for side-by-side
    comparison.
    """
    m = cf.m
    prefixes = _rgs_prefixes(m)  # checks m before the 2^m worths are read
    numerators, den = dyadic(cf.entries[mask] for mask in range(1, 1 << m))
    worth = [0] + numerators  # worth[mask] * den, exact; the empty block is worth 0
    last = 1 << (m - 1)
    alone = worth[last]
    best_total = -sum(map(abs, numerators)) - 1  # below every structure's total
    for labels, masks, nb in prefixes:
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


class VerificationReport(namedtuple("VerificationReport", "m trials seed partitions_enumerated "
                                    "bell_value count_matches multiplicity_matches "
                                    "choice_counts_match max_average_rel_err averages_match")):
    """Outcome of the oracle suite for one m."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (self.count_matches and self.multiplicity_matches
                and self.choice_counts_match and self.averages_match)


def _relative_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def oracle_suite(m: int, trials: int = 1000, seed: int = 0) -> VerificationReport:
    """Run the full enumeration-vs-closed-form check for one m.

    Compares enumerated block counts against the closed forms, and the
    brute-force average against the weighted-mean average on `trials` worth
    vectors drawn uniform on [-1, 1] per coordinate. The brute-force average
    reads the enumerated multiplicities, so once count_matches and
    multiplicity_matches hold, both averages round the same exact ratio and
    averages_match cannot fail: the trials only confirm that regrouping.
    Counts and trials read one cached walk. After the trials check, its walker
    refuses m past errors.MAX_ENUMERATION_M (12), a bound that no argument moves.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if trials > MAX_SAMPLES:
        raise TooManySamples(f"{trials} trials exceed the bound of {MAX_SAMPLES}")
    enumerated = _cached_stats(m)  # the one walk: counts and trials read it
    bell = build_bell_table(m)
    closed = partition_stats(m, bell)
    n_partitions = sum(enumerated.choice_counts)

    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        w = SymmetricWorth(m=m, by_size=tuple(rng.uniform(-1.0, 1.0) for _ in range(m)))
        gap = _relative_gap(_mean_worth(w, enumerated), average_worth(w, bell))
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
