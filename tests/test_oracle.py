"""Brute-force enumeration oracle vs the closed forms it referees."""

import random
from fractions import Fraction

import numpy as np
import pytest

from coalition_forecast import oracle
from coalition_forecast.combinatorics import (
    EnumerationTooLarge,
    build_bell_table,
    enumerate_partitions,
    partition_stats,
)
from coalition_forecast.errors import TooManySamples
from coalition_forecast.oracle import (
    brute_force_average,
    brute_force_multiplicities,
    optimal_structure,
    oracle_suite,
)
from coalition_forecast.predictor import average_worth
from coalition_forecast.worth import CharacteristicFunction, SymmetricWorth
from partition_reference import blocks, rgs

SYNERGY = SymmetricWorth(m=3, by_size=(0.0, 1.0, 1.0))


def reference_multiplicities(m):
    multiplicity = [0] * m
    choice_counts = [0] * m
    for labels in rgs(m):
        sizes = [labels.count(b) for b in range(max(labels) + 1)]
        for size in sizes:
            multiplicity[size - 1] += 1
        choice_counts[sizes[0] - 1] += 1
    return tuple(multiplicity), tuple(choice_counts)


def reference_optimum(m, entries):
    """First maximizer of the exact Fraction total, in enumeration order."""
    best = None
    for labels in rgs(m):
        masks = [0] * (max(labels) + 1)
        for elem, lab in enumerate(labels):
            masks[lab] |= 1 << elem
        total = sum(Fraction(entries[mask]) for mask in masks)
        if best is None or total > best[0]:
            best = (total, labels)
    return best


class TestBruteForceAverage:
    def test_synergy_game(self):
        # structures score (0, 1, 1, 1, 1); per-agent averages mean to 4/15
        assert brute_force_average(SYNERGY) == pytest.approx(4 / 15, rel=1e-15)

    def test_single_outsider(self):
        assert brute_force_average(SymmetricWorth(m=1, by_size=(7.5,))) == 7.5

    def test_only_singletons_contribute(self):
        worth = SymmetricWorth(m=3, by_size=(1.0, 0.0, 0.0))
        assert brute_force_average(worth) == pytest.approx(6 / 15, rel=1e-15)

    def test_cap_enforced(self):
        worth = SymmetricWorth(m=13, by_size=(0.0,) * 13)
        with pytest.raises(EnumerationTooLarge):
            brute_force_average(worth)
        with pytest.raises(EnumerationTooLarge):
            brute_force_average(SymmetricWorth(m=5, by_size=(0.0,) * 5), cap=4)

    def test_cap_argument_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("COALITION_FORECAST_ENUM_CAP", "4")
        oracle._cached_stats.cache_clear()  # make the call below run its scan
        worth = SymmetricWorth(m=5, by_size=(1.0, 0.0, 0.0, 0.0, 0.0))
        # a fixed agent is a singleton in B_4 = 15 of the B_5 = 52 structures
        assert brute_force_average(worth, cap=5) == 15 / 52

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_closed_form_on_random_vectors(self, m):
        bell = build_bell_table(m)
        rng = np.random.default_rng(2024)
        for _ in range(100):
            worth = SymmetricWorth(m=m, by_size=tuple(rng.uniform(-1, 1, size=m)))
            bf = brute_force_average(worth)
            cf = average_worth(worth, bell)
            assert abs(bf - cf) <= 1e-12 * max(abs(bf), abs(cf), 1e-300)


class TestBruteForceMultiplicities:
    def test_m3(self):
        stats = brute_force_multiplicities(3)
        assert stats.multiplicity == (6, 3, 1)
        assert stats.choice_counts == (2, 2, 1)

    def test_m2(self):
        stats = brute_force_multiplicities(2)
        assert stats.multiplicity == (2, 1)
        assert stats.choice_counts == (1, 1)

    def test_m1(self):
        stats = brute_force_multiplicities(1)
        assert stats.multiplicity == (1,)
        assert stats.choice_counts == (1,)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_equals_closed_form(self, m):
        assert brute_force_multiplicities(m) == partition_stats(m, build_bell_table(m))

    @pytest.mark.parametrize("m", range(1, 10))
    def test_equals_reference_scan(self, m):
        stats = brute_force_multiplicities(m)
        assert (stats.multiplicity, stats.choice_counts) == reference_multiplicities(m)


class TestOptimalStructure:
    def test_synergy_first_maximizer(self):
        cf = CharacteristicFunction(
            m=3, entries={mask: 0.0 if mask.bit_count() == 1 else 1.0 for mask in range(1, 8)}
        )
        result = optimal_structure(cf)
        # several structures reach worth 1; the grand coalition enumerates first
        assert result.total_worth == 1.0
        assert result.partition.labels == (0, 0, 0)
        assert result.predicted_size == 3

    def test_superadditive_squares(self):
        cf = CharacteristicFunction(
            m=3, entries={mask: float(mask.bit_count() ** 2) for mask in range(1, 8)}
        )
        result = optimal_structure(cf)
        assert result.total_worth == 9.0
        assert result.partition.labels == (0, 0, 0)

    def test_single_outsider(self):
        cf = CharacteristicFunction(m=1, entries={1: 4.25})
        result = optimal_structure(cf)
        assert result.total_worth == 4.25
        assert result.partition.labels == (0,)

    def test_asymmetric_game_accepted(self):
        cf = CharacteristicFunction(m=2, entries={1: 5.0, 2: 0.0, 3: 1.0})
        result = optimal_structure(cf)
        assert result.partition.labels == (0, 1)
        assert result.total_worth == 5.0
        assert result.predicted_size is None

    def test_beats_every_enumerated_structure(self):
        rng = np.random.default_rng(11)
        entries = {mask: float(rng.uniform(-2, 2)) for mask in range(1, 16)}
        cf = CharacteristicFunction(m=4, entries=entries)
        best = optimal_structure(cf)
        for part in enumerate_partitions(4):
            total = sum(
                entries[sum(1 << e for e in block)] for block in blocks(part.labels)
            )
            assert best.total_worth >= total

    @pytest.mark.parametrize("m", range(1, 8))
    @pytest.mark.parametrize("integer_valued", [False, True], ids=["float", "integer"])
    def test_matches_exact_reference(self, m, integer_valued):
        # integer-valued games are full of ties, which go to the first maximizer
        for seed in range(3):
            rng = random.Random(f"{m}/{seed}/{integer_valued}")
            entries = {mask: float(rng.randint(-2, 2)) if integer_valued else rng.uniform(-2, 2)
                       for mask in range(1, 1 << m)}
            total, labels = reference_optimum(m, entries)
            result = optimal_structure(CharacteristicFunction(m=m, entries=entries))
            assert result.partition.labels == labels
            assert result.total_worth == float(total)

    def test_decision_is_exact(self):
        # 1.0 + 2**-53 rounds to 1.0, which would tie (0, 0) and keep it
        cf = CharacteristicFunction(m=2, entries={1: 1.0, 2: 2.0 ** -53, 3: 1.0})
        result = optimal_structure(cf)
        assert result.partition.labels == (0, 1)
        assert result.total_worth == 1.0

    def test_total_beyond_float_range_is_none(self):
        cf = CharacteristicFunction(m=2, entries={1: 1.7e308, 2: 1.7e308, 3: 0.0})
        result = optimal_structure(cf)
        assert result.partition.labels == (0, 1)
        assert result.total_worth is None


class TestOracleSuite:
    def test_m4_passes(self):
        report = oracle_suite(4, trials=50, seed=0)
        assert report.passed
        assert report.partitions_enumerated == 15
        assert report.bell_value == 15
        assert report.max_average_rel_err == 0.0

    def test_report_serializes(self):
        d = oracle_suite(3, trials=10, seed=1).to_dict()
        assert d["passed"] is True
        assert d["m"] == 3
        assert set(d) >= {"count_matches", "multiplicity_matches",
                          "choice_counts_match", "averages_match"}

    def test_walks_the_enumeration_once(self, monkeypatch):
        walks = []
        walker = oracle._rgs_prefixes

        def counted(m):
            walks.append(m)
            return walker(m)

        monkeypatch.setattr(oracle, "_rgs_prefixes", counted)
        oracle._cached_stats.cache_clear()  # a fresh walk, not one an earlier test left
        assert oracle_suite(5, trials=3, seed=0).passed
        assert walks == [5]

    def test_trials_bounded_before_any_work(self, monkeypatch):
        monkeypatch.setattr(oracle, "_rgs_prefixes", None)  # any walk would fail
        with pytest.raises(TooManySamples, match=r"^1000001 trials exceed the bound "
                                                 r"of 1000000$"):
            oracle_suite(5, trials=10 ** 6 + 1)

    def test_deterministic_for_fixed_seed(self):
        a = oracle_suite(3, trials=20, seed=5)
        b = oracle_suite(3, trials=20, seed=5)
        assert a == b
