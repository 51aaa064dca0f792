"""Exact combinatorics: Bell table, partition enumeration, counts."""

import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalition_forecast import combinatorics
from coalition_forecast.combinatorics import (
    BellTable,
    ClosedFormTooLarge,
    EnumerationTooLarge,
    build_bell_table,
    enumerate_partitions,
    partition_stats,
)
from coalition_forecast.predictor import average_worth, hyperplane_system, predict
from coalition_forecast.replicator import initial_frequencies
from coalition_forecast.worth import SymmetricWorth
from partition_reference import block_sizes, blocks, rgs


def pascal_triangle(rows):
    """Independent binomial oracle: additive Pascal recurrence."""
    tri = [[1]]
    for _ in range(rows):
        prev = tri[-1]
        tri.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return tri


class TestBellTable:
    def test_small_values(self):
        assert build_bell_table(3).values == (1, 1, 2, 5)

    def test_empty_set(self):
        assert build_bell_table(0).values == (1,)

    def test_b10_matches_enumeration_count(self):
        # B_10 frozen from the triangle recurrence; oracle = raw count
        table = build_bell_table(10)
        assert table[10] == 115975
        assert sum(1 for _ in enumerate_partitions(10)) == 115975

    def test_recurrence_holds(self):
        table = build_bell_table(15)
        for i in range(15):
            assert table[i + 1] == sum(math.comb(i, k) * table[k] for k in range(i + 1))

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="^max_index must be non-negative$"):
            build_bell_table(-1)

    def test_kept_table_serves_smaller_and_larger_indices(self):
        build_bell_table(60)
        bell = [1]  # independent: B_{n+1} = sum_k C(n,k) B_k
        for n in range(80):
            bell.append(sum(math.comb(n, k) * bell[k] for k in range(n + 1)))
        for max_index in (10, 80):
            table = build_bell_table(max_index)
            assert table.max_index == max_index
            assert table.values == tuple(bell[:max_index + 1])

    def test_concurrent_callers_never_see_half_a_table(self, monkeypatch):
        reference = build_bell_table(240).values
        wrong, threads = [], []

        def worker(seed):
            for max_index in random.Random(seed).choices(range(241), k=40):
                if build_bell_table(max_index).values != reference[:max_index + 1]:
                    wrong.append(max_index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for rounds in range(10):
                monkeypatch.setattr(combinatorics, "_bell", ((1,), [1]))  # extend anew
                batch = [threading.Thread(target=worker, args=(8 * rounds + i,))
                         for i in range(8)]
                for thread in batch:
                    thread.start()
                for thread in batch:
                    thread.join(timeout=60)
                threads += batch
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.parametrize("max_index", [1501, 10 ** 9])
    def test_bound_checked_before_any_row(self, max_index):
        kept = combinatorics._bell
        with pytest.raises(ClosedFormTooLarge, match=rf"^closed form too large: "
                                                     rf"m={max_index} exceeds the bound m=1500$"):
            build_bell_table(max_index)
        assert combinatorics._bell is kept

    def test_rejects_inconsistent_lengths(self):
        with pytest.raises(ValueError):
            BellTable(max_index=2, values=(1, 1))

    def test_rejects_wrong_start(self):
        with pytest.raises(ValueError, match="must start 1, 1"):
            BellTable(max_index=1, values=(1, 2))


class TestBinomial:
    """The binomial factors of the closed-form counts, against Pascal's triangle."""

    def test_paper_weight_factor(self):
        # m = 3: a singleton block is chosen C(3,1) = 3 ways, the rest form B_2 structures
        assert partition_stats(3, build_bell_table(3)).multiplicity[0] == 3 * 2

    @pytest.mark.parametrize("n", [0, 1, 5, 40])
    def test_choose_zero(self, n):
        # a fixed agent is a singleton in C(n,0) B_n of the B_{n+1} structures
        bell = build_bell_table(n + 1)
        assert partition_stats(n + 1, bell).choice_counts[0] == bell[n]

    def test_twelve_choose_five(self):
        bell = build_bell_table(12)
        assert pascal_triangle(12)[12][5] == 792
        assert partition_stats(12, bell).multiplicity[4] == 792 * bell[7]

    def test_k_above_n_is_zero(self):
        # no block exceeds m: the counts stop at the one grand coalition
        stats = partition_stats(4, build_bell_table(4))
        assert len(stats.multiplicity) == len(stats.choice_counts) == 4
        assert stats.multiplicity[-1] == stats.choice_counts[-1] == 1

    @given(st.integers(1, 25))
    def test_matches_pascal(self, m):
        tri, bell = pascal_triangle(25), build_bell_table(m)
        stats = partition_stats(m, bell)
        assert stats.multiplicity == tuple(tri[m][k] * bell[m - k] for k in range(1, m + 1))
        assert stats.choice_counts == tuple(tri[m - 1][k - 1] * bell[m - k]
                                            for k in range(1, m + 1))


class TestSetPartition:
    def test_blocks_roundtrip(self):
        assert blocks((0, 1, 0, 2)) == [[0, 2], [1], [3]]
        assert block_sizes((0, 1, 0, 2)) == (2, 1, 1)


class TestEnumeratePartitions:
    def test_m3_matches_worked_choices(self):
        # the five structures of three outsiders {a,b,c}
        got = {frozenset(frozenset(block) for block in blocks(p.labels))
               for p in enumerate_partitions(3)}
        a, b, c = 0, 1, 2
        expected = {
            frozenset({frozenset({a}), frozenset({b}), frozenset({c})}),
            frozenset({frozenset({a}), frozenset({b, c})}),
            frozenset({frozenset({a, b, c})}),
            frozenset({frozenset({a, b}), frozenset({c})}),
            frozenset({frozenset({a, c}), frozenset({b})}),
        }
        assert got == expected

    def test_m3_lexicographic_order(self):
        labels = [p.labels for p in enumerate_partitions(3)]
        assert labels == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
        assert labels == sorted(labels)

    def test_single_outsider(self):
        assert [p.labels for p in enumerate_partitions(1)] == [(0,)]

    def test_m5_count_equals_bell(self):
        table = build_bell_table(5)
        assert sum(1 for _ in enumerate_partitions(5)) == table[5]

    def test_deterministic(self):
        first = [p.labels for p in enumerate_partitions(6)]
        second = [p.labels for p in enumerate_partitions(6)]
        assert first == second

    def test_all_canonical(self):
        # every restricted-growth string, each once and in order
        for m in range(1, 9):
            assert [p.labels for p in enumerate_partitions(m)] == list(rgs(m))

    def test_cap_exceeded_names_m_and_cap(self):
        with pytest.raises(EnumerationTooLarge, match="^enumeration too large: m=13 exceeds "
                                                      "the cap m=12$"):
            enumerate_partitions(13)


def brute_force_counts(m):
    """Oracle: count size-k blocks and element-0 block sizes by enumeration."""
    multiplicity = [0] * (m + 1)
    choice = [0] * (m + 1)
    for part in enumerate_partitions(m):
        sizes = block_sizes(part.labels)
        for size in sizes:
            multiplicity[size] += 1
        choice[sizes[part.labels[0]]] += 1
    return tuple(multiplicity[1:]), tuple(choice[1:])


class TestPartitionStats:
    def test_m3_multiplicity(self):
        stats = partition_stats(3, build_bell_table(3))
        assert stats.multiplicity == (6, 3, 1)

    def test_m3_choice_counts(self):
        # two structures keep a fixed agent solo, two pair it up, one groups all
        stats = partition_stats(3, build_bell_table(3))
        assert stats.choice_counts == (2, 2, 1)

    def test_m4_multiplicity_against_enumeration(self):
        stats = partition_stats(4, build_bell_table(4))
        assert stats.multiplicity == (20, 12, 4, 1)
        assert sum(k * w for k, w in enumerate(stats.multiplicity, start=1)) == 4 * 15
        assert brute_force_counts(4) == (stats.multiplicity, stats.choice_counts)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_enumeration_agrees_with_closed_form(self, m):
        stats = partition_stats(m, build_bell_table(m))
        assert brute_force_counts(m) == (stats.multiplicity, stats.choice_counts)

    @pytest.mark.parametrize("m", range(1, 31))
    def test_weight_identities(self, m):
        # closed forms only: must hold exactly far beyond the enumeration cap
        table = build_bell_table(m)
        stats = partition_stats(m, table)
        assert stats.multiplicity[-1] == 1
        assert sum(k * w for k, w in enumerate(stats.multiplicity, start=1)) == m * table[m]
        assert sum(stats.choice_counts) == table[m]

    def test_requires_covering_bell_table(self):
        with pytest.raises(ValueError):
            partition_stats(5, build_bell_table(3))


WORTH_5 = SymmetricWorth(m=5, by_size=(0.0, 1.0, 1.0, 2.0, 3.0))
CLOSED_FORMS = {
    "partition_stats": lambda bell: partition_stats(5, bell),
    "average_worth": lambda bell: average_worth(WORTH_5, bell),
    "residuals": lambda bell: predict(WORTH_5, bell).residuals,
    "predict": lambda bell: predict(WORTH_5, bell),
    "hyperplane_system": lambda bell: hyperplane_system(5, bell),
    "initial_frequencies": lambda bell: initial_frequencies(5, bell),
}


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_closed_forms_require_covering_bell_table(name):
    CLOSED_FORMS[name](build_bell_table(5))  # a success at m = 5 first: no cache may hide the check
    with pytest.raises(ValueError, match=r"^Bell table covers indices up to 3, need 5$"):
        CLOSED_FORMS[name](build_bell_table(3))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 7))
def test_enumeration_count_equals_bell(m):
    assert sum(1 for _ in enumerate_partitions(m)) == build_bell_table(m)[m]
