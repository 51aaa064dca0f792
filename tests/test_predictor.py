"""Average worth, hyperplane system, and the min-distance prediction rule."""

import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalition_forecast.combinatorics import BellTable, build_bell_table
from coalition_forecast.errors import ClosedFormTooLarge
from coalition_forecast.predictor import (
    _geometry,
    average_worth,
    distances,
    evaluate_planes,
    hyperplane_system,
    predict,
)
from coalition_forecast.worth import SymmetricWorth, dyadic, per_capita_vector

BELL = build_bell_table(12)
SYNERGY = SymmetricWorth(m=3, by_size=(0.0, 1.0, 1.0))

worth_lists = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    min_size=2, max_size=6,
)


class TestAverageWorth:
    def test_m3_weighted_mean(self):
        # (6 v(1) + 3 v(2) + v(3)) / 15 on a handful of fixed vectors
        for by_size in [(0.0, 1.0, 1.0), (1.0, 0.0, 0.0), (2.5, -3.0, 7.0)]:
            worth = SymmetricWorth(m=3, by_size=by_size)
            expected = float(
                (6 * Fraction(by_size[0]) + 3 * Fraction(by_size[1]) + Fraction(by_size[2])) / 15
            )
            assert average_worth(worth, BELL) == expected

    def test_single_outsider_identity(self):
        worth = SymmetricWorth(m=1, by_size=(42.5,))
        assert average_worth(worth, BELL) == 42.5

    def test_synergy_fixture_value(self):
        assert average_worth(SYNERGY, BELL) == pytest.approx(4 / 15, rel=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30))
    def test_equals_fraction_sum(self, by_size):
        m = len(by_size)
        bell = build_bell_table(m)
        exact = sum(Fraction(v) * math.comb(m, j) * bell[m - j]
                    for j, v in enumerate(by_size, start=1)) / (m * bell[m])
        assert average_worth(SymmetricWorth(m=m, by_size=tuple(by_size)), bell) == float(exact)

    def test_requires_covering_bell_table(self):
        with pytest.raises(ValueError):
            average_worth(SymmetricWorth(m=5, by_size=(0.0,) * 5), build_bell_table(3))


class TestHyperplaneSystem:
    def test_m3_rows_scaled_by_15(self):
        system = hyperplane_system(3, BELL)
        scaled = [tuple(15 * a for a in row) for row in system.exact_rows]
        assert scaled[0] == (Fraction(9), Fraction(-3), Fraction(-1))
        assert scaled[1] == (Fraction(-6), Fraction(9, 2), Fraction(-1))
        assert scaled[2] == (Fraction(-6), Fraction(-3), Fraction(4))
        assert not system.degenerate

    def test_m1_zero_row_degenerate(self):
        system = hyperplane_system(1, BELL)
        assert system.exact_rows == ((Fraction(0),),)
        assert system.row_norms == (0.0,)
        assert system.degenerate

    def test_m2_planes_coincide(self):
        system = hyperplane_system(2, BELL)
        assert system.exact_rows[0] == (Fraction(1, 2), Fraction(-1, 4))
        assert system.exact_rows[1] == (Fraction(-1, 2), Fraction(1, 4))

    def test_m3_normalized_constants(self):
        # constants of the integer-scaled row forms, e.g. d = c * |9x - 3y - z|
        system = hyperplane_system(3, BELL)
        constants = [1.0 / (15 * n) for n in system.row_norms]
        exact = [1 / math.sqrt(91), 1 / math.sqrt(57.25), 1 / math.sqrt(61)]
        rounded = [0.105, 0.132, 0.128]
        for got, want, paper in zip(constants, exact, rounded):
            assert got == pytest.approx(want, rel=1e-12)
            assert abs(got - paper) < 5e-4

    def test_float_rows_mirror_exact(self):
        system = hyperplane_system(5, BELL)
        for frow, erow in zip(system.coefficients, system.exact_rows):
            assert frow == tuple(float(a) for a in erow)

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^m must be positive$"):
            hyperplane_system(0, BELL)


class TestResiduals:
    def test_synergy_point(self):
        expected = (float(Fraction(-4, 15)), float(Fraction(7, 30)), float(Fraction(1, 15)))
        assert predict(SYNERGY, BELL).residuals == expected

    def test_constant_per_capita_game(self):
        worth = SymmetricWorth(m=4, by_size=(2.0, 4.0, 6.0, 8.0))  # v(k) = 2k
        assert predict(worth, BELL).residuals == (0.0, 0.0, 0.0, 0.0)

    def test_single_outsider(self):
        assert predict(SymmetricWorth(m=1, by_size=(3.0,)), BELL).residuals == (0.0,)


class TestDistances:
    def test_synergy_matches_worked_example(self):
        system = hyperplane_system(3, BELL)
        d = distances(SYNERGY, system)
        exact = (4 / math.sqrt(91), 3.5 / math.sqrt(57.25), 1 / math.sqrt(61))
        for got, want in zip(d, exact):
            assert got == pytest.approx(want, rel=1e-14)
        assert d[0] == pytest.approx(0.419, abs=5e-4)
        assert d[1] == pytest.approx(0.463, abs=5e-4)
        assert d[2] == pytest.approx(0.128, abs=5e-4)

    def test_point_on_first_plane(self):
        # 9*1 - 3*2 - 3 = 0, so (1, 2, 3) lies on the k=1 plane
        system = hyperplane_system(3, BELL)
        point = SymmetricWorth(m=3, by_size=(1.0, 2.0, 3.0))
        assert distances(point, system)[0] == 0.0

    def test_scaling_homogeneity(self):
        system = hyperplane_system(3, BELL)
        base = distances(SYNERGY, system)
        scaled = distances(SymmetricWorth(m=3, by_size=(0.0, 10.0, 10.0)), system)
        for ds, db in zip(scaled, base):
            assert ds == pytest.approx(10 * db, rel=1e-14)

    def test_degenerate_m1(self):
        system = hyperplane_system(1, BELL)
        assert distances(SymmetricWorth(m=1, by_size=(5.0,)), system) == (0.0,)

    def test_dimension_mismatch(self):
        system = hyperplane_system(3, BELL)
        with pytest.raises(ValueError):
            distances(SymmetricWorth(m=2, by_size=(1.0, 1.0)), system)

    @pytest.mark.parametrize("m, function, name, sizes", [
        (6, distances, "distances", [1, 2]),
        (8, distances, "plane values", [1]),
        (8, evaluate_planes, "plane values", [1]),
    ])
    def test_matrix_path_rejects_values_beyond_float_range(self, m, function, name, sizes):
        worth = SymmetricWorth(m=m, by_size=(1.7e308,) + (-1.7e308,) * (m - 1))
        with pytest.raises(ValueError, match=re.escape(f"{name} for sizes {sizes} lie beyond")):
            function(worth, hyperplane_system(m, BELL))


class TestPredict:
    def test_synergy_chooses_grand_coalition(self):
        report = predict(SYNERGY, BELL)
        assert report.chosen_size == 3
        assert report.argmin_set == frozenset({3})
        assert not report.degenerate
        assert report.average_worth == pytest.approx(4 / 15, rel=1e-15)

    def test_m2_always_ties(self):
        report = predict(SymmetricWorth(m=2, by_size=(1.3, -0.7)), BELL)
        assert report.argmin_set == frozenset({1, 2})
        assert report.chosen_size == 1

    def test_m1_degenerate(self):
        report = predict(SymmetricWorth(m=1, by_size=(9.0,)), BELL)
        assert report.chosen_size == 1
        assert report.degenerate
        assert report.distances == (0.0,)

    def test_zero_vector_ties_everywhere(self):
        report = predict(SymmetricWorth(m=4, by_size=(0.0,) * 4), BELL)
        assert report.argmin_set == frozenset({1, 2, 3, 4})
        assert report.chosen_size == 1

    def test_non_partitionable_size_noted(self):
        # a point on the k=2 plane of the m=5 system: v(2) solves the row-2 form
        system = hyperplane_system(5, BELL)
        row = system.exact_rows[1]
        v2 = -sum(row[j] for j in range(5) if j != 1) / row[1]
        point = SymmetricWorth(m=5, by_size=(1.0, float(v2), 1.0, 1.0, 1.0))
        report = predict(point, BELL)
        assert report.chosen_size == 2
        assert any("does not divide" in note for note in report.notes)

    def test_divisible_size_has_no_note(self):
        assert predict(SYNERGY, BELL).notes == ()

    def test_tiny_worths_keep_the_unit_scale_decision(self):
        # (0, 1, 1) scaled down by 1e-9: ties are exact, so no size joins the argmin
        report = predict(SymmetricWorth(m=3, by_size=(0.0, 1e-9, 1e-9)), BELL)
        assert report.argmin_set == frozenset({3})
        assert report.chosen_size == 3


def rel_gap(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


@settings(max_examples=200, deadline=None)
@given(worth_lists)
def test_residual_identity(by_size):
    """Plane-form evaluation and per-capita-minus-average must coincide."""
    m = len(by_size)
    worth = SymmetricWorth(m=m, by_size=tuple(by_size))
    system = hyperplane_system(m, BELL)
    via_rows = evaluate_planes(worth, system)
    via_payoffs = predict(worth, BELL).residuals
    for a, b in zip(via_rows, via_payoffs):
        assert rel_gap(a, b) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(worth_lists)
def test_distance_consistency(by_size):
    m = len(by_size)
    worth = SymmetricWorth(m=m, by_size=tuple(by_size))
    system = hyperplane_system(m, BELL)
    d = distances(worth, system)
    eps = predict(worth, BELL).residuals
    for dk, ek, nk in zip(d, eps, system.row_norms):
        assert rel_gap(dk, abs(ek) / nk) <= 1e-12


# n / 2**10 with |n| <= 2**30: times 0.5, 3 and 100 these stay exact (no underflow,
# no rounding), so lam * v is exactly the scaled game
dyadic_worth_lists = st.lists(
    st.integers(-(2 ** 30), 2 ** 30).map(lambda n: n / 2 ** 10),
    min_size=2, max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(dyadic_worth_lists, st.sampled_from([0.5, 3.0, 100.0]))
def test_argmin_scale_invariance(by_size, lam):
    m = len(by_size)
    base = predict(SymmetricWorth(m=m, by_size=tuple(by_size)), BELL)
    scaled = predict(SymmetricWorth(m=m, by_size=tuple(lam * v for v in by_size)), BELL)
    assert scaled.argmin_set == base.argmin_set
    assert scaled.chosen_size == base.chosen_size


def test_sanity_against_float_matrix_path():
    """Loose float cross-check so both exact paths cannot share a blind spot."""
    rng = np.random.default_rng(7)
    for m in range(2, 7):
        system = hyperplane_system(m, BELL)
        rows = np.asarray(system.coefficients)
        for _ in range(50):
            v = rng.uniform(-1, 1, size=m)
            worth = SymmetricWorth(m=m, by_size=tuple(float(x) for x in v))
            np.testing.assert_allclose(evaluate_planes(worth, system),
                                       rows @ v, atol=1e-12)
            tilde = np.dot(v, [math.comb(m, j) * BELL[m - j] for j in range(1, m + 1)])
            tilde /= m * BELL[m]
            np.testing.assert_allclose(average_worth(worth, BELL), tilde, atol=1e-12)
            np.testing.assert_allclose(
                predict(worth, BELL).residuals,
                [p - tilde for p in per_capita_vector(worth)],
                atol=1e-12,
            )


def test_predict_matches_matrix_path():
    """The rank-one predict path equals the m x m matrix path bit for bit."""
    bell = build_bell_table(96)
    rng = np.random.default_rng(96)  # recorded seed
    for m in [*range(1, 31), 96]:
        system = hyperplane_system(m, bell)
        sizes = np.arange(1, m + 1)
        points = [rng.uniform(-1, 1, size=m),
                  rng.integers(-2, 3, size=m),
                  rng.integers(1, 4) * sizes]  # v(k)/k constant: every size ties
        for v in points:
            point = SymmetricWorth(m=m, by_size=tuple(float(x) for x in v))
            report = predict(point, bell)
            assert report.distances == distances(point, system)
            assert report.residuals == evaluate_planes(point, system)
            assert report.average_worth == average_worth(point, bell)
            if system.degenerate:
                assert report.argmin_set == frozenset({1})
                continue
            ratios = []
            for row in system.exact_rows:
                value = sum(a * Fraction(p) for a, p in zip(row, point.by_size))
                ratios.append(value * value / sum(a * a for a in row))
            best = min(ratios)
            assert report.argmin_set == frozenset(
                k for k, q in enumerate(ratios, start=1) if q == best)


BELL_96 = build_bell_table(96)


@functools.lru_cache(maxsize=None)
def integer_rows(m):
    return hyperplane_system(m, BELL_96).integer_rows


def exact_argmin(point):
    """The all-exact ranking: R_k^2 / Q_k as Fractions from the full integer rows.

    The matrix path's ratio for row k is (sum_j a_j p_j / d_k)^2 / sum_j (a_j / d_k)^2;
    with p_j = n_j / den it is (sum_j a_j n_j)^2 / (den^2 sum_j a_j^2), and den is
    common to every size, so it is left out.
    """
    numerators, _ = dyadic(point.by_size)
    ratios = [Fraction(sum(a * n for a, n in zip(row, numerators)) ** 2, sum(a * a for a in row))
              for row in integer_rows(point.m)]
    best = min(ratios)
    return frozenset(k for k, q in enumerate(ratios, start=1) if q == best)


@settings(max_examples=100, deadline=None)
@given(dyadic_worth_lists)
def test_filtered_argmin_matches_exact_ranking_on_ties(by_size):
    point = SymmetricWorth(m=len(by_size), by_size=tuple(by_size))
    assert predict(point, BELL_96).argmin_set == exact_argmin(point)


@st.composite
def near_ties(draw):
    """An exact tie, v(k)/k = c for every k, with one or two worths moved by a few ulps."""
    m = draw(st.integers(2, 96))
    c = draw(st.integers(-(2 ** 20), 2 ** 20).filter(bool)) / 2 ** 10
    by_size = [c * k for k in range(1, m + 1)]
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(0, m - 1))
        toward = draw(st.sampled_from([math.inf, -math.inf]))
        for _ in range(draw(st.integers(1, 3))):
            by_size[k] = math.nextafter(by_size[k], toward)
    return SymmetricWorth(m=m, by_size=tuple(by_size))


@settings(max_examples=60, deadline=None)
@given(near_ties())
def test_filtered_argmin_matches_exact_ranking_on_near_ties(point):
    report = predict(point, BELL_96)
    assert report.argmin_set == exact_argmin(point)
    assert report.chosen_size == min(report.argmin_set)


@pytest.mark.parametrize("m", [3, 7, 24, 96])
def test_filtered_argmin_decides_a_switch_point_exactly(m):
    """One ulp of t apart on a segment where the exact argmin changes: both
    sides pass the float filter, so the exact comparison alone decides them."""
    rng = np.random.default_rng(m)  # recorded seed

    def at(t):  # the point x + t (y - x), for the x and y drawn last
        return SymmetricWorth(m=m, by_size=tuple(float(a + t * (b - a)) for a, b in zip(x, y)))

    while True:
        x, y = rng.uniform(-1, 1, size=m), rng.uniform(-1, 1, size=m)
        if exact_argmin(at(0.0)) != exact_argmin(at(1.0)):
            break
    lo, hi = 0.0, 1.0
    while lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if exact_argmin(at(mid)) == exact_argmin(at(0.0)) else (lo, mid)
    for t in (lo, hi):
        assert predict(at(t), BELL_96).argmin_set == exact_argmin(at(t))
    assert predict(at(lo), BELL_96).argmin_set != predict(at(hi), BELL_96).argmin_set


same_m_pairs = st.integers(1, 30).flatmap(lambda m: st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=m, max_size=m),
    min_size=2, max_size=2))


class TestGeometryCache:
    """The part of predict and average_worth that depends on m and the Bell table alone
    is kept per process; no answer may depend on what the cache holds."""

    @settings(max_examples=100, deadline=None)
    @given(same_m_pairs)
    def test_reports_equal_cold_and_warm(self, pair):
        point, other = (SymmetricWorth(m=len(v), by_size=tuple(v)) for v in pair)
        _geometry.cache_clear()
        cold = predict(point, BELL_96)
        _geometry.cache_clear()
        cold_average = average_worth(point, BELL_96)
        _geometry.cache_clear()
        predict(other, BELL_96)  # the entry is made by other's call: it must hold no worths
        hits = _geometry.cache_info().hits
        assert (predict(point, BELL_96), average_worth(point, BELL_96)) == (cold, cold_average)
        assert _geometry.cache_info().hits == hits + 2

    @pytest.mark.parametrize("index", [2, 4, 5])
    def test_a_doctored_table_gets_its_own_answer(self, index):
        point = SymmetricWorth(m=5, by_size=(0.5, 1.0, 1.0, 2.0, 3.0))
        bell = build_bell_table(5)
        values = list(bell.values)
        values[index] += 7  # B_index, which w_{5-index} or D reads
        doctored = BellTable(max_index=5, values=tuple(values))
        exact = sum(Fraction(v) * math.comb(5, j) * values[5 - j]
                    for j, v in enumerate(point.by_size, start=1)) / (5 * values[5])
        real = predict(point, bell)
        warm = predict(point, doctored), average_worth(point, doctored)
        _geometry.cache_clear()
        assert (predict(point, doctored), average_worth(point, doctored)) == warm
        assert warm[1] == float(exact) != real.average_worth

    def test_a_list_valued_table_still_predicts(self):
        bell = build_bell_table(6)
        listed = BellTable(max_index=6, values=list(bell.values))
        point = SymmetricWorth(m=6, by_size=(0.5, -1.0, 2.0, 0.0, 1.5, -0.25))
        assert predict(point, listed) == predict(point, bell)
        assert average_worth(point, listed) == average_worth(point, bell)


def test_hyperplane_system_is_bounded_before_any_row():
    assert hyperplane_system(200, build_bell_table(200)).m == 200
    with pytest.raises(ClosedFormTooLarge, match=r"^hyperplane system too large: m=201 "
                                                 r"exceeds the bound m=200$"):
        hyperplane_system(201, build_bell_table(201))
