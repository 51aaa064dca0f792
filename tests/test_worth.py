"""Characteristic functions and their reduction to per-size worths."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coalition_forecast.worth import (
    CharacteristicFunction,
    SymmetricWorth,
    SymmetryViolation,
    _agree,
    characteristic_from_coalitions,
    float_or_none,
    game_worth,
    per_capita_vector,
    reduce_to_symmetric,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def synergy_game():
    """Three outsiders: singletons worth 0, pairs 1, the triple 1."""
    entries = {mask: 0.0 if mask.bit_count() == 1 else 1.0 for mask in range(1, 8)}
    return CharacteristicFunction(m=3, entries=entries)


def expand_to_characteristic(worth):
    """Characteristic function giving every size-k coalition the worth v(k)."""
    entries = {mask: worth.by_size[mask.bit_count() - 1] for mask in range(1, 1 << worth.m)}
    return CharacteristicFunction(m=worth.m, entries=entries)


class TestCharacteristicFunction:
    def test_requires_all_subsets(self):
        with pytest.raises(ValueError, match="7"):
            CharacteristicFunction(m=3, entries={1: 0.0, 2: 0.0})

    def test_count_checked_before_two_to_the_m(self):
        # 2^m - 1 for this m would take 125 MB and print past the int-to-str limit
        with pytest.raises(ValueError, match=r"^characteristic function for m=1000000000 "
                                             r"needs 2\^1000000000 - 1 coalition worths, got 1$"):
            CharacteristicFunction(m=10 ** 9, entries={1: 0.0})

    @pytest.mark.parametrize("m, entries, message", [
        (0, {}, "m must be positive"),
        (2, {1: 0.0, 2: 0.0, 4: 0.0}, "invalid coalition bitmask 4 for m=2"),
    ])
    def test_rejects_bad_m_or_bitmask(self, m, entries, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CharacteristicFunction(m=m, entries=entries)

    def test_rejects_nonfinite_worth(self):
        entries = {mask: 0.0 for mask in range(1, 8)}
        entries[3] = math.inf
        with pytest.raises(ValueError, match="finite"):
            CharacteristicFunction(m=3, entries=entries)

    def test_worth_lookup(self):
        assert synergy_game().entries[0b011] == 1.0  # outsiders 0 and 1

    def test_from_coalition_records(self):
        records = [{"members": [0], "worth": 2.0}, {"members": [1], "worth": 2.0},
                   {"members": [0, 1], "worth": 5.0}]
        cf = characteristic_from_coalitions(2, records)
        assert cf.entries == {0b01: 2.0, 0b10: 2.0, 0b11: 5.0}

    def test_duplicate_coalition_rejected(self):
        # 2^2 - 1 records, so the count passes and the duplicate is what fails
        records = [{"members": [0], "worth": 1.0}, {"members": [0], "worth": 2.0},
                   {"members": [0, 1], "worth": 1.0}]
        with pytest.raises(ValueError, match="twice"):
            characteristic_from_coalitions(2, records)

    def test_member_out_of_range(self):
        records = [{"members": [0], "worth": 1.0}, {"members": [2], "worth": 1.0},
                   {"members": [0, 1], "worth": 1.0}]
        with pytest.raises(ValueError, match="outside"):
            characteristic_from_coalitions(2, records)

    def test_empty_coalition_rejected(self):
        game = {"m": 1, "coalitions": [{"members": [], "worth": 0}]}
        with pytest.raises(ValueError, match=r"^coalition must be non-empty$"):
            game_worth(game)
        with pytest.raises(ValueError, match=r"^coalition must be non-empty$"):
            characteristic_from_coalitions(1, game["coalitions"])

    def test_record_count_checked_before_the_records(self):
        # both the count and a member are wrong: the count is reported
        records = [{"members": [0], "worth": 1.0}, {"members": [2], "worth": 1.0}]
        with pytest.raises(ValueError, match=r"^characteristic function for m=2 "
                                             r"needs 3 coalition worths, got 2$"):
            characteristic_from_coalitions(2, records)

    @pytest.mark.parametrize("m", [0, -1])
    def test_coalitions_m_must_be_positive(self, m):
        with pytest.raises(ValueError, match=r"^m must be positive$"):
            characteristic_from_coalitions(m, [])


class TestReduceToSymmetric:
    def test_synergy_reduces_to_per_size(self):
        assert reduce_to_symmetric(synergy_game()).by_size == (0.0, 1.0, 1.0)

    def test_single_outsider(self):
        cf = CharacteristicFunction(m=1, entries={1: 7.0})
        assert reduce_to_symmetric(cf).by_size == (7.0,)

    def test_violation_names_coalitions_and_gap(self):
        cf = CharacteristicFunction(m=2, entries={1: 0.0, 2: 1.0, 3: 0.5})
        with pytest.raises(SymmetryViolation) as excinfo:
            reduce_to_symmetric(cf, tolerance=0.5)
        err = excinfo.value
        assert err.gap == 1.0
        assert {err.coalition_a, err.coalition_b} == {(0,), (1,)}
        assert "gap" in str(err)

    def test_within_tolerance_takes_mean(self):
        cf = CharacteristicFunction(m=2, entries={1: 1.0, 2: 1.0 + 1e-12, 3: 4.0})
        worth = reduce_to_symmetric(cf)
        assert worth.by_size[0] == pytest.approx(1.0 + 5e-13, abs=1e-15)

    def test_mean_near_the_float_maximum(self):
        # the float sum of the two worths overflows; their exact mean does not
        cf = CharacteristicFunction(m=2, entries={1: 1.7e308, 2: 1.6999999999999998e308, 3: 1.0})
        assert reduce_to_symmetric(cf).by_size == (1.7e308 / 2 + 1.6999999999999998e308 / 2, 1.0)

    @given(st.lists(st.floats(0.5, 2.0), min_size=2, max_size=5))
    def test_singleton_mean_is_the_correctly_rounded_exact_mean(self, singles):
        m = len(singles)
        entries = {mask: 1.0 for mask in range(1, 1 << m)}
        entries.update({1 << i: value for i, value in enumerate(singles)})
        worth = reduce_to_symmetric(CharacteristicFunction(m=m, entries=entries), tolerance=2.0)
        assert worth.by_size[0] == float(sum(map(Fraction, singles)) / m)

    @given(st.lists(finite_floats, min_size=1, max_size=6))
    def test_idempotent_on_symmetric_games(self, by_size):
        worth = SymmetricWorth(m=len(by_size), by_size=tuple(by_size))
        assert reduce_to_symmetric(expand_to_characteristic(worth)).by_size == worth.by_size


@st.composite
def agreement_cases(draw):
    """(a, b, tolerance) with b a few ulps from where the float rule puts the bound, or anywhere."""
    a = draw(st.floats(-1e300, 1e300))
    tolerance = draw(st.floats(0.0, 3.0) | st.fractions(0, 3) | st.just(math.inf))
    if draw(st.booleans()):
        return a, draw(st.floats(allow_nan=False, allow_infinity=False)), tolerance
    b = a - math.copysign(float(tolerance) * max(1.0, abs(a)), a) if tolerance <= 3 else a
    ulps = draw(st.integers(-3, 3))
    for _ in range(abs(ulps)):
        b = math.nextafter(b, math.copysign(math.inf, ulps))
    return a, b, tolerance


class TestAgree:
    @given(agreement_cases())
    # the float product 0.3 * 3.736744210543126 rounds up to this pair's exact gap
    @example((-3.736744210543126, -2.615720947380188, 0.3))
    def test_is_the_rule_in_exact_rationals(self, case):
        a, b, tolerance = case
        exact = tolerance == math.inf or (  # a tolerance counts as its float, as a worth does
            abs(Fraction(a) - Fraction(b))
            <= Fraction(float(tolerance)) * max(1, abs(Fraction(a)), abs(Fraction(b))))
        assert _agree(a, b, tolerance) == _agree(b, a, tolerance) == exact


class TestPerCapita:
    def test_synergy_triple_share(self):
        worth = SymmetricWorth(m=3, by_size=(0.0, 1.0, 1.0))
        assert per_capita_vector(worth)[2] == pytest.approx(1 / 3)

    def test_size_one_is_identity(self):
        worth = SymmetricWorth(m=2, by_size=(3.5, 1.0))
        assert per_capita_vector(worth)[0] == 3.5

    def test_synergy_vector(self):
        worth = SymmetricWorth(m=3, by_size=(0.0, 1.0, 1.0))
        assert per_capita_vector(worth) == (0.0, 0.5, 1 / 3)

    @given(st.lists(finite_floats, min_size=1, max_size=6), st.floats(-100, 100))
    def test_scaling_linearity(self, by_size, lam):
        m = len(by_size)
        worth = SymmetricWorth(m=m, by_size=tuple(by_size))
        scaled = SymmetricWorth(m=m, by_size=tuple(lam * v for v in by_size))
        for got, share in zip(per_capita_vector(scaled), per_capita_vector(worth)):
            assert got == pytest.approx(lam * share, rel=1e-12, abs=1e-300)


class TestSymmetricWorth:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SymmetricWorth(m=3, by_size=(1.0, 2.0))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SymmetricWorth(m=1, by_size=(math.nan,))

    def test_rejects_non_positive_m(self):
        with pytest.raises(ValueError, match="m must be positive"):
            SymmetricWorth(m=0, by_size=())


# a ratio at or above this rounds to inf: halfway to 2**1024 rounds to even
FLOAT_LIMIT = 2 ** 1024 - 2 ** 970


class TestFloatOrNone:
    @given(st.integers(-(2 ** 1100), 2 ** 1100), st.integers(1, 2 ** 1100))
    def test_is_the_correctly_rounded_ratio_or_none(self, num, den):
        if abs(Fraction(num, den)) < FLOAT_LIMIT:
            assert float_or_none(num, den) == float(Fraction(num, den))
        else:
            assert float_or_none(num, den) is None

    @pytest.mark.parametrize("sign", [1, -1])
    def test_range_edge(self, sign):
        assert float_or_none(sign * (FLOAT_LIMIT - 1)) == sign * sys.float_info.max
        assert float_or_none(sign * FLOAT_LIMIT) is None
        assert float_or_none(sign * 2 ** 1025, 2) is None
        assert float_or_none(sign * 2 ** 1025, 4) == sign * 2.0 ** 1023

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_is_none(self, value):
        assert float_or_none(value) is None

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_finite_float_passes_through(self, value):
        assert float_or_none(value) == value
