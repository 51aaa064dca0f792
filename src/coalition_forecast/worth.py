"""Coalition worths for the outsider population.

A general characteristic function assigns a worth to every non-empty
subset of the m outsiders. Under the interchangeable-agents assumption
it collapses to a per-size vector; `reduce_to_symmetric` performs (and
polices) that collapse. `game_worth` reads the whole game-file schema.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Collection, Iterable, Mapping
from operator import itemgetter

from .errors import SymmetryViolation

DEFAULT_SYMMETRY_TOLERANCE = 1e-9


def mask_to_members(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _check_coalition_count(m: int, count: int) -> None:
    """m >= 1 and count == 2^m - 1, decided without building 2^m: any m a file names is safe."""
    if m < 1:
        raise ValueError("m must be positive")
    if count.bit_length() != m or (count + 1) & count:
        needs = (1 << m) - 1 if m <= 64 else f"2^{m} - 1"  # no file holds 2^64 records
        raise ValueError(f"characteristic function for m={m} needs {needs} "
                         f"coalition worths, got {count}")


class CharacteristicFunction(namedtuple("CharacteristicFunction", "m entries")):
    """Worth of every non-empty subset of the m outsiders.

    entries maps subset bitmasks (bit i set = outsider i present) to
    finite real worths, one entry per non-empty subset.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs __new__'s checks

    def __new__(cls, m: int, entries: Mapping[int, float]) -> CharacteristicFunction:
        _check_coalition_count(m, len(entries))
        expected = (1 << m) - 1  # safe: a count of 2^m - 1 entries exists
        for mask, value in entries.items():
            if not 1 <= mask <= expected:
                raise ValueError(f"invalid coalition bitmask {mask} for m={m}")
            if not math.isfinite(value):
                raise ValueError(f"worth of coalition {mask_to_members(mask)} is not finite")
        return super().__new__(cls, m, entries)


class SymmetricWorth(namedtuple("SymmetricWorth", "m by_size")):
    """Per-size worths (v(1),..,v(m)) of outsider coalitions."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs __new__'s checks

    def __new__(cls, m: int, by_size: tuple[float, ...]) -> SymmetricWorth:
        if m < 1:
            raise ValueError("m must be positive")
        if len(by_size) != m:
            raise ValueError("by_size must have one worth per coalition size 1..m")
        for k, value in enumerate(by_size, start=1):
            if not math.isfinite(value):
                raise ValueError(f"v({k}) is not finite")
        return super().__new__(cls, m, by_size)


def _agree(a: float, b: float, tolerance: float) -> bool:
    # relative for large magnitudes, absolute floor near zero; exact on the floats, as products
    # round. |a - b| <= 2 max(|a|, |b|): past 2, as at inf (no integer ratio), every gap agrees
    (na, nb, nt, one), den = dyadic((a, b, float(min(tolerance, 2.0)), 1.0))
    return abs(na - nb) * den <= nt * max(one, abs(na), abs(nb))


def check_tolerance(tolerance: float) -> None:
    if not tolerance >= 0:  # NaN is not a tolerance either
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")


def reduce_to_symmetric(cf: CharacteristicFunction,
                        tolerance: float = DEFAULT_SYMMETRY_TOLERANCE) -> SymmetricWorth:
    """Collapse a characteristic function to its per-size worth vector.

    All coalitions of a given size must agree within `tolerance`
    (relative, with an absolute floor near zero); the reported v(k) is
    their exact mean. Raises SymmetryViolation naming the extreme pair otherwise.
    """
    check_tolerance(tolerance)
    groups: list[list[tuple[int, float]]] = [[] for _ in range(cf.m)]
    for mask, value in cf.entries.items():  # one pass; each size keeps entry order
        groups[mask.bit_count() - 1].append((mask, value))
    by_size = []
    for group in groups:
        lo = min(group, key=itemgetter(1))
        hi = max(group, key=itemgetter(1))
        if not _agree(lo[1], hi[1], tolerance):
            raise SymmetryViolation(mask_to_members(lo[0]), lo[1],
                                    mask_to_members(hi[0]), hi[1])
        if lo[1] == hi[1]:
            by_size.append(lo[1])  # constant class: stay exact, no mean rounding
        else:
            numerators, den = dyadic(value for _, value in group)  # the exact mean, finite
            by_size.append(sum(numerators) / (den * len(group)))
    return SymmetricWorth(m=cf.m, by_size=tuple(by_size))


def worth_from_json(value) -> float:
    """A worth read from JSON: a number, never a boolean or numeric text."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        kind = "a boolean" if isinstance(value, bool) else repr(value)
        raise ValueError(f"a worth must be a number, not {kind}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("a worth lies beyond the float range") from None


def characteristic_from_coalitions(m: int,
                                   coalitions: Collection[Mapping]) -> CharacteristicFunction:
    """Build a characteristic function from explicit coalition records.

    Each record carries "members", a list of distinct outsider indices
    (integers, never booleans), and "worth". Every non-empty subset must
    appear exactly once: the record count is checked first, so no member
    shift is wider than the count.
    """
    _check_coalition_count(m, len(coalitions))
    entries: dict[int, float] = {}
    for record in coalitions:
        try:
            members = record["members"]
            worth = record["worth"]
            # a JSON float needs no check; this keeps large coalition files fast
            value = worth if type(worth) is float else worth_from_json(worth)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"coalition record {record!r} needs 'members' and 'worth'") from exc
        except ValueError as exc:
            raise ValueError(f"coalition record {record!r}: {exc}") from None
        if not isinstance(members, list):
            raise ValueError(f"'members' must be a list of integers, not {members!r}")
        mask = 0
        for elem in members:  # inline, not a call per record: large coalition files stay fast
            if type(elem) is not int:  # nor a bool, whose type is bool
                raise ValueError(f"'members' must be a list of integers, not {members!r}")
            if not 0 <= elem < m:
                raise ValueError(f"member {elem} outside 0..{m - 1}")
            bit = 1 << elem
            if mask & bit:
                raise ValueError(f"member {elem} listed twice")
            mask |= bit
        if mask == 0:
            raise ValueError("coalition must be non-empty")
        if mask in entries:
            raise ValueError(f"coalition {tuple(sorted(members))} listed twice")
        entries[mask] = value
    return CharacteristicFunction(m=m, entries=entries)


def game_worth(obj, tolerance: float | None = None) -> SymmetricWorth:
    """The outsiders' per-size worths from a parsed game file; ValueError if malformed.

    tolerance None is DEFAULT_SYMMETRY_TOLERANCE.
    """
    if tolerance is None:
        tolerance = DEFAULT_SYMMETRY_TOLERANCE
    check_tolerance(tolerance)
    if not isinstance(obj, dict):
        raise ValueError("game file must contain a JSON object")
    m = _resolve_outsider_count(obj)
    if ("by_size" in obj) == ("coalitions" in obj):
        raise ValueError("provide exactly one of 'by_size' or 'coalitions'")
    if "by_size" in obj:
        by_size = obj["by_size"]
        if not isinstance(by_size, list) or len(by_size) != m:
            raise ValueError(f"'by_size' must be a list of {m} worths")
        try:
            return SymmetricWorth(m=m, by_size=tuple(worth_from_json(v) for v in by_size))
        except ValueError as exc:
            raise ValueError(f"invalid 'by_size': {exc}") from exc
    coalitions = obj["coalitions"]
    if not isinstance(coalitions, list):
        raise ValueError("'coalitions' must be a list of records")
    return reduce_to_symmetric(characteristic_from_coalitions(m, coalitions), tolerance)


def _resolve_outsider_count(obj: dict) -> int:
    m = obj.get("m")
    n = obj.get("n")
    s = obj.get("s")
    for name, value in (("m", m), ("n", n), ("s", s)):
        if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
            raise ValueError(f"'{name}' must be an integer")
    if (n is None) != (s is None):
        raise ValueError("'n' and 's' must be given together")
    if n is not None:
        if not n > s >= 1:
            raise ValueError(f"need n > s >= 1, got n={n}, s={s}")
        if m is not None and m != n - s:
            raise ValueError(f"inconsistent counts: m={m} but n-s={n - s}")
        m = n - s
    if m is None:
        raise ValueError("provide 'm', or 'n' together with 's'")
    if m < 1:
        raise ValueError(f"'m' must be positive, got {m}")
    return m


def dyadic(values: Iterable[float]) -> tuple[list[int], int]:
    """Integers n_j and one power of two d with values[j] == n_j / d exactly.

    Every float is an integer over a power of two, so the largest of those
    denominators is a multiple of all the others: sums of the n_j are exact.
    """
    ratios = [value.as_integer_ratio() for value in values]
    den = max((d for _, d in ratios), default=1)
    shift = den.bit_length()
    return [n << (shift - d.bit_length()) for n, d in ratios], den


def float_or_none(num, den: int = 1) -> float | None:
    """num / den as a float, or None where it lies beyond the float range.

    The one rounding rule for exact values: an integer numerator over an
    integer denominator, divided once (int / int division is correctly
    rounded). A float num with den 1 passes through, None if inf or NaN.
    """
    try:
        value = num / den
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def per_capita_vector(worth: SymmetricWorth) -> tuple[float, ...]:
    return tuple(worth.by_size[k - 1] / k for k in range(1, worth.m + 1))
