"""Coalition worths for the outsider population.

A general characteristic function assigns a worth to every non-empty
subset of the m outsiders. Under the interchangeable-agents assumption
it collapses to a per-size vector; `reduce_to_symmetric` performs (and
polices) that collapse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

DEFAULT_SYMMETRY_TOLERANCE = 1e-9


class SymmetryViolation(ValueError):
    """Two same-size coalitions disagree by more than the tolerance."""

    def __init__(self, coalition_a: tuple[int, ...], worth_a: float,
                 coalition_b: tuple[int, ...], worth_b: float) -> None:
        self.coalition_a = coalition_a
        self.worth_a = worth_a
        self.coalition_b = coalition_b
        self.worth_b = worth_b
        self.gap = abs(worth_a - worth_b)
        super().__init__(
            f"symmetry violation: v({set(coalition_a)}) = {worth_a} but "
            f"v({set(coalition_b)}) = {worth_b} (gap {self.gap})"
        )


def members_to_mask(members: Iterable[int], m: int) -> int:
    mask = 0
    for elem in members:
        if not 0 <= elem < m:
            raise ValueError(f"member {elem} outside 0..{m - 1}")
        bit = 1 << elem
        if mask & bit:
            raise ValueError(f"member {elem} listed twice")
        mask |= bit
    if mask == 0:
        raise ValueError("coalition must be non-empty")
    return mask


def mask_to_members(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class CharacteristicFunction:
    """Worth of every non-empty subset of the m outsiders.

    entries maps subset bitmasks (bit i set = outsider i present) to
    finite real worths, one entry per non-empty subset.
    """

    m: int
    entries: Mapping[int, float]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be positive")
        expected = (1 << self.m) - 1
        if len(self.entries) != expected:
            raise ValueError(
                f"characteristic function for m={self.m} needs {expected} "
                f"coalition worths, got {len(self.entries)}"
            )
        for mask, value in self.entries.items():
            if not 1 <= mask <= expected:
                raise ValueError(f"invalid coalition bitmask {mask} for m={self.m}")
            if not math.isfinite(value):
                raise ValueError(f"worth of coalition {mask_to_members(mask)} is not finite")


@dataclass(frozen=True)
class SymmetricWorth:
    """Per-size worths (v(1),..,v(m)) of outsider coalitions."""

    m: int
    by_size: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be positive")
        if len(self.by_size) != self.m:
            raise ValueError("by_size must have one worth per coalition size 1..m")
        for k, value in enumerate(self.by_size, start=1):
            if not math.isfinite(value):
                raise ValueError(f"v({k}) is not finite")


def _agree(a: float, b: float, tolerance: float) -> bool:
    # relative for large magnitudes, absolute floor of `tolerance` near zero
    return abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))


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
        lo = min(group, key=lambda item: item[1])
        hi = max(group, key=lambda item: item[1])
        if not _agree(lo[1], hi[1], tolerance):
            raise SymmetryViolation(mask_to_members(lo[0]), lo[1],
                                    mask_to_members(hi[0]), hi[1])
        if lo[1] == hi[1]:
            by_size.append(lo[1])  # constant class: stay exact, no mean rounding
        else:
            numerators, den = dyadic(value for _, value in group)  # the exact mean, finite
            by_size.append(sum(numerators) / (den * len(group)))
    return SymmetricWorth(m=cf.m, by_size=tuple(by_size))


def expand_to_characteristic(worth: SymmetricWorth) -> CharacteristicFunction:
    """Characteristic function giving every size-k coalition the worth v(k)."""
    entries = {mask: worth.by_size[mask.bit_count() - 1]
               for mask in range(1, 1 << worth.m)}
    return CharacteristicFunction(m=worth.m, entries=entries)


def worth_from_json(value) -> float:
    """A worth read from JSON: a number, never a boolean or numeric text."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        kind = "a boolean" if isinstance(value, bool) else repr(value)
        raise ValueError(f"a worth must be a number, not {kind}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("a worth lies beyond the float range") from None


def characteristic_from_coalitions(m: int, coalitions: Iterable[Mapping]) -> CharacteristicFunction:
    """Build a characteristic function from explicit coalition records.

    Each record carries "members" (list of outsider indices) and "worth".
    Every non-empty subset must appear exactly once.
    """
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
        mask = members_to_mask(members, m)
        if mask in entries:
            raise ValueError(f"coalition {tuple(sorted(members))} listed twice")
        entries[mask] = value
    return CharacteristicFunction(m=m, entries=entries)


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
