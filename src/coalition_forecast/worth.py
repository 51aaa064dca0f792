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

    def worth(self, members: Iterable[int]) -> float:
        return self.entries[members_to_mask(members, self.m)]


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

    def of_size(self, k: int) -> float:
        if not 1 <= k <= self.m:
            raise IndexError(f"coalition size {k} outside 1..{self.m}")
        return self.by_size[k - 1]


def _agree(a: float, b: float, tolerance: float) -> bool:
    # relative for large magnitudes, absolute floor of `tolerance` near zero
    return abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))


def reduce_to_symmetric(cf: CharacteristicFunction,
                        tolerance: float = DEFAULT_SYMMETRY_TOLERANCE) -> SymmetricWorth:
    """Collapse a characteristic function to its per-size worth vector.

    All coalitions of a given size must agree within `tolerance`
    (relative, with an absolute floor near zero); the reported v(k) is
    their mean. Raises SymmetryViolation naming the extreme pair otherwise.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    by_size = []
    for k in range(1, cf.m + 1):
        group = [(mask, value) for mask, value in cf.entries.items()
                 if mask.bit_count() == k]
        lo = min(group, key=lambda item: item[1])
        hi = max(group, key=lambda item: item[1])
        if not _agree(lo[1], hi[1], tolerance):
            raise SymmetryViolation(mask_to_members(lo[0]), lo[1],
                                    mask_to_members(hi[0]), hi[1])
        if lo[1] == hi[1]:
            by_size.append(lo[1])  # constant class: stay exact, no mean rounding
        else:
            by_size.append(math.fsum(value for _, value in group) / len(group))
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


def per_capita(worth: SymmetricWorth, k: int) -> float:
    """Equal share v(k)/k of an agent inside a size-k coalition."""
    return worth.of_size(k) / k


def per_capita_vector(worth: SymmetricWorth) -> tuple[float, ...]:
    return tuple(worth.by_size[k - 1] / k for k in range(1, worth.m + 1))
