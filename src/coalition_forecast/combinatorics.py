"""Exact integer combinatorics: Bell numbers and set partitions.

Everything here is computed on Python's arbitrary-precision integers, so
the closed-form weights stay exact far beyond the range where explicit
enumeration is feasible.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import EnumerationTooLarge

DEFAULT_ENUMERATION_CAP = 12
_CAP_ENV_VAR = "COALITION_FORECAST_ENUM_CAP"


@dataclass(frozen=True)
class BellTable:
    """Bell numbers B_0..B_max_index, exact.

    values[i] is the number of partitions of an i-element set.
    """

    max_index: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.max_index < 0:
            raise ValueError("max_index must be non-negative")
        if len(self.values) != self.max_index + 1:
            raise ValueError("values length must be max_index + 1")
        if self.values[0] != 1 or (self.max_index >= 1 and self.values[1] != 1):
            raise ValueError("Bell numbers must start 1, 1")

    def __getitem__(self, i: int) -> int:
        return self.values[i]


def build_bell_table(max_index: int) -> BellTable:
    """Bell numbers via the Bell triangle.

    Each row of the triangle starts with the last entry of the previous row
    and accumulates partial sums; the row head is the next Bell number.
    """
    values = [1]
    row = [1]
    for _ in range(max_index):
        nxt = [row[-1]]
        for entry in row:
            nxt.append(nxt[-1] + entry)
        row = nxt
        values.append(row[0])
    return BellTable(max_index=max_index, values=tuple(values))


@dataclass(frozen=True)
class SetPartition:
    """One partition of {0,..,m-1} in canonical restricted-growth form.

    labels[i] is the block index of element i, so m is len(labels);
    labels[0] == 0 and each new block index is introduced in order, so equal
    partitions have equal label sequences. Only the walker builds them:
    canonical by construction.
    """

    labels: tuple[int, ...]


def _rgs_prefixes(m: int) -> Iterator[tuple[list[int], list[int], int]]:
    """Every partition of {0,..,m-1}, one prefix at a time (Knuth's Algorithm H).

    Visits the B_{m-1} restricted-growth prefixes of elements 0..m-2 in
    lexicographic order and yields (labels, masks, nb) for each: labels[i]
    is element i's block and masks[b] the bitmask of block b (zero past the
    nb blocks in use), so block b has masks[b].bit_count() elements. Only
    the trailing labels change between prefixes, and masks follow them, so
    a step costs amortised O(1). The partitions of {0,..,m-1} extending a
    prefix are its nb + 1 completions, in lexicographic order: element m-1
    joins block j for j = 0..nb-1, or starts block nb. The same two lists
    are yielded every time; callers must copy what they keep.
    """
    n = m - 1
    labels = [0] * n
    tops = [0] * n  # tops[i] = max(labels[:i]) for i >= 1
    masks = [(1 << n) - 1] + [0] * n
    nb = 1 if n else 0
    while True:
        yield labels, masks, nb
        i = n - 1
        while i > 0 and labels[i] == tops[i] + 1:
            i -= 1
        if i <= 0:
            return
        lab = labels[i]
        labels[i] = lab + 1
        masks[lab] ^= 1 << i
        masks[lab + 1] |= 1 << i
        top = tops[i] if tops[i] > lab else lab + 1
        for j in range(i + 1, n):
            lab = labels[j]
            if lab:
                labels[j] = 0
                masks[lab] ^= 1 << j
                masks[0] |= 1 << j
            tops[j] = top
        nb = top + 1


def _check_cap(m: int, cap: int | None) -> None:
    """m against the cap: the argument, else COALITION_FORECAST_ENUM_CAP, else 12.

    Callers check it before any work, so it computes nothing that grows with m.
    """
    if m < 1:
        raise ValueError("m must be positive")
    source, effective = "the enumeration cap", cap
    if cap is None:
        source, effective = _CAP_ENV_VAR, os.environ.get(_CAP_ENV_VAR, DEFAULT_ENUMERATION_CAP)
        try:
            effective = int(effective)
        except ValueError:
            pass  # not an integer: named as given in the error below
    if isinstance(effective, str) or effective < 1:
        raise ValueError(f"{source} must be a positive integer, got {effective!r}")
    if m > effective:
        raise EnumerationTooLarge(f"enumeration too large: m={m} exceeds the cap m={effective}")


def enumerate_partitions(m: int, cap: int | None = None) -> Iterator[SetPartition]:
    """All partitions of {0,..,m-1}, lexicographic in restricted-growth form.

    Yields exactly B_m canonical partitions, deterministically. Raises
    EnumerationTooLarge up front when m exceeds the cap (default 12,
    overridable via the COALITION_FORECAST_ENUM_CAP environment variable
    or the cap argument).
    """
    _check_cap(m, cap)

    def generate() -> Iterator[SetPartition]:
        for labels, _, nb in _rgs_prefixes(m):
            prefix = tuple(labels)
            for last in range(nb + 1):
                yield SetPartition(labels=prefix + (last,))

    return generate()


@dataclass(frozen=True)
class PartitionStats:
    """Exact occurrence counts over all B_m partitions of m elements.

    multiplicity[k-1] counts size-k blocks across every partition;
    choice_counts[k-1] counts the partitions that place a fixed element
    in a size-k block.
    """

    m: int
    multiplicity: tuple[int, ...]
    choice_counts: tuple[int, ...]


def block_multiplicities(m: int, bell: BellTable) -> tuple[int, ...]:
    """How often a size-k block occurs over all B_m partitions, k = 1..m.

    A size-k block can be chosen C(m,k) ways and the remaining m-k elements
    partition freely: C(m,k)*B_{m-k}, no enumeration involved. Every closed
    form reads its counts from here.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if bell.max_index < m:
        raise ValueError(f"Bell table covers indices up to {bell.max_index}, need {m}")
    return tuple(math.comb(m, k) * bell[m - k] for k in range(1, m + 1))


def partition_stats(m: int, bell: BellTable) -> PartitionStats:
    """Closed-form block counts: no enumeration involved.

    Fixing one element cuts the C(m,k) choices of a size-k block to
    C(m-1,k-1) = C(m,k)*k/m, so choice_counts follow from the
    multiplicities. The replicator reads its initial frequencies from here.
    """
    multiplicity = block_multiplicities(m, bell)
    choice_counts = tuple(k * count // m for k, count in enumerate(multiplicity, start=1))
    return PartitionStats(m=m, multiplicity=multiplicity, choice_counts=choice_counts)
