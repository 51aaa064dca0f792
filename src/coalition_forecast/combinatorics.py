"""Exact integer combinatorics: Bell numbers and set partitions.

Everything here is computed on Python's arbitrary-precision integers, so
the closed-form weights stay exact far beyond the range where explicit
enumeration is feasible.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache, partial
from itertools import accumulate, chain

from .errors import MAX_CLOSED_FORM_M, MAX_ENUMERATION_M, ClosedFormTooLarge, EnumerationTooLarge


_bell = ((1,), [1])  # B_0..B_M and the triangle's last row, for the largest M built so far


def build_bell_table(max_index: int) -> tuple[int, ...]:
    """The tuple (B_0, ..., B_max_index) from the Bell triangle, kept for the largest index yet.

    Each row of the triangle starts with the last entry of the previous row
    and accumulates partial sums; the row head is the next Bell number. Past
    MAX_CLOSED_FORM_M it raises ClosedFormTooLarge before building any row.
    """
    global _bell
    if max_index < 0:
        raise ValueError("max_index must be non-negative")
    if max_index > MAX_CLOSED_FORM_M:
        raise ClosedFormTooLarge(f"closed form too large: m={max_index} exceeds "
                                 f"the bound m={MAX_CLOSED_FORM_M}")
    values, row = _bell
    if max_index >= len(values):  # extend in locals, publish in one assignment
        values = [*values]
        for _ in range(len(values), max_index + 1):
            row = list(accumulate(row, initial=row[-1]))
            values.append(row[0])
        _bell = values, row = tuple(values), row
    return values[:max_index + 1]


class SetPartition(namedtuple("SetPartition", "labels")):
    """One partition of {0,..,m-1} in canonical restricted-growth form.

    labels[i] is the block index of element i, so m is len(labels);
    labels[0] == 0 and each new block index is introduced in order, so equal
    partitions have equal label sequences. Only the walker builds them:
    canonical by construction.
    """

    __slots__ = ()


def _rgs_prefixes(m: int, most: int = 2) -> tuple[int, Iterator]:
    """(t, _walk(m - t + 1)), t = max(1, min(most, m - 1)) trailing: the enumeration bound's owner.

    It checks m, not the shorter walk, before any work that grows with m: callers obtain it first.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m > MAX_ENUMERATION_M:
        raise EnumerationTooLarge(f"enumeration too large: m={m} exceeds "
                                  f"the cap m={MAX_ENUMERATION_M}")
    trailing = max(1, min(most, m - 1))
    return trailing, _walk(m - trailing + 1)


def _walk(m: int) -> Iterator[tuple[list[int], list[int], int]]:
    """Every partition of {0,..,m-1}, one prefix at a time (Knuth's Algorithm H).

    Visits the B_{m-1} restricted-growth prefixes of elements 0..m-2 in
    lexicographic order and yields (labels, masks, nb) for each: labels[i]
    is element i's block and masks[b] the bitmask of block b (zero past the
    nb blocks in use), so block b has masks[b].bit_count() elements. Only
    the trailing labels change between prefixes, and masks follow them, so
    a step costs amortised O(1). A prefix extends to the partitions of t more
    elements by its _tails(nb, t), in lexicographic order. The same two lists
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


@lru_cache(maxsize=None)
def _tails(nb: int, trailing: int) -> tuple[tuple[int, ...], ...]:
    """The labels of `trailing` more elements after a prefix with nb blocks, lexicographic."""
    if not trailing:
        return ((),)
    return tuple((j, *tail) for j in range(nb + 1)
                 for tail in _tails(max(nb, j + 1), trailing - 1))


def enumerate_partitions(m: int) -> Iterator[SetPartition]:
    """All partitions of {0,..,m-1}, lexicographic in restricted-growth form.

    Yields exactly B_m canonical partitions, deterministically: each prefix joined
    with each of its tails. Raises EnumerationTooLarge up front when m exceeds
    errors.MAX_ENUMERATION_M (12), a fixed bound that no argument moves.
    """
    trailing, prefixes = _rgs_prefixes(m)
    return map(partial(tuple.__new__, SetPartition), zip(chain.from_iterable(
        map(tuple(labels).__add__, _tails(nb, trailing)) for labels, _, nb in prefixes)))


class PartitionStats(namedtuple("PartitionStats", "m multiplicity choice_counts")):
    """Exact occurrence counts over all B_m partitions of m elements.

    multiplicity[k-1] counts size-k blocks across every partition;
    choice_counts[k-1] counts the partitions that place a fixed element
    in a size-k block.
    """

    __slots__ = ()


def block_multiplicities(m: int, bell: tuple[int, ...]) -> tuple[int, ...]:
    """How often a size-k block occurs over all B_m partitions, k = 1..m.

    A size-k block can be chosen C(m,k) ways and the remaining m-k elements
    partition freely: C(m,k)*B_{m-k}, no enumeration involved. Every closed
    form reads its counts from bell, B_0..B_m or more, here.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if len(bell) <= m:
        raise ValueError(f"Bell table covers indices up to {len(bell) - 1}, need {m}")
    if bell[0] != 1 or bell[1] != 1:
        raise ValueError("Bell numbers must start 1, 1")
    return tuple(math.comb(m, k) * bell[m - k] for k in range(1, m + 1))


def partition_stats(m: int, bell: tuple[int, ...]) -> PartitionStats:
    """Closed-form block counts: no enumeration involved.

    Fixing one element cuts the C(m,k) choices of a size-k block to
    C(m-1,k-1) = C(m,k)*k/m, so choice_counts follow from the
    multiplicities. The replicator reads its initial frequencies from here.
    """
    multiplicity = block_multiplicities(m, bell)
    choice_counts = tuple(k * count // m for k, count in enumerate(multiplicity, start=1))
    return PartitionStats(m=m, multiplicity=multiplicity, choice_counts=choice_counts)
