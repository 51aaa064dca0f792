"""Reference maths the benchmark checks outputs against.

Nothing here imports coalition_forecast. Every value is rebuilt from first
principles (its own Bell numbers, the rank-one form of the hyperplane rows,
the exact replicator solution, a subset dynamic program, its own
restricted-growth generator), so no check ever calls the function it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def bell_numbers(n: int) -> tuple[int, ...]:
    """B_0..B_n from the recurrence B_{i+1} = sum_k C(i,k) B_k."""
    values = [1]
    for i in range(n):
        values.append(sum(math.comb(i, k) * values[k] for k in range(i + 1)))
    return tuple(values)


def size_weights(m: int) -> list[int]:
    """w_k = C(m,k) B_{m-k}: how often a size-k block occurs over all structures."""
    bell = bell_numbers(m)
    return [math.comb(m, k) * bell[m - k] for k in range(1, m + 1)]


def choice_counts(m: int) -> list[int]:
    """C(m-1,k-1) B_{m-k}: structures that put one fixed agent in a size-k block."""
    bell = bell_numbers(m)
    return [math.comb(m - 1, k - 1) * bell[m - k] for k in range(1, m + 1)]


@dataclass(frozen=True)
class Prediction:
    average_worth: Fraction
    residuals: tuple[Fraction, ...]
    norms_sq: tuple[Fraction, ...]
    argmin_set: frozenset[int]

    @property
    def distances(self) -> tuple[float, ...]:
        return tuple(abs(float(r)) / math.sqrt(float(n2)) if n2 else 0.0
                     for r, n2 in zip(self.residuals, self.norms_sq))

    @property
    def row_norms(self) -> tuple[float, ...]:
        return tuple(math.sqrt(float(n2)) for n2 in self.norms_sq)


def average_worth(by_size) -> Fraction:
    """v~ = sum_k w_k v(k) / (m B_m), exact."""
    m = len(by_size)
    total = sum(w * Fraction(v) for w, v in zip(size_weights(m), by_size))
    return total / (m * bell_numbers(m)[m])


def prediction(by_size) -> Prediction:
    """Residuals, squared row norms and the exact argmin of |r_k| / n_k.

    Row k is e_k/k - w/D with D = m B_m, so r_k = v(k)/k - v~ and
    n_k^2 = 1/k^2 - 2 w_k/(k D) + |w|^2/D^2. The argmin compares r_k^2/n_k^2
    as rationals, so ties are decided exactly.
    """
    m = len(by_size)
    weights = size_weights(m)
    denom = m * bell_numbers(m)[m]
    avg = average_worth(by_size)
    w_sq = sum(w * w for w in weights)
    residuals = tuple(Fraction(v) / k - avg for k, v in enumerate(by_size, start=1))
    norms_sq = tuple(Fraction(1, k * k) - Fraction(2 * w, k * denom) + Fraction(w_sq, denom * denom)
                     for k, w in enumerate(weights, start=1))
    if m == 1:
        argmin = frozenset({1})
    else:
        ratios = [r * r / n2 for r, n2 in zip(residuals, norms_sq)]
        best = min(ratios)
        argmin = frozenset(k for k, q in enumerate(ratios, start=1) if q == best)
    return Prediction(avg, residuals, norms_sq, argmin)


def initial_state(m: int, init: str) -> list[float]:
    if init == "uniform":
        return [1.0 / m] * m
    total = bell_numbers(m)[m]
    return [float(Fraction(c, total)) for c in choice_counts(m)]


def replicator_solution(by_size, init: str, mode: str, t: float) -> list[float]:
    """Exact solution of the replicator ODE with constant payoffs p_k = v(k)/k.

    paper:    x_k(t) = x_k(0) exp((p_k - v~) t)
    weighted: x_k(t) = softmax_k(log x_k(0) + p_k t), via log-sum-exp.
    """
    m = len(by_size)
    x0 = initial_state(m, init)
    payoffs = [v / k for k, v in enumerate(by_size, start=1)]
    if mode == "paper":
        avg = float(average_worth(by_size))
        return [x * math.exp((p - avg) * t) for x, p in zip(x0, payoffs)]
    logs = [math.log(x) + p * t if x > 0 else -math.inf for x, p in zip(x0, payoffs)]
    top = max(logs)
    scaled = [math.exp(g - top) for g in logs]
    total = math.fsum(scaled)
    return [s / total for s in scaled]


def trajectory_mismatch(frequencies, by_size, init: str, mode: str, t: float) -> str | None:
    """None when a state at time t matches the exact solution, else the first bad entry.

    RK4 at step 0.01 tracks the exact solution to about 1e-10 relative over
    t <= 20, so 1e-7 relative (plus 1e-12 of the largest entry) is generous.
    """
    exact = replicator_solution(by_size, init, mode, t)
    scale = max(abs(x) for x in exact)
    for k, (got, want) in enumerate(zip(frequencies, exact), start=1):
        if abs(got - want) > 1e-7 * abs(want) + 1e-12 * scale:
            return f"x_{k}({t:g}) = {got!r}, exact {want!r}"
    return None


def recorded_samples(n_steps: int, record_every: int) -> int:
    """States a fixed-step run keeps: t=0, every record_every-th step, and the last."""
    return 1 + n_steps // record_every + (1 if n_steps % record_every else 0)


def best_structure_worth(m: int, entries) -> float:
    """Best total block worth over all structures, by an O(3^m) subset DP.

    entries[mask] is the worth of the coalition with that bitmask. best[S]
    splits off the block holding S's lowest member and recurses on the rest.
    """
    best = [0.0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        rest = mask ^ low
        value = -math.inf
        sub = rest
        while True:
            block = sub | low
            candidate = entries[block] + best[mask ^ block]
            if candidate > value:
                value = candidate
            if sub == 0:
                break
            sub = (sub - 1) & rest
        best[mask] = value
    return best[(1 << m) - 1]


def sequence_digest(items) -> tuple[int, int]:
    """Count and an order-sensitive fingerprint of a sequence of label tuples.

    Lets a full enumeration be checked without holding B_m partitions in
    memory (hash of a tuple of ints does not vary between processes).
    """
    count = digest = 0
    for labels in items:
        digest = (digest * 1_000_003 + hash(labels)) & 0xFFFF_FFFF_FFFF_FFFF
        count += 1
    return count, digest


@lru_cache(maxsize=None)
def partitions_digest(m: int) -> tuple[int, int]:
    return sequence_digest(restricted_growth_strings(m))


def restricted_growth_strings(m: int):
    """All B_m canonical partitions of m elements, lexicographically, by recursion."""
    labels = [0] * m

    def extend(i: int, top: int):
        if i == m:
            yield tuple(labels)
            return
        for lab in range(top + 2):
            labels[i] = lab
            yield from extend(i + 1, max(top, lab))

    yield from extend(1, 0)
