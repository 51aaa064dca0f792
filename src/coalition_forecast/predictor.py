"""Average worth, the equilibrium hyperplane system, and the min-distance rule.

A representative outsider choosing a coalition size k earns v(k)/k; the
population-average worth over uniformly random coalition structures is a
fixed weighted mean of the v(j). Setting each per-capita worth equal to
that average yields m linear equations in (v(1),..,v(m)): one hyperplane
per size. The predicted size is the plane closest (in normalized Euclidean
distance) to the actual worth vector.

All coefficients are assembled in exact integer/rational arithmetic and
converted to float only at the final step, so algebraic identities between
the residual and matrix paths survive at full precision. A value beyond the
float range is never returned as inf: `predict` reports it as None, and
the matrix-path functions raise ValueError naming its sizes. The prediction
itself never builds the matrix: every row is a diagonal term plus one shared
rank-one term, so its value at the point and its norm are O(m) rationals.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterator

from .combinatorics import BellTable, partition_stats
from .worth import SymmetricWorth, dyadic, float_or_none


def _exact_average(worth: SymmetricWorth,
                   bell: BellTable) -> tuple[tuple[int, ...], Fraction, Iterator[Fraction]]:
    """Occurrence weights w_j, the average worth and the residuals, all exact.

    The average is sum_j w_j v(j) / (m B_m) with w_j = C(m,j) B_{m-j}, summed
    as integers over one power-of-two denominator and divided once. The
    residuals v(k)/k - average come as a generator, so a caller that needs
    only the average does not pay for them.
    """
    m = worth.m
    weights = partition_stats(m, bell).multiplicity
    numerators, den = dyadic(worth.by_size)
    avg = Fraction(sum(n * w for n, w in zip(numerators, weights)), den * m * bell[m])
    return weights, avg, (Fraction(v) / k - avg for k, v in enumerate(worth.by_size, start=1))


def average_worth(worth: SymmetricWorth, bell: BellTable) -> float:
    """Population-average per-agent worth under uniform structure formation.

    Weighted mean of the v(j) with exact integer weights; the single
    division happens at the end.
    """
    return float(_exact_average(worth, bell)[1])


def _exact_rows(m: int, bell: BellTable) -> tuple[tuple[Fraction, ...], ...]:
    """Row k is the linear form v -> v(k)/k - (average worth of v)."""
    weights = partition_stats(m, bell).multiplicity
    denom = m * bell[m]
    rows = []
    for k in range(1, m + 1):
        row = [-Fraction(w, denom) for w in weights]
        row[k - 1] += Fraction(1, k)
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class HyperplaneSystem:
    """The m equilibrium hyperplanes in worth space.

    coefficients holds float rows; exact_rows the same rows as exact
    rationals; row_norms the Euclidean norms used to normalize distances.
    For m=1 the single row is identically zero and the system is flagged
    degenerate (row norm 0).
    """

    m: int
    coefficients: tuple[tuple[float, ...], ...]
    exact_rows: tuple[tuple[Fraction, ...], ...]
    row_norms: tuple[float, ...]
    degenerate: bool


def hyperplane_system(m: int, bell: BellTable) -> HyperplaneSystem:
    """Coefficient matrix of the per-size equilibrium conditions."""
    exact = _exact_rows(m, bell)
    coefficients = tuple(tuple(float(a) for a in row) for row in exact)
    row_norms = tuple(
        math.sqrt(float(sum(a * a for a in row))) for row in exact
    )
    return HyperplaneSystem(
        m=m,
        coefficients=coefficients,
        exact_rows=exact,
        row_norms=row_norms,
        degenerate=(m == 1),
    )


def _in_float_range(name: str, values: list[float | None]) -> tuple[float, ...]:
    beyond = [k for k, x in enumerate(values, start=1) if x is None]
    if beyond:
        raise ValueError(f"{name} for sizes {beyond} lie beyond the float range")
    return tuple(values)


def residuals(worth: SymmetricWorth, bell: BellTable) -> tuple[float, ...]:
    """Per-size deviations v(k)/k - average worth, exact core."""
    return _in_float_range("residuals", [float_or_none(r) for r in _exact_average(worth, bell)[2]])


def evaluate_planes(point: SymmetricWorth, system: HyperplaneSystem) -> tuple[float, ...]:
    """Signed value of each plane's linear form at the point (row dot product)."""
    if point.m != system.m:
        raise ValueError(f"point has m={point.m} but system has m={system.m}")
    return _in_float_range("plane values", [
        float_or_none(sum(a * Fraction(p) for a, p in zip(row, point.by_size)))
        for row in system.exact_rows
    ])


def distances(point: SymmetricWorth, system: HyperplaneSystem) -> tuple[float, ...]:
    """Euclidean point-to-hyperplane distances, one per coalition size.

    For the degenerate m=1 system the lone plane is all of worth space;
    the distance is defined as 0 (system.degenerate signals the case).
    """
    if system.degenerate:
        if point.m != system.m:
            raise ValueError(f"point has m={point.m} but system has m={system.m}")
        return (0.0,)
    values = evaluate_planes(point, system)
    return _in_float_range("distances", [
        float_or_none(abs(v) / n) for v, n in zip(values, system.row_norms)
    ])


@dataclass(frozen=True)
class PredictionReport:
    """Outcome of the min-distance prediction for one worth vector.

    distances and residuals are indexed by coalition size (k ascending);
    an entry whose value lies beyond the float range is None, and a note
    names its sizes. argmin_set collects the sizes at exactly the minimum
    distance; chosen_size is its smallest element.
    """

    m: int
    average_worth: float
    residuals: tuple[float | None, ...]
    distances: tuple[float | None, ...]
    argmin_set: frozenset[int]
    chosen_size: int
    degenerate: bool
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {**asdict(self), "argmin_set": sorted(self.argmin_set)}


def predict(point: SymmetricWorth, bell: BellTable) -> PredictionReport:
    """Predict the coalition size a representative outsider joins.

    The worth vector is treated as a point in m-space; the predicted size
    minimizes the normalized distance |r_k| / n_k to the k-th hyperplane.
    Row k is e_k/k - w/D with occurrence weights w and D = m B_m, so
    r_k = v(k)/k - average worth and n_k^2 = 1/k^2 - 2 w_k/(k D) + |w|^2/D^2,
    both exact. Sizes are compared by r_k^2 / n_k^2 as rationals, so ties
    are exact and the decision is invariant under positive scaling; every
    tied size is reported and the smallest wins. Floats are for display only.
    """
    m = point.m
    weights, avg, exact = _exact_average(point, bell)
    exact_residuals = list(exact)
    denom = m * bell[m]
    w_sq = sum(w * w for w in weights)
    norms_sq = [Fraction(denom * denom - 2 * k * denom * w + k * k * w_sq, (k * denom) ** 2)
                for k, w in enumerate(weights, start=1)]
    eps = tuple(float_or_none(r) for r in exact_residuals)
    degenerate = m == 1
    notes = []
    if degenerate:
        # the lone row is identically zero: every point lies on the plane
        dists = (0.0,)
        argmin = frozenset({1})
        notes.append("degenerate: with one outsider the single equation is vacuous")
    else:
        dists = tuple(None if r is None else float_or_none(abs(r) / math.sqrt(float(n2)))
                      for r, n2 in zip(eps, norms_sq))
        ratios = [r * r / n2 for r, n2 in zip(exact_residuals, norms_sq)]
        best = min(ratios)
        argmin = frozenset(k for k, q in enumerate(ratios, start=1) if q == best)
    chosen = min(argmin)
    if m % chosen != 0:
        notes.append(
            f"chosen size {chosen} does not divide m={m}; no complete "
            f"structure of equal-size coalitions exists"
        )
    for name, values in (("residuals", eps), ("distances", dists)):
        beyond = [k for k, x in enumerate(values, start=1) if x is None]
        if beyond:
            notes.append(f"{name} for sizes {beyond} lie beyond the float range; "
                         f"reported as null")
    return PredictionReport(
        m=m,
        average_worth=float(avg),
        residuals=eps,
        distances=dists,
        argmin_set=argmin,
        chosen_size=chosen,
        degenerate=degenerate,
        notes=tuple(notes),
    )
