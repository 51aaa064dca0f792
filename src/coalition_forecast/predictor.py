"""Average worth, the equilibrium hyperplane system, and the min-distance rule.

A representative outsider choosing a coalition size k earns v(k)/k; the
population-average worth over uniformly random coalition structures is a
fixed weighted mean of the v(j). Setting each per-capita worth equal to
that average yields m linear equations in (v(1),..,v(m)): one hyperplane
per size. The predicted size is the plane closest (in normalized Euclidean
distance) to the actual worth vector.

Every exact value is an integer over one integer denominator (worths are
integers over a power of two, row k is integers over k m B_m), rounded once
by int / int division (`worth.float_or_none`), so the residual and matrix
paths agree bit for bit. A value beyond the float range is never inf: `predict` reports it as
None, and the matrix-path functions raise ValueError naming its sizes.
`predict` never builds the matrix: every row is a diagonal term plus one
shared rank-one term, so its value at the point and its norm are O(m).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cmp_to_key

from .combinatorics import BellTable, partition_stats
from .worth import SymmetricWorth, dyadic, float_or_none


def _exact_average(worth: SymmetricWorth, bell: BellTable) -> tuple:
    """Weights w_j = C(m,j) B_{m-j}, D = m B_m, den, S and the residuals.

    With the worths n_j / den (`dyadic`), the average is S / (D den) for
    S = sum_j n_j w_j, and residual k is R_k / (k D den), R_k = n_k D - k S;
    the residuals come as a generator of (R_k, k D den).
    """
    weights = partition_stats(worth.m, bell).multiplicity
    numerators, den = dyadic(worth.by_size)
    unit = worth.m * bell[worth.m]
    total = sum(n * w for n, w in zip(numerators, weights))
    return weights, unit, den, total, ((n * unit - k * total, k * unit * den)
                                       for k, n in enumerate(numerators, start=1))


def average_worth(worth: SymmetricWorth, bell: BellTable) -> float:
    """Population-average per-agent worth under uniform structure formation.

    An exact weighted mean of finite worths, so it is finite: divided once.
    """
    _, unit, den, total, _ = _exact_average(worth, bell)
    return total / (unit * den)


@dataclass(frozen=True)
class HyperplaneSystem:
    """The m equilibrium hyperplanes in worth space.

    Row k, the form v -> v(k)/k - (average worth of v), is the integers
    D [j = k] - k w_j over row_denominators[k-1] = k D; coefficients and
    exact_rows give it as floats and as exact rationals. row_norms normalize
    distances. For m=1 the single row is identically zero and the system is
    flagged degenerate (row norm 0).
    """

    m: int
    integer_rows: tuple[tuple[int, ...], ...]
    row_denominators: tuple[int, ...]
    row_norms: tuple[float, ...]
    degenerate: bool

    @property
    def coefficients(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(a / d for a in row)
                     for row, d in zip(self.integer_rows, self.row_denominators))

    @property
    def exact_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(a, d) for a in row)
                     for row, d in zip(self.integer_rows, self.row_denominators))


def hyperplane_system(m: int, bell: BellTable) -> HyperplaneSystem:
    """Coefficient matrix of the per-size equilibrium conditions."""
    weights = partition_stats(m, bell).multiplicity
    unit = m * bell[m]
    rows = tuple(tuple(unit * (j == k) - k * w for j, w in enumerate(weights, start=1))
                 for k in range(1, m + 1))
    denominators = tuple(k * unit for k in range(1, m + 1))
    norms = tuple(math.sqrt(sum(a * a for a in row) / (d * d))
                  for row, d in zip(rows, denominators))
    return HyperplaneSystem(m=m, integer_rows=rows, row_denominators=denominators,
                            row_norms=norms, degenerate=(m == 1))


def _in_float_range(name: str, ratios) -> tuple[float, ...]:
    """Each (num, den) rounded once; a ValueError names the sizes beyond the float range."""
    values = [float_or_none(num, den) for num, den in ratios]
    beyond = [k for k, x in enumerate(values, start=1) if x is None]
    if beyond:
        raise ValueError(f"{name} for sizes {beyond} lie beyond the float range")
    return tuple(values)


def evaluate_planes(point: SymmetricWorth, system: HyperplaneSystem) -> tuple[float, ...]:
    """Signed value of each plane's linear form at the point.

    One full integer dot product per row, independent of `predict`'s rank-one form.
    """
    if point.m != system.m:
        raise ValueError(f"point has m={point.m} but system has m={system.m}")
    numerators, den = dyadic(point.by_size)
    return _in_float_range("plane values", (
        (sum(a * n for a, n in zip(row, numerators)), d * den)
        for row, d in zip(system.integer_rows, system.row_denominators)
    ))


def distances(point: SymmetricWorth, system: HyperplaneSystem) -> tuple[float, ...]:
    """Euclidean point-to-hyperplane distances, one per coalition size.

    For the degenerate m=1 system the lone plane is all of worth space;
    the distance is defined as 0 (system.degenerate signals the case).
    """
    values = evaluate_planes(point, system)  # also checks the point's m
    if system.degenerate:
        return (0.0,)
    return _in_float_range("distances", zip(map(abs, values), system.row_norms))


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
    Row k is e_k/k - w/D, so r_k = R_k / (k D den) and n_k^2 = Q_k / (k D)^2
    with Q_k = D^2 - 2 k D w_k + k^2 |w|^2 > 0 for m >= 2. Sizes are compared
    by R_k^2 / Q_k, cross-multiplied as integers, so ties are exact and the
    decision is invariant under positive scaling; every tied size is
    reported and the smallest wins. Floats are for display only.
    """
    m = point.m
    weights, unit, den, total, exact = _exact_average(point, bell)
    exact_residuals = list(exact)
    w_sq = sum(w * w for w in weights)
    norms_sq = [unit * unit - 2 * k * unit * w + k * k * w_sq
                for k, w in enumerate(weights, start=1)]
    eps = tuple(float_or_none(*ratio) for ratio in exact_residuals)
    degenerate = m == 1
    notes = []
    if degenerate:
        # the lone row is identically zero: every point lies on the plane
        dists = (0.0,)
        argmin = frozenset({1})
        notes.append("degenerate: with one outsider the single equation is vacuous")
    else:
        dists = tuple(None if r is None else float_or_none(abs(r), math.sqrt(q / (k * unit) ** 2))
                      for k, (r, q) in enumerate(zip(eps, norms_sq), start=1))
        sq = [r * r for r, _ in exact_residuals]
        by_ratio = cmp_to_key(lambda i, j: sq[i] * norms_sq[j] - sq[j] * norms_sq[i])
        best = min(map(by_ratio, range(m)))
        argmin = frozenset(i + 1 for i in range(m) if by_ratio(i) == best)
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
        average_worth=total / (unit * den),
        residuals=eps,
        distances=dists,
        argmin_set=argmin,
        chosen_size=chosen,
        degenerate=degenerate,
        notes=tuple(notes),
    )
