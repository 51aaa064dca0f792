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
shared rank-one term, so its value at the point and its norm are O(m). The
parts that depend on m and the Bell table alone, the weights and the row
norms, are kept per process (`_geometry`), so a call pays only for its worths.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .combinatorics import block_multiplicities
from .errors import MAX_PLANES_M, ClosedFormTooLarge
from .worth import SymmetricWorth, dyadic, float_or_none

# The forecast mix predicts at 9 distinct m, {2, 3, 6, 8, 10, 12, 24, 48, 96}; an entry
# holds about 25 KB at m = 96 and 5.5 MB at m = 1 500, so 16 need at most about 90 MB.
GEOMETRY_ENTRIES = 16


@lru_cache(maxsize=GEOMETRY_ENTRIES)
def _geometry(m: int, bell: tuple[int, ...]) -> tuple:
    """w_j = C(m,j) B_{m-j}, D = m B_m, and `predict`'s Q_k, log2 Q_k and row norms.

    All depend on m and B_0..B_m alone, the key, which `block_multiplicities` reads and
    checks; a short table raises, and a raise caches nothing. At m = 1, Q_1 = 0 has no log2.
    """
    weights = block_multiplicities(m, bell)
    unit = m * bell[m]
    w_sq = sum(w * w for w in weights)
    norms_sq = tuple(unit * unit - 2 * k * unit * w + k * k * w_sq
                     for k, w in enumerate(weights, start=1))
    return (weights, unit, norms_sq, tuple(map(math.log2, norms_sq)) if m > 1 else (),
            tuple(math.sqrt(q / (k * unit) ** 2) for k, q in enumerate(norms_sq, start=1)))


def _exact_average(worth: SymmetricWorth, bell: tuple[int, ...]) -> tuple:
    """The `_geometry` of worth.m, den, S and the residuals.

    With the worths n_j / den (`dyadic`), the average is S / (D den) for
    S = sum_j n_j w_j, and residual k is R_k / (k D den), R_k = n_k D - k S;
    the residuals come as a generator of (R_k, k D den).
    """
    geometry = weights, unit, *_ = _geometry(worth.m, tuple(bell[:worth.m + 1]))
    numerators, den = dyadic(worth.by_size)
    total = sum(n * w for n, w in zip(numerators, weights))
    return geometry, den, total, ((n * unit - k * total, k * unit * den)
                                  for k, n in enumerate(numerators, start=1))


def average_worth(worth: SymmetricWorth, bell: tuple[int, ...]) -> float:
    """Population-average per-agent worth under uniform structure formation.

    An exact weighted mean of finite worths, so it is finite: divided once.
    """
    (_, unit, *_), den, total, _ = _exact_average(worth, bell)
    return total / (unit * den)


class HyperplaneSystem(namedtuple("HyperplaneSystem",
                                  "m integer_rows row_denominators row_norms degenerate")):
    """The m equilibrium hyperplanes in worth space.

    Row k, the form v -> v(k)/k - (average worth of v), is the integers
    D [j = k] - k w_j over row_denominators[k-1] = k D; coefficients and
    exact_rows give it as floats and as exact rationals. row_norms normalize
    distances. For m=1 the single row is identically zero and the system is
    flagged degenerate (row norm 0).
    """

    __slots__ = ()

    @property
    def coefficients(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(a / d for a in row)
                     for row, d in zip(self.integer_rows, self.row_denominators))

    @property
    def exact_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        from fractions import Fraction  # only callers of exact_rows pay for its import

        return tuple(tuple(Fraction(a, d) for a in row)
                     for row, d in zip(self.integer_rows, self.row_denominators))


def hyperplane_system(m: int, bell: tuple[int, ...]) -> HyperplaneSystem:
    """Coefficient matrix of the per-size equilibrium conditions, for m <= MAX_PLANES_M."""
    weights = block_multiplicities(m, bell)
    if m > MAX_PLANES_M:
        raise ClosedFormTooLarge(f"hyperplane system too large: m={m} exceeds the bound "
                                 f"m={MAX_PLANES_M}")
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


class PredictionReport(namedtuple("PredictionReport", "m average_worth residuals distances "
                                  "argmin_set chosen_size degenerate notes")):
    """Outcome of the min-distance prediction for one worth vector.

    distances and residuals are indexed by coalition size (k ascending);
    an entry whose value lies beyond the float range is None, and a note
    names its sizes. argmin_set is the frozenset of sizes at exactly the
    minimum distance; chosen_size is its smallest element.
    """

    __slots__ = ()


def predict(point: SymmetricWorth, bell: tuple[int, ...]) -> PredictionReport:
    """Predict the coalition size a representative outsider joins.

    The worth vector is treated as a point in m-space; the predicted size
    minimizes the normalized distance |r_k| / n_k to the k-th hyperplane.
    Row k is e_k/k - w/D, so r_k = R_k / (k D den) and n_k^2 = Q_k / (k D)^2
    with Q_k = D^2 - 2 k D w_k + k^2 |w|^2 > 0 for m >= 2. The sizes that a float
    filter keeps near the least R_k^2 / Q_k are compared cross-multiplied as
    integers, so ties are exact and the decision is invariant under positive
    scaling; every tied size is reported and the smallest wins. Floats are for
    display only.
    """
    m = point.m
    (_, unit, norms_sq, lq, norms), den, total, exact = _exact_average(point, bell)
    nums, dens = zip(*exact)
    eps = tuple(map(float_or_none, nums, dens))
    degenerate = m == 1
    notes = []
    if degenerate:
        # the lone row is identically zero: every point lies on the plane
        dists = (0.0,)
        argmin = frozenset({1})
        notes.append("degenerate: with one outsider the single equation is vacuous")
    else:
        dists = tuple(None if r is None else float_or_none(abs(r), n) for r, n in zip(eps, norms))
        # Filter, then decide exactly (Shewchuk, DCG 18, 1997): log2 reads an int with
        # relative error <= 2^-53, so for libm within u ulps and L >= 1 above every log2
        # each 2a - b errs by <= 2^-52 (6u + 7) L. For u <= 300 the margin 2^-40 L holds
        # every exact minimizer, the bound's rounding too; R_k = 0, the minimum, is -inf.
        lr = [math.log2(abs(r)) if r else -math.inf for r in nums]
        logs = [2 * a - b for a, b in zip(lr, lq)]
        bound = min(logs) + max(1.0, *lr, *lq) * 2.0 ** -40
        ties = []  # each size within the margin is cross-multiplied once, with ties[0]
        for i in [i for i, x in enumerate(logs) if x <= bound]:
            c = nums[i] ** 2 * norms_sq[ties[0]] - nums[ties[0]] ** 2 * norms_sq[i] if ties else -1
            ties = [i] if c < 0 else [*ties, i] if c == 0 else ties
        argmin = frozenset(i + 1 for i in ties)
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
