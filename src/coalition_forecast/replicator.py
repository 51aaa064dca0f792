"""Replicator dynamics over the m size-grouped coalition choices.

The per-capita payoffs do not depend on the frequencies, so the equation
has an exact solution (Hofbauer & Sigmund, Evolutionary Games and
Population Dynamics, 1998, §7). Two notions of the population average are
supported. In the constant-average mode the benchmark is the
structure-uniform average worth, a frequency-independent constant, so the
simplex is not invariant and the raw frequencies are reported with their
drift. In the frequency-weighted mode the benchmark is the usual mean
payoff at the current frequencies, and the solution stays on the simplex.
"""

from __future__ import annotations

import enum
import math
import sys
from collections import namedtuple

from .combinatorics import partition_stats
from .errors import MAX_SAMPLES, MAX_STATE_VALUES, IntegrationError, TooManySamples
from .predictor import average_worth
from .worth import SymmetricWorth, dyadic, float_or_none, per_capita_vector


class Mode(enum.Enum):
    PAPER_CONSTANT_AVERAGE = "paper_constant_average"
    FREQUENCY_WEIGHTED = "frequency_weighted"


DEFAULT_STEP_SIZE = 0.01
_FLOAT_MAX = sys.float_info.max


class ReplicatorState(namedtuple("ReplicatorState", "time frequencies")):
    """Frequencies of the m size choices at one instant."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs __new__'s checks

    def __new__(cls, time: float, frequencies: tuple[float, ...]) -> ReplicatorState:
        if not 0.0 <= time <= _FLOAT_MAX:
            raise ValueError("time must be finite and non-negative")
        if not frequencies:
            raise ValueError("frequencies must be non-empty")
        if not all(0.0 <= x <= _FLOAT_MAX for x in frequencies):
            raise ValueError("frequencies must be finite and non-negative")
        return super().__new__(cls, time, frequencies)

    @property
    def m(self) -> int:
        return len(self.frequencies)


class DynamicsConfig(namedtuple("DynamicsConfig", "mode step_size horizon record_every")):
    """Which average to use, and when to sample the solution.

    step_size is the sampling interval: a run records t=0, then
    t = step * step_size at every record_every-th step and at the last one,
    round(horizon / step_size).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs __new__'s checks

    def __new__(cls, mode: Mode = Mode.PAPER_CONSTANT_AVERAGE,
                step_size: float = DEFAULT_STEP_SIZE, horizon: float = 10.0,
                record_every: int = 1) -> DynamicsConfig:
        if not 0.0 < step_size <= _FLOAT_MAX:
            raise ValueError("step_size must be positive and finite")
        if not step_size < horizon <= _FLOAT_MAX:
            raise ValueError("horizon must be finite and exceed step_size")
        if type(record_every) is not int or record_every < 1:  # a bool is not int
            raise ValueError(f"record_every must be an integer of at least 1, "
                             f"got {record_every!r}")
        return super().__new__(cls, mode, step_size, horizon, record_every)


class Trajectory(namedtuple("Trajectory", "states clamp_events max_simplex_drift")):
    """The states one `integrate` run records, t = 0 first, and their largest |sum(x) - 1|.

    clamp_events is always 0, as the exact solution clamps nothing. It stays
    only because the benchmark (perfbench/inprocess.py) reads it.
    """

    __slots__ = ()

    @property
    def terminal(self) -> ReplicatorState:
        return self.states[-1]


def initial_frequencies(m: int, bell: tuple[int, ...]) -> ReplicatorState:
    """Uniform distribution over raw structures, pushed forward to sizes.

    A fixed agent lands in a size-k coalition in C(m-1,k-1)*B_{m-k} of the
    B_m structures, so x_k(0) is that count over B_m. The counts sum to
    B_m exactly, which is the Bell recurrence.
    """
    counts = partition_stats(m, bell).choice_counts
    return ReplicatorState(time=0.0, frequencies=tuple(c / bell[m] for c in counts))


def uniform_frequencies(m: int) -> ReplicatorState:
    """Uniform over the m size groups (alternative initial condition)."""
    if m < 1:
        raise ValueError("m must be positive")
    return ReplicatorState(time=0.0, frequencies=(1.0 / m,) * m)


def _total(x) -> float:
    """math.fsum(x), or inf where its partial sums pass the float maximum."""
    try:
        return math.fsum(x)
    except OverflowError:
        return math.inf


def integrate(start: ReplicatorState, worth: SymmetricWorth,
              config: DynamicsConfig, bell: tuple[int, ...]) -> Trajectory:
    """The exact solution at t=0 and at the recorded times.

    x_k(t) = x_k(0) exp((p_k - s) t) with s the constant average in paper
    mode; in weighted mode s is the top payoff of a surviving strategy and
    x(t) is normalized, the softmax of log x_k(0) + p_k t, whose exponents
    are never positive. A paper-mode state beyond the float range raises
    IntegrationError. Each sample is checked once, as it is computed, and
    built with tuple.__new__, which skips ReplicatorState's checks: the one
    unchecked construction in the package. Extinct strategies stay exactly
    0, clamp_events is 0, and max_simplex_drift is the largest |sum(x) - 1|
    over the states. rest_point_check(trajectory.terminal, ...) reports the
    terminal payoff deviations.
    """
    if start.m != worth.m:
        raise ValueError(f"start has m={start.m} but worth has m={worth.m}")
    h, every = config.step_size, config.record_every
    # float against int compares exactly, even where the ratio is too large to
    # round to an int; the bound holds before any sample is computed
    if config.horizon / h > MAX_SAMPLES * every:
        raise TooManySamples(f"horizon {config.horizon:g} at step {h:g}, recording every "
                             f"{every}, needs more than {MAX_SAMPLES} samples")
    n_steps = round(config.horizon / h)
    if n_steps * h > _FLOAT_MAX:  # the last sample time
        raise ValueError(f"horizon {config.horizon:g} at step {h:g} ends beyond the float range")
    recorded = 1 + -(-n_steps // every)  # t = 0, then the loop's ceil(n_steps / every)
    if worth.m * recorded > MAX_STATE_VALUES:
        raise TooManySamples(f"m={worth.m} times {recorded} recorded states exceeds the bound "
                             f"of {MAX_STATE_VALUES} values")
    payoffs = per_capita_vector(worth)
    x0 = start.frequencies
    weighted = config.mode is Mode.FREQUENCY_WEIGHTED
    if weighted:
        alive = [p for x, p in zip(x0, payoffs) if x > 0.0]
        if not alive:
            raise IntegrationError("population vanished: every frequency is 0")
        shift = max(alive)
    else:
        shift = average_worth(worth, bell)
    # rate 0 for an extinct strategy: 0 * exp(0) stays 0 whatever its payoff
    rates = [p - shift if x > 0.0 else 0.0 for x, p in zip(x0, payoffs)]

    states = [tuple.__new__(ReplicatorState, (0.0, x0))]  # start checked x0 when built
    drift = abs(_total(x0) - 1.0)
    # every record_every-th step, then n_steps: min() turns the range's last into it
    for step in range(every, n_steps + every, every):
        t = min(step, n_steps) * h
        try:
            x = [xk * math.exp(r * t) for xk, r in zip(x0, rates)]
            if weighted:  # fsum rounds once, so every Python prints the same bytes
                total = math.fsum(x)  # at least the top strategy's x_k(0) > 0
                x = [xk / total for xk in x]
        except OverflowError:  # math.exp, or the total to normalize
            finite = False
        else:
            total = _total(x)
            # entries are non-negative: an inf or NaN one makes the total inf or
            # NaN, as can finite ones in paper mode (drift inf)
            finite = total <= _FLOAT_MAX or all(xk <= _FLOAT_MAX for xk in x)
        if not finite:
            raise IntegrationError(f"non-finite frequencies at t={t:g}: the growth "
                                   f"exp((p_k - v~) t) leaves the float range")
        drift = max(drift, abs(total - 1.0))
        states.append(tuple.__new__(ReplicatorState, (t, tuple(x))))
    return Trajectory(states=tuple(states), clamp_events=0, max_simplex_drift=drift)


class RestPointReport(namedtuple("RestPointReport",
                                 "is_rest_point statuses growth_rates payoff_deviations")):
    """Whether a state is a rest point, and per strategy its status (extinct, equilibrated
    or active), growth rate and payoff deviation, None beyond the float range."""

    __slots__ = ()


def rest_point_check(state: ReplicatorState, worth: SymmetricWorth, mode: Mode,
                     bell: tuple[int, ...], tolerance: float) -> RestPointReport:
    """Is the state a rest point: every strategy extinct or at the average?

    growth_rates is the replicator field dx_k/dt = x_k * (p_k - average): a
    rate beyond the float range is None, and an extinct strategy's rate is
    0.0, whatever its deviation.
    """
    if not tolerance > 0:  # a NaN tolerance fails this too
        raise ValueError("tolerance must be positive")
    if state.m != worth.m:
        raise ValueError(f"state has m={state.m} but worth has m={worth.m}")
    x, payoffs = state.frequencies, per_capita_vector(worth)
    if mode is Mode.PAPER_CONSTANT_AVERAGE:
        average = average_worth(worth, bell)
    else:  # the exact mean, rounded once; off the simplex it may lie beyond the range
        (xs, x_den), (ps, p_den) = dyadic(x), dyadic(payoffs)
        average = float_or_none(sum(a * p for a, p in zip(xs, ps)), x_den * p_den)
    deviation = [None if average is None else float_or_none(p - average) for p in payoffs]
    growth = [0.0 if xk == 0.0 else None if dev is None else float_or_none(xk * dev)
              for xk, dev in zip(x, deviation)]

    statuses = []
    for xk, dev in zip(x, deviation):
        if xk == 0.0:
            statuses.append("extinct")
        elif dev is not None and abs(dev) <= tolerance:
            statuses.append("equilibrated")
        else:
            statuses.append("active")
    return RestPointReport(
        is_rest_point=all(g is not None and abs(g) <= tolerance for g in growth),
        statuses=tuple(statuses),
        growth_rates=tuple(growth),
        payoff_deviations=tuple(deviation),
    )
