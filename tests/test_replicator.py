"""Replicator dynamics: initial conditions, vector field, integration, rest points."""

import math
import sys

import numpy as np
import pytest

from coalition_forecast import replicator
from coalition_forecast.combinatorics import build_bell_table
from coalition_forecast.errors import MAX_STATE_VALUES
from coalition_forecast.predictor import average_worth
from coalition_forecast.replicator import (
    DynamicsConfig,
    IntegrationError,
    Mode,
    ReplicatorState,
    TooManySamples,
    initial_frequencies,
    integrate,
    rest_point_check,
    uniform_frequencies,
)
from coalition_forecast.worth import SymmetricWorth

BELL = build_bell_table(6)
BELL_8 = build_bell_table(8)
SYNERGY = SymmetricWorth(m=3, by_size=(0.0, 1.0, 1.0))
# v(k) = 2k: every coalition size pays the same per head
FLAT = SymmetricWorth(m=3, by_size=(2.0, 4.0, 6.0))


def growth(state, worth, mode, bell):
    """The replicator field dx_k/dt at a state: rest_point_check's growth rates."""
    return rest_point_check(state, worth, mode, bell, 1e-9).growth_rates


class TestInitialFrequencies:
    def test_m3_pushforward(self):
        assert initial_frequencies(3, BELL).frequencies == (0.4, 0.4, 0.2)

    def test_single_choice(self):
        assert initial_frequencies(1, BELL).frequencies == (1.0,)

    def test_m4_pushforward(self):
        state = initial_frequencies(4, BELL)
        assert state.frequencies == (5 / 15, 6 / 15, 3 / 15, 1 / 15)

    def test_sums_to_one(self):
        for m in range(1, 7):
            assert sum(initial_frequencies(m, BELL).frequencies) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_alternative(self):
        assert uniform_frequencies(4).frequencies == (0.25,) * 4


class TestVectorField:
    def test_flat_game_is_stationary_in_both_modes(self):
        state = ReplicatorState(time=0.0, frequencies=(0.4, 0.4, 0.2))
        assert growth(state, FLAT, Mode.PAPER_CONSTANT_AVERAGE, BELL) == (0.0, 0.0, 0.0)
        assert growth(state, FLAT, Mode.FREQUENCY_WEIGHTED, BELL) == (0.0, 0.0, 0.0)

    def test_extinct_strategy_has_zero_growth(self):
        state = ReplicatorState(time=0.0, frequencies=(0.5, 0.0, 0.5))
        field = growth(state, SYNERGY, Mode.FREQUENCY_WEIGHTED, BELL)
        assert field[1] == 0.0

    def test_synergy_constant_mode_field(self):
        state = ReplicatorState(time=0.0, frequencies=(0.4, 0.4, 0.2))
        field = growth(state, SYNERGY, Mode.PAPER_CONSTANT_AVERAGE, BELL)
        expected = (0.4 * (-4 / 15), 0.4 * (7 / 30), 0.2 * (1 / 15))
        assert field == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        state = ReplicatorState(time=0.0, frequencies=(1.0,))
        with pytest.raises(ValueError):
            growth(state, SYNERGY, Mode.PAPER_CONSTANT_AVERAGE, BELL)


class TestIntegrate:
    def test_flat_game_trajectory_is_constant(self):
        start = ReplicatorState(time=0.0, frequencies=(0.4, 0.4, 0.2))
        for mode in Mode:
            config = DynamicsConfig(mode=mode, step_size=0.01, horizon=5.0, record_every=50)
            trajectory = integrate(start, FLAT, config, BELL)
            for state in trajectory.states:
                assert state.frequencies == pytest.approx(start.frequencies, abs=1e-12)

    def test_extinct_strategies_stay_extinct(self):
        start = ReplicatorState(time=0.0, frequencies=(0.5, 0.0, 0.5))
        for mode in Mode:
            config = DynamicsConfig(mode=mode, step_size=0.01, horizon=10.0, record_every=10)
            trajectory = integrate(start, SYNERGY, config, BELL)
            assert all(state.frequencies[1] == 0.0 for state in trajectory.states)

    def test_weighted_synergy_selects_pairing(self):
        # per-capita payoffs (0, 1/2, 1/3): the size-2 choice dominates on average
        start = initial_frequencies(3, BELL)
        config = DynamicsConfig(mode=Mode.FREQUENCY_WEIGHTED, step_size=0.01,
                                horizon=100.0, record_every=100)
        trajectory = integrate(start, SYNERGY, config, BELL)
        assert trajectory.terminal.frequencies[1] > 0.99

    def test_constant_mode_growth_signs_match_residuals(self):
        start = initial_frequencies(3, BELL)
        config = DynamicsConfig(mode=Mode.PAPER_CONSTANT_AVERAGE, step_size=0.01,
                                horizon=50.0, record_every=100)
        trajectory = integrate(start, SYNERGY, config, BELL)
        for state in trajectory.states:
            field = growth(state, SYNERGY, Mode.PAPER_CONSTANT_AVERAGE, BELL)
            x = state.frequencies
            if x[0] > 0:
                assert field[0] < 0
            if x[1] > 0:
                assert field[1] > 0
            if x[2] > 0:
                assert field[2] > 0
        # residual signs (-, +, +) drive x_1 down and x_2, x_3 up
        series = [state.frequencies for state in trajectory.states]
        assert all(b[0] < a[0] for a, b in zip(series, series[1:]))
        assert all(b[1] > a[1] for a, b in zip(series, series[1:]))
        assert all(b[2] > a[2] for a, b in zip(series, series[1:]))
        assert series[-1][0] < 1e-6

    def test_weighted_mode_conserves_simplex(self):
        start = initial_frequencies(3, BELL)
        config = DynamicsConfig(mode=Mode.FREQUENCY_WEIGHTED, step_size=0.01,
                                horizon=50.0, record_every=25)
        trajectory = integrate(start, SYNERGY, config, BELL)
        for state in trajectory.states:
            assert abs(sum(state.frequencies) - 1.0) <= 1e-9
        assert trajectory.max_simplex_drift < 1e-10

    def test_constant_mode_simplex_drifts(self):
        start = initial_frequencies(3, BELL)
        config = DynamicsConfig(mode=Mode.PAPER_CONSTANT_AVERAGE, step_size=0.01,
                                horizon=5.0, record_every=100)
        trajectory = integrate(start, SYNERGY, config, BELL)
        assert trajectory.max_simplex_drift > 0.1

    def test_halving_step_changes_little(self):
        start = initial_frequencies(3, BELL)
        terminals = []
        for h in (0.01, 0.005):
            config = DynamicsConfig(mode=Mode.FREQUENCY_WEIGHTED, step_size=h,
                                    horizon=10.0, record_every=1000)
            terminals.append(integrate(start, SYNERGY, config, BELL).terminal.frequencies)
        assert np.max(np.abs(np.subtract(*terminals))) < 1e-6

    def test_recording_cadence_and_final_state(self):
        start = initial_frequencies(3, BELL)
        # 10 steps of 0.1: records at steps 3, 6, 9 plus the forced final step 10;
        # round(1.0 / 0.6) = 2 steps of 0.6: the last sample lies past the horizon
        for step, horizon, every, expected in ((0.1, 1.05, 3, [0.0, 0.3, 0.6, 0.9, 1.0]),
                                               (0.6, 1.0, 1, [0.0, 0.6, 1.2])):
            config = DynamicsConfig(mode=Mode.FREQUENCY_WEIGHTED, step_size=step,
                                    horizon=horizon, record_every=every)
            trajectory = integrate(start, SYNERGY, config, BELL)
            times = [state.time for state in trajectory.states]
            assert times[0] == 0.0
            assert times == sorted(times)
            assert len(times) == len(set(times))
            assert times == pytest.approx(expected)

    def test_terminal_residuals_reported(self):
        start = initial_frequencies(3, BELL)
        config = DynamicsConfig(mode=Mode.PAPER_CONSTANT_AVERAGE, step_size=0.01,
                                horizon=1.0, record_every=10)
        terminal = integrate(start, SYNERGY, config, BELL).terminal
        report = rest_point_check(terminal, SYNERGY, config.mode, BELL, 1e-9)
        assert report.payoff_deviations == pytest.approx((-4 / 15, 7 / 30, 1 / 15), rel=1e-12)

    def test_coarse_step_is_exact_without_clamping(self):
        # a fixed-step integrator overshoots below 0 here (h * rate = 50)
        worth = SymmetricWorth(m=2, by_size=(0.0, 200.0))
        start = ReplicatorState(time=0.0, frequencies=(0.5, 0.5))
        config = DynamicsConfig(mode=Mode.FREQUENCY_WEIGHTED, step_size=0.5, horizon=5.0)
        trajectory = integrate(start, worth, config, build_bell_table(2))
        tail = math.exp(-500.0)
        assert trajectory.terminal.time == 5.0
        assert trajectory.terminal.frequencies == pytest.approx(
            (tail / (1.0 + tail), 1.0 / (1.0 + tail)), rel=1e-12)
        assert trajectory.clamp_events == 0

    def test_extinct_strategies_stay_exactly_zero_at_any_payoff(self):
        # the extinct size-2 choice has the largest payoff, whose growth overflows
        worth = SymmetricWorth(m=3, by_size=(0.0, 1.7e308, 1.0))
        start = ReplicatorState(time=0.0, frequencies=(0.5, 0.0, 0.5))
        for mode in Mode:
            config = DynamicsConfig(mode=mode, step_size=0.01, horizon=20.0, record_every=10)
            trajectory = integrate(start, worth, config, BELL)
            assert all(state.frequencies[1] == 0.0 for state in trajectory.states)

    def test_sample_does_not_depend_on_step_size(self):
        start = initial_frequencies(3, BELL)
        for mode in Mode:
            samples = set()
            for h, every in ((0.5, 6), (0.25, 12), (0.01, 300), (0.001, 3000)):
                config = DynamicsConfig(mode=mode, step_size=h, horizon=6.0, record_every=every)
                states = integrate(start, SYNERGY, config, BELL).states
                assert [state.time for state in states] == [0.0, 3.0, 6.0]
                samples.add(tuple(state.frequencies for state in states))
            assert len(samples) == 1

    def test_extreme_worths(self):
        worth = SymmetricWorth(m=6, by_size=(1.7e308,) + (-1.7e308,) * 5)
        bell = build_bell_table(6)
        for start in (initial_frequencies(6, bell), uniform_frequencies(6)):
            weighted = DynamicsConfig(mode=Mode.FREQUENCY_WEIGHTED, horizon=20.0)
            trajectory = integrate(start, worth, weighted, bell)
            for state in trajectory.states:
                assert all(math.isfinite(x) for x in state.frequencies)
                assert abs(sum(state.frequencies) - 1.0) <= 1e-12
            assert trajectory.terminal.frequencies == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
            paper = DynamicsConfig(mode=Mode.PAPER_CONSTANT_AVERAGE, horizon=20.0)
            with pytest.raises(IntegrationError, match="non-finite"):
                integrate(start, worth, paper, bell)

    def test_values_beyond_float_range_are_none(self):
        worth = SymmetricWorth(m=6, by_size=(1.7e308,) + (-1.7e308,) * 5)
        bell = build_bell_table(6)
        weighted = Mode.FREQUENCY_WEIGHTED
        for start in (initial_frequencies(6, bell), uniform_frequencies(6)):
            trajectory = integrate(start, worth, DynamicsConfig(mode=weighted), bell)
            report = rest_point_check(trajectory.terminal, worth, weighted, bell, 1e-9)
            assert report.payoff_deviations == (0.0, None, None, None, None, None)
            assert report.growth_rates == (0.0,) * 6  # extinct: 0.0, never NaN
            assert report.is_rest_point
        # at the uniform state the top strategy's growth overflows; the others do not
        report = rest_point_check(uniform_frequencies(6), worth, weighted, bell, 1e-9)
        assert report.growth_rates[0] is None
        assert all(math.isfinite(rate) for rate in report.growth_rates[1:])
        assert report.statuses[0] == "active"
        assert not report.is_rest_point
        # off the simplex: partial sums of the products pass the float maximum, the mean does not
        state = ReplicatorState(time=0.0, frequencies=(1e308,) * 3)
        mixed = SymmetricWorth(m=3, by_size=(1.0, 2.0, -3.0))  # payoffs 1, 1, -1
        report = rest_point_check(state, mixed, weighted, BELL, 1e-9)
        assert report.payoff_deviations == (1.0 - 1e308, 1.0 - 1e308, -1.0 - 1e308)
        assert report.growth_rates == (None, None, None)

    def test_total_beyond_float_range(self):
        # off the simplex the frequencies' total overflows: paper mode reports an
        # infinite drift, and weighted mode cannot normalize, so it raises
        worth = SymmetricWorth(m=2, by_size=(1.0, 2.0))  # payoffs 1, 1: every rate is 0
        start = ReplicatorState(time=0.0, frequencies=(1e308, 1e308))
        paper = DynamicsConfig(mode=Mode.PAPER_CONSTANT_AVERAGE, step_size=0.5, horizon=1.0)
        assert integrate(start, worth, paper, BELL).max_simplex_drift == math.inf
        weighted = DynamicsConfig(mode=Mode.FREQUENCY_WEIGHTED, step_size=0.5, horizon=1.0)
        with pytest.raises(IntegrationError, match="non-finite"):
            integrate(start, worth, weighted, BELL)

    def test_overflowing_weighted_average_is_none(self):
        # off the simplex the weighted mean 1e308 * 1.0 + 1e308 * 1.0 overflows in fsum
        worth = SymmetricWorth(m=2, by_size=(1.0, 2.0))
        state = ReplicatorState(time=0.0, frequencies=(1e308, 1e308))
        weighted = Mode.FREQUENCY_WEIGHTED
        report = rest_point_check(state, worth, weighted, BELL, 1e-9)
        assert report.payoff_deviations == (None, None)
        assert report.growth_rates == (None, None)
        assert report.statuses == ("active", "active")
        assert not report.is_rest_point

    @pytest.mark.parametrize("step, horizon, every", [
        (1e-300, 1e300, 1),          # the ratio is inf: it cannot even be rounded
        (1e-300, 1e300, 10 ** 400),  # so is the ratio against any cadence
        (1e-9, 1.0, 999),            # about 1.001e6 samples
    ], ids=["inf-ratio", "inf-ratio-huge-cadence", "just-over"])
    def test_sample_count_is_bounded_before_any_work(self, step, horizon, every):
        start = initial_frequencies(3, BELL)
        config = DynamicsConfig(step_size=step, horizon=horizon, record_every=every)
        with pytest.raises(TooManySamples, match="1000000 samples"):
            integrate(start, SYNERGY, config, BELL)

    @pytest.mark.parametrize("m, horizon", [
        (20, 500_000.0),  # 500 001 states: 10 000 020 values, 10 over the bound
        (1500, 6666.0),   # 6 667 states, one over the 6 666 the bound allows
    ])
    def test_values_are_bounded_before_any_sample(self, m, horizon):
        worth = SymmetricWorth(m=m, by_size=(0.0,) * m)
        config = DynamicsConfig(mode=Mode.FREQUENCY_WEIGHTED, step_size=1.0, horizon=horizon)
        states = int(horizon) + 1
        message = (f"^m={m} times {states} recorded states exceeds the bound "
                   f"of {MAX_STATE_VALUES} values$")
        with pytest.raises(TooManySamples, match=message):
            integrate(uniform_frequencies(m), worth, config, BELL)

    @pytest.mark.parametrize("every, states", [(1, 11), (3, 5), (20, 2)])
    def test_values_bound_counts_t0_and_the_last_sample(self, monkeypatch, every, states):
        # 10 steps: t = 0, then ceil(10 / every) samples, the last at step 10
        config = DynamicsConfig(step_size=0.1, horizon=1.0, record_every=every)
        start = initial_frequencies(3, BELL)
        monkeypatch.setattr(replicator, "MAX_STATE_VALUES", 3 * states)
        assert len(integrate(start, SYNERGY, config, BELL).states) == states
        monkeypatch.setattr(replicator, "MAX_STATE_VALUES", 3 * states - 1)
        with pytest.raises(TooManySamples, match=f"m=3 times {states} recorded states"):
            integrate(start, SYNERGY, config, BELL)

    def test_sample_count_message_comes_before_the_values_bound(self):
        worth = SymmetricWorth(m=1500, by_size=(0.0,) * 1500)
        config = DynamicsConfig(step_size=1e-9, horizon=1.0)
        with pytest.raises(TooManySamples, match="1000000 samples"):
            integrate(uniform_frequencies(1500), worth, config, BELL)

    def test_start_and_worth_must_agree_on_m(self):
        config = DynamicsConfig(step_size=0.01, horizon=1.0)
        with pytest.raises(ValueError, match="start has m=2 but worth has m=3"):
            integrate(ReplicatorState(time=0.0, frequencies=(0.5, 0.5)), SYNERGY, config, BELL)

    def test_weighted_start_with_no_population_aborts(self):
        config = DynamicsConfig(mode=Mode.FREQUENCY_WEIGHTED, step_size=0.01, horizon=1.0)
        start = ReplicatorState(time=0.0, frequencies=(0.0, 0.0, 0.0))
        with pytest.raises(IntegrationError, match="population vanished"):
            integrate(start, SYNERGY, config, BELL)

    def test_nonfinite_state_aborts(self):
        worth = SymmetricWorth(m=2, by_size=(0.0, 1e308))
        start = ReplicatorState(time=0.0, frequencies=(0.5, 0.5))
        config = DynamicsConfig(mode=Mode.PAPER_CONSTANT_AVERAGE, step_size=0.01, horizon=1.0)
        with pytest.raises(IntegrationError, match="non-finite"):
            integrate(start, worth, config, build_bell_table(2))

    def test_product_overflow_aborts(self):
        # math.exp stays finite; only the product x_k(0) * exp(r t) passes the float maximum
        worth = SymmetricWorth(m=2, by_size=(1.0, 0.0))
        start = ReplicatorState(time=0.0, frequencies=(1.5e308, 0.5))
        config = DynamicsConfig(mode=Mode.PAPER_CONSTANT_AVERAGE, step_size=0.5, horizon=1.0)
        with pytest.raises(IntegrationError, match="non-finite frequencies at t=0.5"):
            integrate(start, worth, config, build_bell_table(2))

    def test_infinite_entry_behind_an_overflowing_total_aborts(self):
        # payoffs (0, 0, 1) against the average 0.2: at t=0.5 the first two entries
        # overflow fsum's partial sums before it reaches the third, which is inf
        worth = SymmetricWorth(m=3, by_size=(0.0, 0.0, 3.0))
        start = ReplicatorState(time=0.0, frequencies=(1e308, 1e308, 1.5e308))
        config = DynamicsConfig(mode=Mode.PAPER_CONSTANT_AVERAGE, step_size=0.5, horizon=1.0)
        with pytest.raises(IntegrationError, match="non-finite frequencies at t=0.5"):
            integrate(start, worth, config, BELL)

    def test_time_beyond_float_range_aborts(self):
        # round(1 / 0.6) = 2 steps: the last sample time 1.2 * max is inf, refused
        # before any sample, naming the horizon and the step rather than the growth
        start = ReplicatorState(time=0.0, frequencies=(0.5, 0.5, 0.0))
        for mode in Mode:
            config = DynamicsConfig(mode=mode, step_size=0.6 * sys.float_info.max,
                                    horizon=sys.float_info.max)
            with pytest.raises(ValueError, match=r"^horizon 1\.79769e\+308 at step "
                                                 r"1\.07862e\+308 ends beyond the float range$"):
                integrate(start, FLAT, config, BELL)

    def test_first_state_is_at_time_zero(self):
        start = ReplicatorState(time=3.0, frequencies=(0.4, 0.4, 0.2))
        for mode in Mode:
            config = DynamicsConfig(mode=mode, step_size=0.5, horizon=1.0)
            first = integrate(start, SYNERGY, config, BELL).states[0]
            assert first.time == 0.0
            assert first.frequencies == start.frequencies

    def test_returned_states_pass_validation(self):
        for mode in Mode:
            config = DynamicsConfig(mode=mode, step_size=0.1, horizon=20.0, record_every=7)
            for state in integrate(initial_frequencies(3, BELL), SYNERGY, config, BELL).states:
                assert state == ReplicatorState(time=state.time, frequencies=state.frequencies)

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.name)
    def test_dense_samples_are_the_direct_formula_bit_for_bit(self, mode):
        # each sample is x_k(0) * exp(r_k * step * h), never a recurrence in exp(r_k h)
        m, h = 20, 0.01
        bell = build_bell_table(m)
        worth = SymmetricWorth(m=m, by_size=tuple(math.sin(k) * k for k in range(1, m + 1)))
        start = initial_frequencies(m, bell)
        config = DynamicsConfig(mode=mode, step_size=h, horizon=20.0)
        states = integrate(start, worth, config, bell).states
        assert len(states) == 2001
        x0 = start.frequencies
        payoffs = [v / k for k, v in enumerate(worth.by_size, start=1)]
        weighted = mode is Mode.FREQUENCY_WEIGHTED
        shift = max(payoffs) if weighted else average_worth(worth, bell)
        rates = [p - shift for p in payoffs]
        for step, state in enumerate(states):
            x = [xk * math.exp(r * (step * h)) for xk, r in zip(x0, rates)] if step else x0
            if weighted and step:
                total = math.fsum(x)
                x = [xk / total for xk in x]
            assert state.time == step * h
            assert state.frequencies == tuple(x)


def _rk4(x, payoffs, constant_average, weighted, h, n_steps):
    """Classical fixed-step RK4 on the replicator equation, as a reference."""
    def field(y):
        avg = math.fsum(a * p for a, p in zip(y, payoffs)) if weighted else constant_average
        return [a * (p - avg) for a, p in zip(y, payoffs)]

    for _ in range(n_steps):
        k1 = field(x)
        k2 = field([a + 0.5 * h * b for a, b in zip(x, k1)])
        k3 = field([a + 0.5 * h * b for a, b in zip(x, k2)])
        k4 = field([a + h * b for a, b in zip(x, k3)])
        x = [a + h / 6.0 * (b + 2.0 * c + 2.0 * d + e)
             for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
    return x


class TestAgainstRK4:
    @pytest.mark.parametrize("worth", [
        SYNERGY,
        SymmetricWorth(m=8, by_size=(0.3, -0.5, 0.9, 0.2, -0.7, 0.4, 0.1, 0.8)),
    ], ids=["m3", "m8"])
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.name)
    @pytest.mark.parametrize("init", ["structure", "uniform"])
    def test_exact_solution_matches_rk4(self, worth, mode, init):
        h, every = 0.01, 100
        m = worth.m
        start = initial_frequencies(m, BELL_8) if init == "structure" else uniform_frequencies(m)
        config = DynamicsConfig(mode=mode, step_size=h, horizon=10.0, record_every=every)
        states = integrate(start, worth, config, BELL_8).states
        assert len(states) == 11
        x = list(start.frequencies)
        payoffs = [v / k for k, v in enumerate(worth.by_size, start=1)]
        avg = average_worth(worth, BELL_8)
        for state in states[1:]:
            x = _rk4(x, payoffs, avg, mode is Mode.FREQUENCY_WEIGHTED, h, every)
            assert state.frequencies == pytest.approx(x, rel=1e-9, abs=0.0)


class TestConfigValidation:
    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            DynamicsConfig(step_size=0.0, horizon=1.0)

    def test_horizon_must_exceed_step(self):
        with pytest.raises(ValueError):
            DynamicsConfig(step_size=1.0, horizon=0.5)

    def test_record_every_at_least_one(self):
        with pytest.raises(ValueError):
            DynamicsConfig(step_size=0.01, horizon=1.0, record_every=0)

    @pytest.mark.parametrize("every", [1.5, 2.0, True])
    def test_record_every_must_be_an_integer(self, every):
        with pytest.raises(ValueError, match="record_every must be an integer"):
            DynamicsConfig(step_size=0.01, horizon=1.0, record_every=every)

    def test_state_rejects_empty_frequencies(self):
        with pytest.raises(ValueError, match="non-empty"):
            ReplicatorState(time=0.0, frequencies=())

    def test_uniform_frequencies_m_must_be_positive(self):
        with pytest.raises(ValueError, match="m must be positive"):
            uniform_frequencies(0)

    def test_state_rejects_negative_frequency(self):
        with pytest.raises(ValueError):
            ReplicatorState(time=0.0, frequencies=(0.5, -0.1))

    @pytest.mark.parametrize("time, frequencies", [
        (0.0, (math.nan, 0.5)),
        (0.0, (0.5, math.inf)),
        (math.nan, (0.5, 0.5)),
        (math.inf, (0.5, 0.5)),
    ])
    def test_state_rejects_non_finite_values(self, time, frequencies):
        with pytest.raises(ValueError, match="finite"):
            ReplicatorState(time=time, frequencies=frequencies)

    @pytest.mark.parametrize("step, horizon", [
        (math.nan, 1.0), (math.inf, 1.0), (0.01, math.nan), (0.01, math.inf),
    ])
    def test_config_rejects_non_finite_times(self, step, horizon):
        with pytest.raises(ValueError, match="finite"):
            DynamicsConfig(step_size=step, horizon=horizon)


class TestRestPointCheck:
    def test_vertex_is_rest_point_in_weighted_mode(self):
        state = ReplicatorState(time=0.0, frequencies=(0.0, 1.0, 0.0))
        report = rest_point_check(state, SYNERGY, Mode.FREQUENCY_WEIGHTED, BELL, 1e-9)
        assert report.is_rest_point
        assert report.statuses == ("extinct", "equilibrated", "extinct")

    def test_flat_game_interior_rest_point(self):
        state = ReplicatorState(time=0.0, frequencies=(0.4, 0.4, 0.2))
        for mode in Mode:
            assert rest_point_check(state, FLAT, mode, BELL, 1e-9).is_rest_point

    def test_vertex_not_rest_point_in_constant_mode(self):
        # the size-2 payoff 1/2 differs from the constant average 4/15
        state = ReplicatorState(time=0.0, frequencies=(0.0, 1.0, 0.0))
        report = rest_point_check(state, SYNERGY, Mode.PAPER_CONSTANT_AVERAGE, BELL, 1e-9)
        assert not report.is_rest_point
        assert report.statuses == ("extinct", "active", "extinct")
        assert report.growth_rates[1] == pytest.approx(7 / 30, rel=1e-12)

    def test_tolerance_must_be_positive(self):
        state = ReplicatorState(time=0.0, frequencies=(1.0,))
        for tolerance in (0.0, -1.0, math.nan):  # NaN compares false both ways
            with pytest.raises(ValueError, match="^tolerance must be positive$"):
                rest_point_check(state, SymmetricWorth(m=1, by_size=(1.0,)),
                                 Mode.PAPER_CONSTANT_AVERAGE, BELL, tolerance)
