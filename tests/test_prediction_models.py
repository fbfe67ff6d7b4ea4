"""Tests for the prediction models (random walk, seasonal, oracle, ARIMA)."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.prediction.arima import ArimaModel, ArimaPredictor
from repro.prediction.base import DemandHistory
from repro.prediction.evaluation import evaluate_predictor, train_test_split
from repro.prediction.oracle import OraclePredictor
from repro.prediction.random_walk import RandomWalkPredictor
from repro.prediction.seasonal import SeasonalNaivePredictor


class TestDemandHistory:
    def test_epoch_accumulation(self):
        history = DemandHistory()
        history.record_demand(3)
        history.record_demand(4)
        assert history.close_epoch() == 7
        assert history.values() == [7]

    def test_empty_epochs_are_zero(self):
        history = DemandHistory()
        history.close_epoch()
        history.close_epoch()
        assert history.values() == [0.0, 0.0]

    def test_capacity_bound(self):
        history = DemandHistory(capacity=3)
        for value in range(5):
            history.record_demand(value)
            history.close_epoch()
        assert history.values() == [2, 3, 4]

    def test_last(self):
        history = DemandHistory()
        for value in range(5):
            history.record_demand(value)
            history.close_epoch()
        assert history.last(2) == [3, 4]
        assert history.last(0) == []

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DemandHistory(capacity=0)


class TestRandomWalk:
    def test_forecast_is_last_value(self):
        predictor = RandomWalkPredictor()
        for value in (5.0, 9.0, 2.0):
            predictor.update(value)
        assert predictor.forecast() == 2.0

    def test_empty_history_forecasts_zero(self):
        assert RandomWalkPredictor().forecast() == 0.0

    def test_drift(self):
        predictor = RandomWalkPredictor(drift_window=2)
        for value in (1.0, 2.0, 3.0):
            predictor.update(value)
        assert predictor.forecast() == pytest.approx(4.0)

    def test_never_negative(self):
        predictor = RandomWalkPredictor(drift_window=1)
        predictor.update(5.0)
        predictor.update(0.0)
        assert predictor.forecast() == 0.0


class TestSeasonalNaive:
    def test_uses_value_one_period_ago(self):
        predictor = SeasonalNaivePredictor(period=3, seasons=1)
        for value in (10.0, 20.0, 30.0, 11.0, 21.0):
            predictor.update(value)
        # Next position is index 5; one period back is index 2 -> 30.
        assert predictor.forecast() == 30.0

    def test_averages_multiple_seasons(self):
        predictor = SeasonalNaivePredictor(period=2, seasons=2)
        for value in (10.0, 0.0, 20.0, 0.0):
            predictor.update(value)
        assert predictor.forecast() == pytest.approx(15.0)

    def test_falls_back_to_random_walk_without_a_full_period(self):
        predictor = SeasonalNaivePredictor(period=100)
        predictor.update(42.0)
        assert predictor.forecast() == 42.0

    def test_perfect_on_exactly_periodic_series(self):
        predictor = SeasonalNaivePredictor(period=4, seasons=1)
        series = [float(10 + (i % 4)) for i in range(40)]
        train, test = train_test_split(series, 0.5)
        report = evaluate_predictor(predictor, train, test)
        assert report.mae == 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SeasonalNaivePredictor(period=0)
        with pytest.raises(ValueError):
            SeasonalNaivePredictor(period=2, seasons=0)


class TestOracle:
    def test_reads_the_future(self):
        predictor = OraclePredictor([10.0, 20.0, 30.0])
        assert predictor.forecast() == 10.0
        predictor.update(10.0)
        assert predictor.forecast() == 20.0

    def test_past_the_end_returns_zero(self):
        predictor = OraclePredictor([1.0])
        predictor.update(1.0)
        assert predictor.forecast() == 0.0

    def test_noise_perturbs_deterministically(self):
        a = OraclePredictor([100.0], noise=0.2, seed=3)
        b = OraclePredictor([100.0], noise=0.2, seed=3)
        assert a.forecast() == b.forecast()
        assert a.forecast() != 100.0


def ar1_series(phi, n=800, sigma=1.0, seed=0, mean=50.0):
    rng = random.Random(seed)
    values = [mean]
    for _ in range(n - 1):
        values.append(mean + phi * (values[-1] - mean) + rng.gauss(0, sigma))
    return values


class TestArima:
    def test_recovers_ar1_coefficient(self):
        series = ar1_series(phi=0.7)
        model = ArimaModel(p=1, d=0, q=0)
        model.fit(series)
        assert model.phi[0] == pytest.approx(0.7, abs=0.08)

    def test_one_step_forecast_beats_random_walk_on_ar_process(self):
        # phi = 0.5 is far from a random walk, so the AR model's edge is
        # decisive rather than seed-dependent.
        series = ar1_series(phi=0.5, seed=1)
        predictor = ArimaPredictor(p=1, d=0, q=1)
        train, test = train_test_split(series, 0.8)
        report = evaluate_predictor(predictor, train, test)
        naive = evaluate_predictor(RandomWalkPredictor(), train, test)
        assert report.rmse < naive.rmse
        assert report.mae < naive.mae

    def test_differencing_handles_linear_trend(self):
        series = [2.0 * i + 10.0 for i in range(200)]
        predictor = ArimaPredictor(p=2, d=1, q=0)
        predictor.fit(series)
        # Next value of the trend is 2*200+10 = 410.
        assert predictor.forecast() == pytest.approx(410.0, abs=1.0)

    def test_refit_interval_triggers_retraining(self):
        predictor = ArimaPredictor(p=1, d=0, q=0, refit_interval=50)
        predictor.fit(ar1_series(phi=0.3, n=200))
        phi_before = float(predictor.model.phi[0])
        for value in ar1_series(phi=0.9, n=120, seed=2):
            predictor.update(value)
        assert float(predictor.model.phi[0]) != phi_before

    def test_forecast_before_fit_falls_back_to_random_walk(self):
        predictor = ArimaPredictor()
        predictor.update(5.0)
        assert predictor.forecast() == 5.0

    def test_invalid_orders(self):
        with pytest.raises(ValueError):
            ArimaModel(p=0, d=0, q=0)
        with pytest.raises(ValueError):
            ArimaModel(p=-1, d=0, q=1)

    def test_too_short_series_raises(self):
        with pytest.raises(ValueError):
            ArimaModel(p=4, d=1, q=1).fit([1.0, 2.0, 3.0])

    def test_forecast_never_negative(self):
        predictor = ArimaPredictor(p=1, d=1, q=0)
        predictor.fit([100.0 - i for i in range(60)])  # falling trend
        for _ in range(5):
            predictor.update(0.0)
        assert predictor.forecast() >= 0.0


class TestEvaluation:
    def test_split_is_chronological(self):
        train, test = train_test_split(list(range(10)), 0.8)
        assert train == list(range(8))
        assert test == [8, 9]

    def test_split_bounds(self):
        with pytest.raises(ValueError):
            train_test_split([1, 2, 3], 0.0)
        with pytest.raises(ValueError):
            train_test_split([1], 0.5)

    def test_walk_forward_never_peeks(self):
        class Parrot(RandomWalkPredictor):
            pass

        series = [1.0, 2.0, 3.0, 4.0, 5.0]
        report = evaluate_predictor(Parrot(), series[:3], series[3:])
        # Forecast for 4.0 is 3.0 (last train value), for 5.0 is 4.0.
        assert report.predictions == [3.0, 4.0]
        assert report.mae == pytest.approx(1.0)

    def test_empty_test_raises(self):
        with pytest.raises(ValueError):
            evaluate_predictor(RandomWalkPredictor(), [1.0], [])


def test_cli_and_harness_imports_leave_scipy_unloaded():
    # scipy costs about a second to import; only an ARIMA fit needs it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = (
        "import sys, repro.cli, repro.harness.experiment; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
