"""Tests for supply traces."""

import numpy as np
import pytest

from repro.power import (
    SupplyTrace,
    constant_supply,
    deficit_supply_trace,
    plenty_supply_trace,
    renewable_supply,
    step_supply,
)


class TestSupplyTrace:
    def test_constant(self):
        trace = constant_supply(100.0)
        assert trace.at(0.0) == 100.0
        assert trace.at(1e6) == 100.0

    def test_step_lookup(self):
        trace = step_supply([(0.0, 10.0), (5.0, 20.0), (8.0, 5.0)])
        assert trace.at(0.0) == 10.0
        assert trace.at(4.999) == 10.0
        assert trace.at(5.0) == 20.0
        assert trace.at(7.0) == 20.0
        assert trace.at(100.0) == 5.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            constant_supply(1.0).at(-0.1)

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            step_supply([(1.0, 5.0)])

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            step_supply([(0.0, 1.0), (0.0, 2.0)])

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            step_supply([(0.0, -5.0)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_budget_rejected(self, bad):
        # NaN compares False against everything, so without an explicit
        # finiteness check it slips past the ordering validation.
        with pytest.raises(ValueError):
            step_supply([(0.0, 10.0), (5.0, bad)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(ValueError):
            step_supply([(0.0, 10.0), (bad, 20.0)])

    def test_non_monotone_times_rejected(self):
        with pytest.raises(ValueError):
            SupplyTrace(times=(0.0, 5.0, 3.0), budgets=(1.0, 2.0, 3.0))

    def test_nan_lookup_time_rejected(self):
        with pytest.raises(ValueError):
            constant_supply(1.0).at(float("nan"))

    def test_mean(self):
        trace = step_supply([(0.0, 10.0), (5.0, 20.0)])
        assert trace.mean(10.0) == pytest.approx(15.0)
        assert trace.mean(5.0) == pytest.approx(10.0)

    def test_mean_between_segment_exact(self):
        trace = step_supply([(0.0, 10.0), (5.0, 20.0), (8.0, 40.0)])
        # Entirely inside one segment.
        assert trace.mean_between(1.0, 3.0) == pytest.approx(10.0)
        # Straddling two segments: 2 units at 10, 1 unit at 20.
        assert trace.mean_between(3.0, 6.0) == pytest.approx(40.0 / 3.0)
        # The final budget holds forever past the last segment start.
        assert trace.mean_between(100.0, 200.0) == pytest.approx(40.0)
        assert trace.mean_between(7.0, 10.0) == pytest.approx(100.0 / 3.0)

    def test_mean_between_boundary_reads_starting_segment(self):
        # t0 exactly on a boundary uses the segment starting there,
        # matching at()'s half-open convention.
        trace = step_supply([(0.0, 10.0), (5.0, 20.0)])
        assert trace.mean_between(5.0, 6.0) == pytest.approx(20.0)

    def test_mean_between_agrees_with_mean(self):
        trace = step_supply([(0.0, 10.0), (5.0, 20.0), (8.0, 40.0)])
        for horizon in (1.0, 5.0, 6.5, 30.0):
            assert trace.mean_between(0.0, horizon) == pytest.approx(
                trace.mean(horizon)
            )

    def test_mean_between_validation(self):
        trace = constant_supply(1.0)
        with pytest.raises(ValueError):
            trace.mean_between(-1.0, 2.0)
        with pytest.raises(ValueError):
            trace.mean_between(2.0, 2.0)
        with pytest.raises(ValueError):
            trace.mean_between(0.0, float("nan"))

    def test_window_rebases_and_clips(self):
        trace = step_supply([(0.0, 10.0), (5.0, 20.0), (8.0, 40.0)])
        window = trace.window(3.0, 4.0)
        assert window.times == (0.0, 2.0)
        assert window.budgets == (10.0, 20.0)
        # Values agree with the parent trace throughout the window.
        for offset in (0.0, 1.9, 2.0, 3.9):
            assert window.at(offset) == trace.at(3.0 + offset)

    def test_window_validation(self):
        trace = constant_supply(1.0)
        with pytest.raises(ValueError):
            trace.window(-1.0, 2.0)
        with pytest.raises(ValueError):
            trace.window(0.0, 0.0)

    def test_scaled(self):
        trace = step_supply([(0.0, 10.0), (5.0, 20.0)]).scaled(2.0)
        assert trace.at(0.0) == 20.0
        assert trace.at(6.0) == 40.0

    def test_series(self):
        trace = step_supply([(0.0, 1.0), (2.0, 3.0)])
        assert np.array_equal(trace.series([0.0, 1.0, 2.0, 5.0]), [1, 1, 3, 3])

    def test_series_matches_at_pointwise(self):
        trace = step_supply([(0.0, 5.0), (1.5, 7.0), (4.0, 2.0), (9.0, 11.0)])
        times = [0.0, 0.7, 1.5, 3.999, 4.0, 8.9, 9.0, 50.0]
        assert np.array_equal(
            trace.series(times), [trace.at(t) for t in times]
        )

    def test_series_empty_and_validation(self):
        trace = constant_supply(1.0)
        assert trace.series([]).size == 0
        with pytest.raises(ValueError):
            trace.series([0.0, -1.0])
        with pytest.raises(ValueError):
            trace.series([float("nan")])


class TestDeficitTrace:
    def test_plunges_reduce_budget(self):
        trace = deficit_supply_trace(1000.0, plunge_depth=0.4, ripple=0.0)
        assert trace.at(8.0) == pytest.approx(600.0)
        assert trace.at(0.0) == pytest.approx(1000.0)

    def test_recovery_after_plunge(self):
        trace = deficit_supply_trace(1000.0, plunge_depth=0.4, ripple=0.0)
        assert trace.at(10.0) == pytest.approx(1000.0)

    def test_depth_validated(self):
        with pytest.raises(ValueError):
            deficit_supply_trace(1000.0, plunge_depth=1.5)

    def test_ripple_bounded(self):
        trace = deficit_supply_trace(1000.0, ripple=0.05)
        for t in range(30):
            value = trace.at(float(t))
            assert 550.0 <= value <= 1050.0


class TestPlentyTrace:
    def test_mean_near_full_power(self):
        trace = plenty_supply_trace(750.0, rng=np.random.default_rng(1))
        assert trace.mean(30.0) == pytest.approx(750.0, rel=0.05)


class TestRenewable:
    def test_base_load_always_available(self):
        trace = renewable_supply(
            1000.0, base_fraction=0.3, cloud_noise=0.0
        )
        values = trace.series(np.arange(0.0, 96.0, 1.0))
        assert values.min() >= 300.0 - 1e-9

    def test_peaks_midday(self):
        trace = renewable_supply(1000.0, base_fraction=0.2, cloud_noise=0.0)
        midday = trace.at(48.0)
        night = trace.at(1.0)
        assert midday > night

    def test_multiple_days_repeat_pattern(self):
        trace = renewable_supply(
            1000.0, base_fraction=0.2, cloud_noise=0.0, days=2
        )
        assert trace.at(20.0) == pytest.approx(trace.at(20.0 + 96.0), rel=1e-9)

    def test_base_fraction_validated(self):
        with pytest.raises(ValueError):
            renewable_supply(1000.0, base_fraction=1.5)

    def test_negative_peak_rejected(self):
        # It used to clip into an all-zero trace.
        with pytest.raises(ValueError, match="peak"):
            renewable_supply(-5.0)
        assert renewable_supply(0.0).series(np.arange(3.0)).max() == 0.0


class TestCSVRoundTrip:
    def test_supply_from_csv(self, tmp_path):
        from repro.power import supply_from_csv

        path = tmp_path / "supply.csv"
        path.write_text("time,budget\n0,100\n5,80\n9,120\n")
        trace = supply_from_csv(path)
        assert trace.at(0.0) == 100.0
        assert trace.at(6.0) == 80.0
        assert trace.at(50.0) == 120.0

    def test_supply_from_csv_without_header(self, tmp_path):
        from repro.power import supply_from_csv

        path = tmp_path / "supply.csv"
        path.write_text("0,10\n2,20\n")
        assert supply_from_csv(path).at(3.0) == 20.0

    def test_supply_from_csv_empty_rejected(self, tmp_path):
        from repro.power import supply_from_csv

        path = tmp_path / "supply.csv"
        path.write_text("time,budget\n")
        with pytest.raises(ValueError):
            supply_from_csv(path)

    def test_supply_from_csv_malformed_mid_file(self, tmp_path):
        from repro.power import supply_from_csv

        path = tmp_path / "supply.csv"
        path.write_text("0,10\nbad,row\n")
        with pytest.raises(ValueError):
            supply_from_csv(path)
