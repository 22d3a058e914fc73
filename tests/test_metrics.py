"""Tests for metric collection, stability and convergence helpers."""

import copy
import pickle

import numpy as np
import pytest

from repro.core import run_willow
from repro.core.events import ControlMessage, Drop, Migration, MigrationCause
from repro.metrics import (
    MetricsCollector,
    ServerSample,
    SwitchSample,
    count_ping_pongs,
    min_residence_time,
    propagation_delay,
    recommended_delta_d,
    residence_times,
)
from repro.metrics.convergence import decision_time_scaling, fit_log_scaling
from repro.metrics.summary import fleet_mean, mean_by_server
from repro.workload import AppType, VM


def sample(t, sid, power=100.0, **kw):
    defaults = dict(
        temperature=40.0, utilization=0.3, demand=120.0, budget=150.0, asleep=False
    )
    defaults.update(kw)
    return ServerSample(time=t, server_id=sid, power=power, **defaults)


def migration(t, vm_id=0, src=1, dst=2, cause=MigrationCause.DEMAND, local=True):
    return Migration(
        time=t,
        vm_id=vm_id,
        src_id=src,
        dst_id=dst,
        demand=50.0,
        cause=cause,
        local=local,
        hops=1 if local else 3,
        cost_power=5.0,
    )


class TestCollector:
    def test_server_series_and_means(self):
        collector = MetricsCollector()
        for t in range(3):
            collector.record_server(sample(float(t), 1, power=100.0 + t))
            collector.record_server(sample(float(t), 2, power=50.0))
        assert collector.server_ids() == [1, 2]
        assert np.array_equal(collector.server_series(1, "power"), [100, 101, 102])
        assert collector.mean_server(2, "power") == 50.0
        assert collector.mean_server(1, "power") == 101.0

    def test_mean_requires_samples(self):
        with pytest.raises(ValueError):
            MetricsCollector().mean_server(1, "power")

    def test_migration_counting(self):
        collector = MetricsCollector()
        collector.record_migration(migration(1.0))
        collector.record_migration(
            migration(2.0, cause=MigrationCause.CONSOLIDATION, local=False)
        )
        assert collector.migration_count() == 2
        assert collector.migration_count(MigrationCause.DEMAND) == 1
        assert collector.local_fraction() == 0.5

    def test_migrations_per_tick_histogram(self):
        collector = MetricsCollector()
        for t in (0.2, 0.7, 2.1):
            collector.record_migration(migration(t))
        hist = collector.migrations_per_tick(horizon=4.0)
        assert hist.tolist() == [2, 0, 1, 0]

    def test_drop_totals(self):
        collector = MetricsCollector()
        collector.record_drop(Drop(1.0, 5, None, 30.0))
        collector.record_drop(Drop(2.0, 5, 7, 20.0))
        assert collector.total_dropped_power() == 50.0

    def test_switch_series(self):
        collector = MetricsCollector()
        for t in range(2):
            collector.record_switch(
                SwitchSample(float(t), switch_id=9, level=1,
                             base_traffic=10.0, migration_traffic=1.0, power=5.0)
            )
        assert collector.switch_ids(level=1) == [9]
        assert collector.switch_ids(level=2) == []
        assert collector.mean_switch(9, "power") == 5.0

    def test_message_bound_report(self):
        collector = MetricsCollector()
        collector.record_message(ControlMessage(0.0, link=3, upward=True))
        collector.record_message(ControlMessage(0.0, link=3, upward=False))
        collector.record_message(ControlMessage(1.0, link=3, upward=True))
        worst = collector.messages_per_link_per_tick()
        assert worst[3] == 2

    def test_total_energy(self):
        collector = MetricsCollector()
        collector.record_server(sample(0.0, 1, power=100.0))
        collector.record_server(sample(0.0, 2, power=50.0))
        assert collector.total_energy() == 150.0

    def test_array_tick_collector_pickles_and_copies(self):
        """The array tick queues its samples as lazy column blocks; a
        pickled or copied collector must carry every sample, in order."""
        _, collector = run_willow(n_ticks=5, seed=1, vectorized=True)
        for clone in (
            pickle.loads(pickle.dumps(collector)),
            copy.deepcopy(collector),
        ):
            for name in ("server_samples", "switch_samples", "messages"):
                assert getattr(clone, name) == getattr(collector, name), name


class TestStability:
    def _vm(self):
        return VM(vm_id=0, app=AppType("a", 1.0), host_id=1)

    def test_residence_times(self):
        vm = self._vm()
        vm.place(2, 5.0)
        vm.place(3, 8.0)
        assert residence_times(vm, now=10.0) == [5.0, 3.0, 2.0]

    def test_min_residence_infinite_when_no_moves(self):
        assert min_residence_time([self._vm()], now=10.0) == float("inf")

    def test_min_residence_over_population(self):
        vm1, vm2 = self._vm(), self._vm()
        vm1.place(2, 4.0)
        vm1.place(3, 10.0)  # stay of 6
        vm2.place(2, 7.0)
        vm2.place(3, 9.0)  # stay of 2
        assert min_residence_time([vm1, vm2], now=20.0) == 2.0

    def test_ping_pong_detected(self):
        vm = self._vm()
        vm.place(2, 1.0)
        vm.place(1, 3.0)  # back to host 1 within 2 ticks
        assert count_ping_pongs([vm], window=5.0) == 1
        assert count_ping_pongs([vm], window=1.0) == 0

    def test_non_returning_moves_not_ping_pong(self):
        vm = self._vm()
        vm.place(2, 1.0)
        vm.place(3, 2.0)
        assert count_ping_pongs([vm], window=100.0) == 0

    def test_window_validated(self):
        with pytest.raises(ValueError):
            count_ping_pongs([], window=-1.0)


class TestConvergence:
    def test_propagation_delay(self):
        assert propagation_delay(4, 10.0) == 40.0
        with pytest.raises(ValueError):
            propagation_delay(0, 10.0)

    def test_recommended_delta_d_paper_numbers(self):
        # h=5 levels at 10 ms -> delta 50 ms -> Delta_D >= 500 ms.
        assert recommended_delta_d(5, 10.0) == 500.0

    def test_decision_time_scaling_runs(self):
        calls = []
        results = decision_time_scaling([2, 4], lambda n: calls.append(n), repeats=2)
        assert [n for n, _t in results] == [2, 4]
        assert calls == [2, 2, 4, 4]

    def test_fit_log_scaling_recovers_linear_exponent(self):
        points = [(10, 0.010), (100, 0.100), (1000, 1.0)]
        assert fit_log_scaling(points) == pytest.approx(1.0, abs=0.01)

    def test_fit_log_scaling_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_log_scaling([(10, 1.0)])


class TestSummary:
    def test_mean_by_server_and_fleet_mean(self):
        collector = MetricsCollector()
        collector.record_server(sample(0.0, 1, power=100.0))
        collector.record_server(sample(0.0, 2, power=200.0))
        assert mean_by_server(collector, "power") == {1: 100.0, 2: 200.0}
        assert fleet_mean(collector, "power") == 150.0

    def test_fleet_mean_requires_samples(self):
        with pytest.raises(ValueError):
            fleet_mean(MetricsCollector(), "power")
