"""Physical fault injection and sensor-fault-tolerant control.

Three pillars:

* **Equivalence** -- with an all-healthy :class:`PlantFaultSchedule`
  the :class:`FaultTolerantWillowController` reproduces the scalar
  controller's trajectories bit for bit (both thermal modes): per-tick
  power, temperature, budget, demand, sleep states, every migration,
  and the control-message multiset.
* **Safety** -- under *any* seeded fault schedule (hypothesis sweep) no
  server ever exceeds ``T_limit`` and no budget goes negative:
  degradation is graceful, never unsafe.
* **Mechanics** -- unit tests for each fault class: crash/evacuate/
  restart, sensor stuck/drift/noise/dropout with quarantine and
  restore, cooling derates ramping ambients, circuit trips zeroing
  subtree budgets, and the plant-event record.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import WillowConfig
from repro.core.controller import run_willow
from repro.core.events import MigrationCause
from repro.core.state import SleepState
from repro.experiments.common import hot_zone_overrides
from repro.plant_faults import (
    SENSOR_DRIFT,
    SENSOR_DROPOUT,
    SENSOR_NOISE,
    SENSOR_STUCK,
    CircuitTrip,
    CoolingDegradation,
    PlantFaultSchedule,
    SensorFault,
    SensorValidatorConfig,
    ServerCrash,
    random_plant_schedule,
    run_resilient,
)
from repro.topology.builders import build_balanced, build_paper_simulation

T_LIMIT = WillowConfig().thermal.t_limit


def _server_series(collector, attr):
    return np.array([getattr(s, attr) for s in collector.server_samples])


def _assert_safe(collector, t_ceiling=T_LIMIT):
    """The two invariants every degraded run must keep.

    In the default ``window_reset`` mode the ceiling is ``T_limit``
    itself.  Integrated mode legitimately overshoots ``T_limit``
    between allocation windows even with a perfect plant, so those
    tests pass the ideal (fault-free) run's peak as the ceiling: faults
    must never make the thermal trajectory worse than ideal.
    """
    temps = _server_series(collector, "temperature")
    budgets = _server_series(collector, "budget")
    assert temps.max() <= t_ceiling + 1e-6
    assert budgets.min() >= 0.0


# ---------------------------------------------------------------------------
# Equivalence: an all-healthy plant is the scalar controller, bit for bit.
# ---------------------------------------------------------------------------
class HealthyEquivalenceContract:
    """Shared assertions; subclasses fix the thermal mode."""

    KW = dict(
        target_utilization=0.95,
        n_ticks=60,
        seed=7,
        ambient_overrides=hot_zone_overrides(),
    )
    MODE = "window_reset"

    @pytest.fixture(scope="class")
    def pair(self):
        config = WillowConfig(thermal_mode=self.MODE)
        _, ideal = run_willow(config=config, **self.KW)
        controller, resilient = run_resilient(
            config=WillowConfig(thermal_mode=self.MODE),
            plant_faults=PlantFaultSchedule(),
            **self.KW,
        )
        return ideal, resilient, controller

    @pytest.mark.parametrize(
        "attr", ["power", "temperature", "budget", "demand", "utilization"]
    )
    def test_server_series_bit_identical(self, pair, attr):
        ideal, resilient, _ = pair
        a, b = _server_series(ideal, attr), _server_series(resilient, attr)
        assert a.shape == b.shape
        assert np.array_equal(a, b), f"{attr} differs bit-wise"

    def test_sleep_states_identical(self, pair):
        ideal, resilient, _ = pair
        assert [s.asleep for s in ideal.server_samples] == [
            s.asleep for s in resilient.server_samples
        ]

    def test_migrations_identical(self, pair):
        ideal, resilient, _ = pair
        key = lambda m: (m.time, m.vm_id, m.src_id, m.dst_id, m.cause)
        assert [key(m) for m in ideal.migrations] == [
            key(m) for m in resilient.migrations
        ]
        assert len(ideal.migrations) > 0  # the run must exercise the path

    def test_message_multiset_identical(self, pair):
        ideal, resilient, _ = pair
        key = lambda m: (m.time, m.link, m.upward)
        assert Counter(map(key, ideal.messages)) == Counter(
            map(key, resilient.messages)
        )

    def test_no_plant_events_or_evacuations(self, pair):
        _, resilient, controller = pair
        assert resilient.plant_event_counts() == {}
        assert resilient.migration_count(MigrationCause.EVACUATION) == 0
        assert all(
            controller.sensors.trusted(sid) for sid in controller.servers
        )

    def test_drops_identical(self, pair):
        ideal, resilient, _ = pair
        key = lambda d: (d.time, d.node_id, d.vm_id, d.power)
        assert [key(d) for d in ideal.drops] == [
            key(d) for d in resilient.drops
        ]


class TestHealthyEquivalenceWindowReset(HealthyEquivalenceContract):
    MODE = "window_reset"


class TestHealthyEquivalenceIntegrated(HealthyEquivalenceContract):
    MODE = "integrated"


# ---------------------------------------------------------------------------
# Safety under arbitrary seeded fault schedules.
# ---------------------------------------------------------------------------
class TestFaultSafetyProperties:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_fault_runs_stay_safe(self, seed):
        tree = build_balanced([3, 3])
        n_ticks = 24
        schedule = random_plant_schedule(
            tree,
            seed=seed,
            horizon_ticks=n_ticks,
            n_crashes=2,
            n_sensor_faults=3,
            n_cooling_events=2,
            n_circuit_trips=1,
            min_duration=3,
            max_duration=8,
        )
        controller, collector = run_resilient(
            tree=tree,
            plant_faults=schedule,
            outside_temp=45.0,
            target_utilization=0.8,
            n_ticks=n_ticks,
            seed=seed,
        )
        _assert_safe(collector)
        assert all(
            s.thermal.violations == 0 for s in controller.servers.values()
        )

    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        outside=st.floats(min_value=20.0, max_value=60.0),
    )
    def test_total_cooling_failure_stays_safe(self, seed, outside):
        """Full-facility CRAC failure: thermal shutdowns, zero violations."""
        tree = build_balanced([3, 3])
        n_ticks = 20
        schedule = PlantFaultSchedule(
            cooling=(
                CoolingDegradation(3, 14, derate=1.0, ramp_ticks=2),
            )
        )
        controller, collector = run_resilient(
            tree=tree,
            plant_faults=schedule,
            outside_temp=outside,
            target_utilization=0.8,
            n_ticks=n_ticks,
            seed=seed,
        )
        _assert_safe(collector)
        assert all(
            s.thermal.violations == 0 for s in controller.servers.values()
        )

    def test_paper_fleet_survives_everything(self):
        """The kitchen-sink run on the full 18-server topology."""
        tree = build_paper_simulation()
        n_ticks = 48
        schedule = random_plant_schedule(
            tree,
            seed=11,
            horizon_ticks=n_ticks,
            n_crashes=4,
            n_sensor_faults=6,
            n_cooling_events=3,
            n_circuit_trips=2,
        )
        controller, collector = run_resilient(
            tree=tree,
            plant_faults=schedule,
            outside_temp=48.0,
            target_utilization=0.9,
            n_ticks=n_ticks,
            seed=11,
        )
        _assert_safe(collector)
        counts = collector.plant_event_counts()
        assert counts.get("server_crash", 0) >= 1
        assert counts.get("sensor_quarantine", 0) >= 1


# ---------------------------------------------------------------------------
# Crash / evacuation / restart mechanics.
# ---------------------------------------------------------------------------
class TestCrashAndEvacuation:
    def _run(self, schedule, n_ticks=24, **kwargs):
        kwargs.setdefault("target_utilization", 0.5)
        return run_resilient(
            tree=build_balanced([3, 3]),
            plant_faults=schedule,
            n_ticks=n_ticks,
            seed=2,
            **kwargs,
        )

    def test_crashed_server_draws_nothing(self):
        victim_tree = build_balanced([3, 3])
        victim = victim_tree.servers()[0].node_id
        schedule = PlantFaultSchedule(crashes=(ServerCrash(victim, 4, 12),))
        controller, collector = run_resilient(
            tree=victim_tree,
            plant_faults=schedule,
            target_utilization=0.5,
            n_ticks=24,
            seed=2,
        )
        power = collector.server_series(victim, "power")
        assert np.all(power[4:12] == 0.0)
        counts = collector.plant_event_counts()
        assert counts["server_crash"] == 1
        assert counts["server_restart"] == 1

    def test_vms_are_evacuated_and_crash_events_recorded(self):
        tree = build_balanced([3, 3])
        victim = tree.servers()[0].node_id
        schedule = PlantFaultSchedule(crashes=(ServerCrash(victim, 4, 16),))
        controller, collector = run_resilient(
            tree=tree,
            plant_faults=schedule,
            target_utilization=0.3,  # plenty of surplus to evacuate into
            n_ticks=24,
            seed=2,
        )
        evacs = collector.migrations_by_cause(MigrationCause.EVACUATION)
        assert evacs, "stranded VMs must be evacuated"
        assert all(m.src_id == victim for m in evacs)
        # Once evacuated the victim hosts nothing until restart.
        assert not controller.servers[victim].vms or all(
            vm.host_id == victim
            for vm in controller.servers[victim].vms.values()
        )

    def test_restart_pays_wake_latency(self):
        tree = build_balanced([3, 3])
        victim = tree.servers()[0].node_id
        end = 12
        schedule = PlantFaultSchedule(crashes=(ServerCrash(victim, 4, end),))
        controller, collector = run_resilient(
            tree=tree,
            # No consolidation: it could legitimately re-drain the
            # freshly restarted (now empty) server and mask the wake.
            config=WillowConfig(consolidation_enabled=False),
            plant_faults=schedule,
            target_utilization=0.5,
            n_ticks=24,
            seed=2,
        )
        config = controller.config
        asleep = collector.server_series(victim, "asleep").astype(bool)
        # FAILED and WAKING both sample as not-awake; the server must
        # stay not-awake for wake_latency_ticks after the crash window.
        assert np.all(asleep[end : end + config.wake_latency_ticks])
        assert not asleep[end + config.wake_latency_ticks]
        assert controller.servers[victim].failed_ticks > 0

    def test_fail_repair_state_machine(self):
        tree = build_balanced([2])
        _, collector = run_willow(tree=tree, n_ticks=1, seed=0)
        # Direct unit check on the runtime methods.
        from repro.core.state import ServerRuntime

        runtime = ServerRuntime(tree.servers()[0], WillowConfig())
        with pytest.raises(RuntimeError):
            runtime.repair()  # not failed
        runtime.fail()
        assert runtime.sleep_state is SleepState.FAILED
        assert runtime.actual_power() == 0.0
        runtime.repair()
        assert runtime.sleep_state is SleepState.WAKING


# ---------------------------------------------------------------------------
# Sensor faults, validation and quarantine.
# ---------------------------------------------------------------------------
class TestSensorFaults:
    def _run_with_fault(self, kind, magnitude=0.0, n_ticks=24, **kwargs):
        tree = build_balanced([3, 3])
        victim = tree.servers()[1].node_id
        schedule = PlantFaultSchedule(
            sensor_faults=(
                SensorFault(victim, 4, 14, kind=kind, magnitude=magnitude),
            )
        )
        controller, collector = run_resilient(
            tree=tree,
            plant_faults=schedule,
            target_utilization=0.7,
            n_ticks=n_ticks,
            seed=3,
            **kwargs,
        )
        return victim, controller, collector

    @pytest.mark.parametrize(
        "kind,magnitude",
        [
            (SENSOR_DROPOUT, 0.0),
            (SENSOR_DRIFT, 2.0),
            (SENSOR_NOISE, 8.0),
        ],
    )
    def test_lying_sensor_is_quarantined_and_restored(self, kind, magnitude):
        victim, controller, collector = self._run_with_fault(kind, magnitude)
        counts = collector.plant_event_counts()
        assert counts.get("sensor_quarantine", 0) >= 1
        assert counts.get("sensor_restore", 0) >= 1
        events = collector.plant_events_for(victim)
        kinds = [e.kind for e in events]
        assert kinds.index("sensor_quarantine") < kinds.index("sensor_restore")
        # By the end of the run trust is re-established.
        assert controller.sensors.trusted(victim)
        _assert_safe(collector)

    def test_stuck_sensor_in_integrated_mode_is_caught(self):
        # Stuck-at freezes the reading while the true temperature moves;
        # the residual against the open-loop RC prediction flags it.
        victim, controller, collector = self._run_with_fault(
            SENSOR_STUCK, config=WillowConfig(thermal_mode="integrated")
        )
        counts = collector.plant_event_counts()
        assert counts.get("sensor_quarantine", 0) >= 1
        # Integrated mode overshoots T_limit between allocations even
        # with a perfect plant; the fault must not make that worse.
        _, ideal = run_willow(
            tree=build_balanced([3, 3]),
            config=WillowConfig(thermal_mode="integrated"),
            target_utilization=0.7,
            n_ticks=24,
            seed=3,
        )
        ideal_peak = max(s.temperature for s in ideal.server_samples)
        _assert_safe(collector, t_ceiling=ideal_peak)

    def test_quarantined_server_runs_open_loop_conservatively(self):
        """While quarantined, the believed cap never exceeds the true cap."""
        tree = build_balanced([3, 3])
        victim = tree.servers()[0].node_id
        schedule = PlantFaultSchedule(
            sensor_faults=(
                SensorFault(victim, 4, 20, kind=SENSOR_DRIFT, magnitude=3.0),
            )
        )
        controller, collector = run_resilient(
            tree=tree,
            plant_faults=schedule,
            target_utilization=0.7,
            n_ticks=24,
            seed=3,
        )
        server = controller.servers[victim]
        if not controller.sensors.trusted(victim):
            believed = controller._server_cap(server)
            assert believed <= server.hard_cap() + 1e-9
        _assert_safe(collector)

    def test_non_finite_outside_temperature_rejected(self):
        for outside in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="outside_temp must be"):
                run_resilient(n_ticks=1, outside_temp=outside)

    def test_validator_config_validation(self):
        with pytest.raises(ValueError):
            SensorValidatorConfig(max_rate=0.0)
        with pytest.raises(ValueError):
            SensorValidatorConfig(residual_tol=-1.0)
        with pytest.raises(ValueError):
            SensorValidatorConfig(quarantine_ticks=0)
        with pytest.raises(ValueError):
            SensorValidatorConfig(uncertainty_margin=-1.0)


# ---------------------------------------------------------------------------
# Cooling degradation and thermal shutdown.
# ---------------------------------------------------------------------------
class TestCoolingDegradation:
    def test_zone_ambient_ramps_and_recovers(self):
        tree = build_balanced([3, 3])
        zone = tree.root.children[0]
        schedule = PlantFaultSchedule(
            cooling=(
                CoolingDegradation(
                    4, 12, derate=0.6, zone_id=zone.node_id, ramp_ticks=3
                ),
            )
        )
        controller, collector = run_resilient(
            tree=tree,
            plant_faults=schedule,
            outside_temp=45.0,
            target_utilization=0.5,
            n_ticks=24,
            seed=4,
        )
        in_zone = {leaf.node_id for leaf in tree.subtree_leaves(zone)}
        base = WillowConfig().thermal.t_ambient
        for sid, server in controller.servers.items():
            # After the ramp-down completes everyone is back at base.
            assert server.thermal_params.t_ambient == pytest.approx(base)
        # During the event, in-zone temperatures ran hotter than the
        # out-zone ones at comparable load.
        counts = collector.plant_event_counts()
        assert counts["cooling_degraded"] == 1
        assert counts["cooling_restored"] == 1
        _assert_safe(collector)
        # Out-of-zone servers never saw their ambient move.
        out_zone = set(controller.servers) - in_zone
        for sid in out_zone:
            assert not [
                e
                for e in collector.plant_events_for(sid)
                if e.kind == "thermal_shutdown"
            ]

    def test_extreme_heat_triggers_shutdown_not_violation(self):
        tree = build_balanced([3, 3])
        schedule = PlantFaultSchedule(
            cooling=(CoolingDegradation(3, 15, derate=1.0, ramp_ticks=1),)
        )
        controller, collector = run_resilient(
            tree=tree,
            plant_faults=schedule,
            outside_temp=65.0,
            target_utilization=0.8,
            n_ticks=28,
            seed=4,
        )
        counts = collector.plant_event_counts()
        assert counts.get("thermal_shutdown", 0) >= 1
        assert counts.get("server_recovered", 0) >= 1
        assert all(
            s.thermal.violations == 0 for s in controller.servers.values()
        )
        _assert_safe(collector)

    def test_degraded_supply_temperature_model(self):
        from repro.cooling.model import CoolingModel

        model = CoolingModel()
        assert model.degraded_supply_temperature(25.0, 40.0, 0.0) == 25.0
        full = model.degraded_supply_temperature(25.0, 40.0, 1.0)
        assert full == pytest.approx(25.0 + 15.0 + 15.0)
        half = model.degraded_supply_temperature(25.0, 40.0, 0.5)
        assert 25.0 < half < full
        # Cold outside air still leaks the return delta.
        assert model.degraded_supply_temperature(25.0, 10.0, 1.0) == 40.0
        with pytest.raises(ValueError):
            model.degraded_supply_temperature(25.0, 40.0, 1.5)
        with pytest.raises(ValueError):
            model.degraded_supply_temperature(25.0, 40.0, 0.5, return_delta=-1)


# ---------------------------------------------------------------------------
# Circuit trips.
# ---------------------------------------------------------------------------
class TestCircuitTrips:
    def test_tripped_subtree_gets_zero_budget(self):
        tree = build_balanced([3, 3])
        group = tree.root.children[1]
        start, end = 4, 14
        schedule = PlantFaultSchedule(
            trips=(CircuitTrip(group.node_id, start, end),)
        )
        controller, collector = run_resilient(
            tree=tree,
            plant_faults=schedule,
            target_utilization=0.5,
            n_ticks=24,
            seed=5,
        )
        tripped = {leaf.node_id for leaf in tree.subtree_leaves(group)}
        times = collector.times()
        for sid in tripped:
            budgets = collector.server_series(sid, "budget")
            # Budgets are zero for every tick inside the trip window.
            assert np.all(budgets[start:end] == 0.0)
            # And recover afterwards (allocation is forced on restore).
            assert budgets[end:].max() > 0.0
        counts = collector.plant_event_counts()
        assert counts["circuit_trip"] == 1
        assert counts["circuit_restore"] == 1
        _assert_safe(collector)

    def test_budgets_never_negative_under_overlapping_trips(self):
        tree = build_balanced([3, 3])
        groups = tree.root.children
        schedule = PlantFaultSchedule(
            trips=(
                CircuitTrip(groups[0].node_id, 2, 12),
                CircuitTrip(groups[1].node_id, 6, 16),
            )
        )
        _, collector = run_resilient(
            tree=tree,
            plant_faults=schedule,
            target_utilization=0.6,
            n_ticks=24,
            seed=5,
        )
        _assert_safe(collector)


# ---------------------------------------------------------------------------
# Schedule plumbing.
# ---------------------------------------------------------------------------
class TestScheduleValidation:
    def test_windows_are_half_open(self):
        crash = ServerCrash(0, 3, 6)
        assert not crash.covers(2)
        assert crash.covers(3)
        assert crash.covers(5)
        assert not crash.covers(6)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            ServerCrash(0, -1, 4)
        with pytest.raises(ValueError):
            ServerCrash(0, 5, 5)
        with pytest.raises(ValueError):
            SensorFault(0, 1, 4, kind="bogus")
        with pytest.raises(ValueError):
            SensorFault(0, 1, 4, kind=SENSOR_DRIFT, magnitude=-1.0)
        with pytest.raises(ValueError):
            CoolingDegradation(1, 4, derate=0.0)
        with pytest.raises(ValueError):
            CoolingDegradation(1, 4, derate=1.5)
        with pytest.raises(ValueError):
            CoolingDegradation(1, 4, derate=0.5, ramp_ticks=0)

    def test_cooling_ramp_shape(self):
        event = CoolingDegradation(4, 10, derate=0.8, ramp_ticks=4)
        assert event.effective_derate(3) == 0.0
        assert event.effective_derate(4) == pytest.approx(0.2)
        assert event.effective_derate(7) == pytest.approx(0.8)
        assert event.effective_derate(9) == pytest.approx(0.8)
        assert event.effective_derate(10) == pytest.approx(0.6)
        assert event.effective_derate(13) == 0.0

    def test_schedule_queries(self):
        schedule = PlantFaultSchedule(
            crashes=(ServerCrash(3, 2, 6),),
            sensor_faults=(SensorFault(4, 1, 5, kind=SENSOR_NOISE, magnitude=1.0),),
            trips=(CircuitTrip(1, 3, 7),),
        )
        assert not schedule.empty
        assert schedule.is_crashed(3, 2)
        assert not schedule.is_crashed(3, 6)
        assert not schedule.is_crashed(9, 2)
        assert len(schedule.sensor_faults_at(4, 1)) == 1
        assert schedule.sensor_faults_at(4, 5) == ()
        assert schedule.tripped_roots(3) == (1,)
        assert schedule.tripped_roots(7) == ()
        assert PlantFaultSchedule().empty

    def test_random_schedule_deterministic_and_bounded(self):
        tree = build_paper_simulation()
        kwargs = dict(
            seed=9,
            horizon_ticks=40,
            n_crashes=3,
            n_sensor_faults=4,
            n_cooling_events=2,
            n_circuit_trips=2,
        )
        a = random_plant_schedule(tree, **kwargs)
        b = random_plant_schedule(tree, **kwargs)
        assert a == b
        c = random_plant_schedule(tree, **{**kwargs, "seed": 10})
        assert a != c
        server_ids = {s.node_id for s in tree.servers()}
        internal_ids = {
            n.node_id for n in tree if not n.is_leaf and not n.is_root
        }
        for crash in a.crashes:
            assert crash.server_id in server_ids
            assert 0 <= crash.start_tick < crash.end_tick
        for fault in a.sensor_faults:
            assert fault.server_id in server_ids
        for trip in a.trips:
            assert trip.node_id in internal_ids
        for event in a.cooling:
            assert event.zone_id is None or event.zone_id in internal_ids
            assert 0.0 < event.derate <= 1.0


# ---------------------------------------------------------------------------
# Plant events land in the metrics layer.
# ---------------------------------------------------------------------------
class TestPlantEventMetrics:
    def test_events_surface_in_summary(self):
        from repro.metrics.summary import summarize_run

        tree = build_balanced([3, 3])
        victim = tree.servers()[0].node_id
        schedule = PlantFaultSchedule(crashes=(ServerCrash(victim, 2, 8),))
        _, collector = run_resilient(
            tree=tree,
            plant_faults=schedule,
            target_utilization=0.5,
            n_ticks=16,
            seed=6,
        )
        summary = summarize_run(collector)
        assert summary.plant_events["server_crash"] == 1
        assert "plant events" in summary.format()
        assert "server_crash=1" in summary.format()

    def test_events_for_node_are_time_ordered(self):
        tree = build_balanced([3, 3])
        victim = tree.servers()[0].node_id
        schedule = PlantFaultSchedule(
            crashes=(ServerCrash(victim, 2, 6), ServerCrash(victim, 10, 14))
        )
        _, collector = run_resilient(
            tree=tree,
            plant_faults=schedule,
            target_utilization=0.5,
            n_ticks=20,
            seed=6,
        )
        events = collector.plant_events_for(victim)
        times = [e.time for e in events]
        assert times == sorted(times)
        kinds = [e.kind for e in events]
        assert kinds == [
            "server_crash",
            "server_restart",
            "server_crash",
            "server_restart",
        ]

    def test_plant_event_validation(self):
        from repro.core.events import PlantEvent

        with pytest.raises(ValueError):
            PlantEvent(time=0.0, kind="", node_id=1)


# ---------------------------------------------------------------------------
# The resilience experiment.
# ---------------------------------------------------------------------------
class TestResilienceExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.fig_resilience import run

        return run(fault_rates=(0.0, 1.0), n_ticks=30, seed=3)

    def test_registered(self):
        from repro.experiments.runner import REGISTRY

        assert "resilience" in REGISTRY

    def test_zero_rate_matches_ideal(self, result):
        cell = result.data["sweep"][0.0]
        assert cell["events"] == {}
        assert cell["evacuations"] == 0

    def test_all_cells_safe(self, result):
        for cell in result.data["sweep"].values():
            assert cell["worst_temp"] <= result.data["t_limit"] + 1e-6
            assert cell["violations"] == 0
            assert cell["min_budget"] >= 0.0

    def test_faulted_cell_degrades(self, result):
        healthy = result.data["sweep"][0.0]
        faulted = result.data["sweep"][1.0]
        assert faulted["events"], "fault rate 1.0 must inject something"
        assert faulted["dropped"] >= healthy["dropped"]
