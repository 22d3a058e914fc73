"""Tests for the predictive (receding-horizon MPC) federation layer.

Covers the contracts ``ISSUE`` pins:

* ``horizon=0`` is decision-bit-exact with ``proportional`` (policy
  level and whole-federation level);
* a single-site predictive federation is bit-exact with ``neutral``;
* all-deficit statuses emit no transfers;
* planned transfers never exceed donor headroom minus the margin
  (Hypothesis property over random statuses/forecasts);
* a live setpoint change composes with an in-progress CRAC-derate ramp
  instead of resetting it;
* planner/battery-plan/cooling state round-trips
  ``snapshot_state()``/``restore_state()`` with digest parity;
* the headline experiment claim (lookahead strictly reduces dropped
  demand at equal-or-lower WAN energy, zero thermal violations).
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cooling.model import CoolingModel
from repro.federation import (
    CoolingControl,
    CoolingSetpoint,
    SiteForecast,
    SiteSpec,
    SiteStatus,
    build_federation,
    predictive_policy,
    proportional,
    run_federation,
)
from repro.federation.predictive import ActuatedSupply, PredictivePlanner
from repro.power import constant_supply, renewable_supply, step_supply
from repro.power.battery import Battery
from repro.service.simulation import decision_digest

_EPS = 1e-9


def status(name, supply, demand, carbon=1.0, price=1.0):
    return SiteStatus(
        name=name,
        supply=supply,
        smoothed_demand=demand,
        carbon=carbon,
        price=price,
    )


def flat_forecast(s, horizon):
    """A forecast that just extends the current supply forward."""
    return SiteForecast(name=s.name, supplies=(s.supply,) * (horizon + 1))


class TestPolicyDegradation:
    def test_horizon_zero_is_proportional_verbatim(self):
        statuses = [
            status("a", 100.0, 500.0),
            status("b", 900.0, 100.0),
            status("c", 600.0, 200.0),
        ]
        assert predictive_policy(statuses, margin=50.0, horizon=0) == (
            proportional(statuses, margin=50.0)
        )

    def test_no_forecasts_degrades_too(self):
        statuses = [status("a", 100.0, 500.0), status("b", 900.0, 100.0)]
        assert predictive_policy(
            statuses, margin=0.0, horizon=3, forecasts=None
        ) == proportional(statuses, margin=0.0)

    def test_flat_forecasts_match_proportional_watts(self):
        # With flat forecasts and no predicted crunch anywhere, the
        # horizon-screened waterfall sees the same donors and deficits
        # as proportional.
        statuses = [status("a", 100.0, 500.0), status("b", 900.0, 100.0)]
        forecasts = [flat_forecast(s, 3) for s in statuses]
        predicted = predictive_policy(
            statuses, margin=0.0, horizon=3, forecasts=forecasts
        )
        myopic = proportional(statuses, margin=0.0)
        assert [(t.src, t.dst, t.watts) for t in predicted] == [
            (t.src, t.dst, t.watts) for t in myopic
        ]

    def test_all_deficit_emits_nothing(self):
        statuses = [
            status("a", 100.0, 500.0),
            status("b", 200.0, 400.0),
            status("c", 50.0, 60.0),
        ]
        forecasts = [flat_forecast(s, 2) for s in statuses]
        assert predictive_policy(
            statuses, margin=0.0, horizon=2, forecasts=forecasts
        ) == []

    def test_missing_forecast_rejected(self):
        statuses = [status("a", 100.0, 500.0), status("b", 900.0, 100.0)]
        with pytest.raises(ValueError, match="no forecast"):
            predictive_policy(
                statuses,
                horizon=2,
                forecasts=[flat_forecast(statuses[0], 2)],
            )

    def test_dimming_donor_is_screened_out(self):
        # b has headroom now but the forecast says it dims below the
        # deficit next period: no load is parked there.
        statuses = [status("a", 100.0, 500.0), status("b", 900.0, 100.0)]
        forecasts = [
            flat_forecast(statuses[0], 2),
            SiteForecast(name="b", supplies=(900.0, 50.0, 50.0)),
        ]
        assert predictive_policy(
            statuses, margin=0.0, horizon=2, forecasts=forecasts
        ) == []

    def test_preemptive_shift_ahead_of_predicted_crunch(self):
        # a is fine now, but its forecast collapses; b stays plentiful.
        statuses = [status("a", 600.0, 500.0), status("b", 900.0, 100.0)]
        forecasts = [
            SiteForecast(name="a", supplies=(600.0, 100.0, 100.0)),
            flat_forecast(statuses[1], 2),
        ]
        transfers = predictive_policy(
            statuses, margin=0.0, horizon=2, forecasts=forecasts
        )
        assert transfers and all(t.preemptive for t in transfers)
        assert all(t.src == "a" and t.dst == "b" for t in transfers)

    def test_battery_relief_suppresses_preemptive_shift(self):
        # The same predicted crunch, but the UPS plan can carry it.
        statuses = [status("a", 600.0, 500.0), status("b", 900.0, 100.0)]
        forecasts = [
            SiteForecast(
                name="a",
                supplies=(600.0, 100.0, 100.0),
                battery_charge=4000.0,
                battery_rate=500.0,
            ),
            flat_forecast(statuses[1], 2),
        ]
        assert predictive_policy(
            statuses, margin=0.0, horizon=2, forecasts=forecasts
        ) == []

    def test_wan_break_even_gates_preemptive_shift(self):
        statuses = [status("a", 600.0, 500.0), status("b", 900.0, 100.0)]
        forecasts = [
            SiteForecast(name="a", supplies=(600.0, 100.0, 100.0)),
            flat_forecast(statuses[1], 2),
        ]
        assert predictive_policy(
            statuses,
            margin=0.0,
            horizon=2,
            forecasts=forecasts,
            wan_break_even=1e9,
        ) == []


watts = st.floats(0.0, 2000.0, allow_nan=False, allow_infinity=False)


class TestDonorHeadroomProperty:
    @given(
        data=st.lists(
            st.tuples(watts, watts, st.lists(watts, min_size=2, max_size=2)),
            min_size=2,
            max_size=6,
        ),
        margin=st.floats(0.0, 100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_transfers_never_exceed_donor_room(self, data, margin):
        statuses = [
            status(f"s{i}", supply, demand)
            for i, (supply, demand, _future) in enumerate(data)
        ]
        forecasts = [
            SiteForecast(
                name=f"s{i}", supplies=(supply, *future)
            )
            for i, (supply, demand, future) in enumerate(data)
        ]
        transfers = predictive_policy(
            statuses, margin=margin, horizon=2, forecasts=forecasts
        )
        by_status = {s.name: s for s in statuses}
        by_forecast = {f.name: f for f in forecasts}
        incoming: dict = {}
        for t in transfers:
            assert t.watts > 0
            incoming[t.dst] = incoming.get(t.dst, 0.0) + t.watts
        for name, total in incoming.items():
            donor = by_status[name]
            demand = donor.smoothed_demand
            floor = min(
                [donor.headroom]
                + [s - demand for s in by_forecast[name].supplies[1:]]
            )
            # A donor never receives more than its worst-case headroom
            # over the window minus the margin.
            assert total <= floor - margin + 1e-6


class TestFederationEquivalence:
    def _specs(self):
        return [
            SiteSpec(
                name="west",
                supply=renewable_supply(6000.0, day_length=32.0),
                seed=1,
                battery=Battery(500.0, 100.0),
            ),
            SiteSpec(
                name="east",
                supply=renewable_supply(6000.0, day_length=32.0, phase=0.5),
                seed=2,
            ),
        ]

    def _digests(self, coordinator):
        return [
            decision_digest(site.controller.collector)
            for site in coordinator.sites
        ]

    def test_horizon_zero_bit_exact_vs_proportional(self):
        myopic = run_federation(
            self._specs(), n_ticks=24, policy="proportional"
        )
        degraded = run_federation(
            self._specs(), n_ticks=24, policy="predictive", horizon=0
        )
        assert myopic.cross_migrations  # the scenario actually shifts
        assert self._digests(myopic) == self._digests(degraded)
        assert [
            [(t.src, t.dst, t.watts) for t in transfers]
            for _tick, transfers in myopic.transfer_log
        ] == [
            [(t.src, t.dst, t.watts) for t in transfers]
            for _tick, transfers in degraded.transfer_log
        ]

    def test_single_site_predictive_is_neutral(self):
        spec = [
            SiteSpec(
                name="only",
                supply=renewable_supply(6000.0, day_length=32.0),
                seed=3,
            )
        ]
        idle = run_federation(spec, n_ticks=24, policy="neutral")
        predicted = run_federation(
            spec, n_ticks=24, policy="predictive", horizon=4
        )
        assert predicted.cross_migrations == []
        assert self._digests(idle) == self._digests(predicted)


class TestCoolingActuation:
    def test_actuated_supply_subtracts_overhead(self):
        wrapped = ActuatedSupply(constant_supply(100.0))
        assert wrapped.at(5.0) == 100.0
        wrapped.overhead = 30.0
        assert wrapped.at(5.0) == 70.0
        wrapped.overhead = 500.0
        assert wrapped.at(5.0) == 0.0  # clamped, never negative

    def test_setpoint_cop_relieves_chiller(self):
        model = CoolingModel()
        hot = model.setpoint_cop(25.0, 30.0)
        relieved = model.setpoint_cop(32.0, 30.0)
        assert relieved > hot
        assert model.setpoint_cooling_power(
            1000.0, 32.0, 30.0
        ) < model.setpoint_cooling_power(1000.0, 25.0, 30.0)

    def test_setpoint_validation(self):
        with pytest.raises(ValueError):
            CoolingSetpoint(site="", base_ambient=25.0)
        with pytest.raises(ValueError):
            CoolingSetpoint(site="a", base_ambient=99.0)
        with pytest.raises(ValueError):
            CoolingControl(nominal_setpoint=30.0, max_setpoint=25.0)
        for outside in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="outside_temp must be"):
                CoolingControl(outside_temp=outside)

    def test_cooling_rejected_for_vectorized_sites(self):
        specs = [
            SiteSpec(name="a", vectorized=True),
            SiteSpec(name="b", vectorized=True),
        ]
        with pytest.raises(ValueError, match="vectorized"):
            build_federation(
                specs,
                n_ticks=8,
                policy="predictive",
                horizon=2,
                cooling=CoolingControl(),
            )

    def test_planner_raises_and_restores_setpoint(self):
        planner = PredictivePlanner(horizon=2)
        control = CoolingControl(nominal_setpoint=25.0, max_setpoint=32.0)
        crunch = [status("a", 100.0, 500.0), status("b", 900.0, 100.0)]
        _, setpoints = planner.plan(
            crunch,
            [flat_forecast(s, 2) for s in crunch],
            margin=0.0,
            step=4.0,
            wan_break_even=0.0,
            cooling=control,
        )
        assert setpoints == [CoolingSetpoint(site="a", base_ambient=32.0)]
        recovered = [status("a", 900.0, 500.0), status("b", 900.0, 100.0)]
        _, setpoints = planner.plan(
            recovered,
            [flat_forecast(s, 2) for s in recovered],
            margin=0.0,
            step=4.0,
            wan_break_even=0.0,
            cooling=control,
        )
        assert setpoints == [CoolingSetpoint(site="a", base_ambient=25.0)]


class TestSetpointFaultComposition:
    def _controller(self, schedule):
        from repro.core.config import WillowConfig
        from repro.plant_faults.controller import (
            FaultTolerantWillowController,
        )
        from repro.sim.rng import RandomStreams
        from repro.topology.builders import build_paper_simulation
        from repro.workload.applications import SIMULATION_APPS
        from repro.workload.generator import random_placement

        tree = build_paper_simulation()
        config = WillowConfig()
        placement = random_placement(
            [s.node_id for s in tree.servers()],
            SIMULATION_APPS,
            RandomStreams(0)["placement"],
            vms_per_server=2,
        )
        return FaultTolerantWillowController(
            tree,
            config,
            constant_supply(9000.0),
            placement,
            plant_faults=schedule,
            outside_temp=35.0,
        )

    def test_setpoint_change_mid_derate_keeps_ramp(self):
        from repro.plant_faults.schedule import (
            CoolingDegradation,
            PlantFaultSchedule,
        )

        schedule = PlantFaultSchedule(
            cooling=(
                CoolingDegradation(
                    start_tick=4, end_tick=40, derate=0.5, ramp_ticks=8
                ),
            )
        )
        controller = self._controller(schedule)
        controller.run(8)  # mid-ramp: effective derate is ramping up

        event = schedule.cooling[0]
        tick = controller._tick_index
        derate_now = event.effective_derate(tick)
        assert 0.0 < derate_now < 0.5  # genuinely mid-ramp

        server = next(iter(controller.servers.values()))
        new_base = 29.0
        controller.set_base_ambient(new_base)

        # The new ambient composes base + the *current* derate -- the
        # ramp is re-anchored, not reset.
        expected = controller.cooling.degraded_supply_temperature(
            new_base, controller.outside_temp, derate_now
        )
        ceiling = (
            server.thermal_params.t_limit
            - controller.ambient_clamp_headroom
        )
        assert server.thermal_params.t_ambient == pytest.approx(
            min(expected, ceiling)
        )

        # And the ramp keeps climbing from the new base on later ticks.
        controller.run(4)
        derate_later = event.effective_derate(controller._tick_index - 1)
        assert derate_later > derate_now
        expected_later = controller.cooling.degraded_supply_temperature(
            new_base, controller.outside_temp, derate_later
        )
        assert server.thermal_params.t_ambient == pytest.approx(
            min(expected_later, ceiling)
        )
        assert controller._base_ambient[server.node.node_id] == new_base

    def test_base_ambient_round_trips_snapshot(self):
        from repro.plant_faults.schedule import PlantFaultSchedule

        controller = self._controller(PlantFaultSchedule())
        controller.run(2)
        controller.set_base_ambient(28.0)
        state = controller.snapshot_state()
        twin = self._controller(PlantFaultSchedule())
        twin.restore_state(copy.deepcopy(state))
        assert twin._base_ambient == controller._base_ambient


class TestPredictiveCheckpoint:
    def _build(self, n_ticks=24):
        specs = [
            SiteSpec(
                name="west",
                supply=renewable_supply(6000.0, day_length=32.0),
                seed=1,
                battery=Battery(500.0, 100.0),
            ),
            SiteSpec(
                name="east",
                supply=renewable_supply(6000.0, day_length=32.0, phase=0.5),
                seed=2,
            ),
        ]
        return build_federation(
            specs,
            n_ticks=n_ticks,
            policy="predictive",
            horizon=3,
            cooling=CoolingControl(outside_temp=30.0),
        )

    def test_planner_state_survives_resume_bit_exact(self):
        n_ticks = 24
        reference = self._build(n_ticks)
        reference.run(n_ticks)
        expected = [
            decision_digest(site.controller.collector)
            for site in reference.sites
        ]
        expected_planner = reference._planner.state_dict()

        first = self._build(n_ticks)
        first.run(10)
        state = copy.deepcopy(first.snapshot_state())
        assert state["planner"]["planner"]["horizon"] == 3

        twin = self._build(n_ticks)
        twin.restore_state(state)
        assert twin._planner.rebalances == first._planner.rebalances
        assert twin._planner.setpoints == first._planner.setpoints
        for site, twin_site in zip(first.sites, twin.sites):
            assert twin_site.setpoint == site.setpoint
            assert (
                twin_site.actuated_supply.overhead
                == site.actuated_supply.overhead
            )
        twin.run(n_ticks - 10)
        got = [
            decision_digest(site.controller.collector)
            for site in twin.sites
        ]
        assert got == expected
        assert twin._planner.state_dict() == expected_planner
        assert twin.setpoint_log == reference.setpoint_log

    def test_horizon_mismatch_rejected(self):
        planner = PredictivePlanner(horizon=2)
        with pytest.raises(ValueError, match="horizon"):
            planner.load_state_dict(PredictivePlanner(horizon=4).state_dict())


class TestBatteryPlan:
    def test_sites_carry_battery_plan_and_rate(self):
        from repro.federation.site import build_site

        spec = SiteSpec(
            name="a",
            supply=step_supply([(0.0, 9000.0), (10.0, 100.0)]),
            battery=Battery(800.0, 120.0),
        )
        site = build_site(spec, n_ticks=24)
        assert site.battery_rate == 120.0
        assert site.battery_plan is not None
        # Charged from early surplus, drained through the plunge.
        assert site.battery_charge_at(9.0) > 0.0
        assert site.battery_charge_at(20.0) < site.battery_charge_at(9.0)

    def test_site_without_battery_reports_zero(self):
        from repro.federation.site import build_site

        site = build_site(SiteSpec(name="a"), n_ticks=8)
        assert site.battery_plan is None
        assert site.battery_rate == 0.0
        assert site.battery_charge_at(3.0) == 0.0


class TestExperimentClaim:
    def test_smoke_assertions_hold(self, capsys):
        from repro.experiments.fig_predictive import smoke

        smoke()  # raises AssertionError on any regression
        assert "OK" in capsys.readouterr().out
