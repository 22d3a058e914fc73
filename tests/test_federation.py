"""Tests for the geo-federation layer (:mod:`repro.federation`).

The load-bearing contract is bit-exactness: a single-site federation
under the ``neutral`` policy must reproduce the scalar
``WillowController`` exactly -- same decisions, same float trajectories
-- because the coordinator then adds nothing but an alternative driver
loop.  Everything else (policies, WAN cost charging, the experiment's
headline claims) builds on that foundation.
"""

import pytest

from repro.core import WillowConfig
from repro.core.controller import WillowController, run_willow
from repro.federation import (
    FederationConfig,
    FederationCoordinator,
    POLICIES,
    SiteSpec,
    SiteStatus,
    Transfer,
    build_site,
    greedy_greenest,
    neutral,
    price_aware,
    proportional,
    run_federation,
)
from repro.metrics.federation import summarize_federation
from repro.power import constant_supply, renewable_supply


def collector_series(collector):
    """Every record table of a collector, keyed by name."""
    tables = collector.tables()
    assert len(tables) == 8, sorted(tables)
    return tables


# --------------------------------------------------------------- contract
class TestBitExactness:
    def test_single_site_neutral_matches_scalar(self):
        """The acceptance contract: decisions AND float trajectories."""
        _, scalar = run_willow(n_ticks=60, seed=3, target_utilization=0.5)
        coordinator = run_federation(
            [SiteSpec(name="solo", seed=3, target_utilization=0.5)],
            n_ticks=60,
            policy="neutral",
        )
        federated = coordinator.sites[0].collector

        scalar_series = collector_series(scalar)
        federated_series = collector_series(federated)
        assert scalar_series.keys() == federated_series.keys()
        for name in scalar_series:
            # Dataclass equality compares every float field exactly;
            # rtol=1e-12 is the ceiling, bit-equality is the target.
            assert scalar_series[name] == federated_series[name], name
        assert not coordinator.cross_migrations

    def test_single_site_neutral_matches_scalar_under_deficit(self):
        """Bit-exactness must also hold when budgets actually bind."""
        supply = renewable_supply(4000.0, cloud_noise=0.0)
        _, scalar = run_willow(
            n_ticks=96, seed=7, target_utilization=0.5, supply=supply
        )
        coordinator = run_federation(
            [
                SiteSpec(
                    name="solo", seed=7, target_utilization=0.5,
                    supply=supply,
                )
            ],
            n_ticks=96,
            policy="neutral",
        )
        federated = coordinator.sites[0].collector
        for name, series in collector_series(scalar).items():
            assert series == collector_series(federated)[name], name

    def test_neutral_sites_do_not_interact(self):
        """Under ``neutral``, changing one site leaves the others'
        trajectories untouched -- sites are genuinely isolated."""
        base = dict(seed=5, target_utilization=0.4)
        a = run_federation(
            [
                SiteSpec(name="x", **base),
                SiteSpec(name="y", seed=9, target_utilization=0.3),
            ],
            n_ticks=40,
            policy="neutral",
        )
        b = run_federation(
            [
                SiteSpec(name="x", **base),
                SiteSpec(name="y", seed=11, target_utilization=0.7),
            ],
            n_ticks=40,
            policy="neutral",
        )
        for name, series in collector_series(a.sites[0].collector).items():
            assert series == collector_series(b.sites[0].collector)[name]

    def test_vm_ids_are_unique_across_sites(self):
        coordinator = run_federation(
            [SiteSpec(name="a", seed=1), SiteSpec(name="b", seed=2)],
            n_ticks=4,
            policy="neutral",
        )
        ids = [
            vm.vm_id
            for site in coordinator.sites
            for vm in site.controller.placement.vms
        ]
        assert len(ids) == len(set(ids))


# --------------------------------------------------------------- policies
def status(name, supply, demand, carbon=1.0, price=1.0):
    return SiteStatus(
        name=name,
        supply=supply,
        smoothed_demand=demand,
        carbon=carbon,
        price=price,
    )


class TestPolicies:
    def test_registry_contents(self):
        assert set(POLICIES) == {
            "neutral", "proportional", "greedy-greenest", "price-aware",
            "predictive",
        }

    def test_neutral_never_shifts(self):
        statuses = [status("a", 0.0, 500.0), status("b", 900.0, 100.0)]
        assert neutral(statuses, margin=0.0) == []

    def test_proportional_splits_by_headroom(self):
        statuses = [
            status("needy", 100.0, 400.0),  # deficit 300
            status("big", 700.0, 100.0),  # headroom 600
            status("small", 400.0, 100.0),  # headroom 300
        ]
        transfers = proportional(statuses, margin=0.0)
        shares = {t.dst: t.watts for t in transfers}
        assert all(t.src == "needy" for t in transfers)
        assert shares["big"] == pytest.approx(200.0)
        assert shares["small"] == pytest.approx(100.0)

    def test_proportional_respects_margin(self):
        statuses = [
            status("needy", 0.0, 1000.0),
            status("donor", 500.0, 100.0),  # headroom 400
        ]
        transfers = proportional(statuses, margin=150.0)
        assert sum(t.watts for t in transfers) == pytest.approx(250.0)

    def test_greedy_greenest_prefers_low_carbon(self):
        statuses = [
            status("needy", 0.0, 100.0),
            status("coal", 800.0, 100.0, carbon=900.0),
            status("wind", 300.0, 100.0, carbon=10.0),
        ]
        transfers = greedy_greenest(statuses, margin=0.0)
        assert transfers[0].dst == "wind"
        assert transfers[0].watts == pytest.approx(100.0)
        assert len(transfers) == 1  # deficit fully met by the green site

    def test_price_aware_refuses_pricier_donors(self):
        statuses = [
            status("needy", 0.0, 200.0, price=50.0),
            status("cheap", 400.0, 100.0, price=20.0),
            status("pricey", 900.0, 100.0, price=80.0),
        ]
        transfers = price_aware(statuses, margin=0.0)
        assert {t.dst for t in transfers} == {"cheap"}

    def test_transfer_validation(self):
        with pytest.raises(ValueError):
            Transfer(src="a", dst="a", watts=10.0)
        with pytest.raises(ValueError):
            Transfer(src="a", dst="b", watts=0.0)

    def test_status_headroom_and_deficit(self):
        surplus = status("a", 500.0, 100.0)
        assert surplus.headroom == 400.0
        assert surplus.deficit == 0.0
        starved = status("b", 100.0, 500.0)
        assert starved.headroom == -400.0
        assert starved.deficit == 400.0


# ----------------------------------------------------------- coordinator
class TestCoordinatorValidation:
    def test_rejects_empty_federation(self):
        with pytest.raises(ValueError, match="at least one site"):
            FederationCoordinator([])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            run_federation(
                [SiteSpec(name="dup", seed=1), SiteSpec(name="dup", seed=2)],
                n_ticks=2,
            )

    def test_rejects_mismatched_cadence(self):
        specs = [
            SiteSpec(name="a", config=WillowConfig(eta1=4)),
            SiteSpec(name="b", config=WillowConfig(eta1=5)),
        ]
        with pytest.raises(ValueError, match="eta1"):
            run_federation(specs, n_ticks=2)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown federation policy"):
            run_federation(
                [SiteSpec(name="a")], n_ticks=2, policy="teleport"
            )

    def test_rejects_nonpositive_ticks(self):
        with pytest.raises(ValueError, match="n_ticks"):
            run_federation([SiteSpec(name="a")], n_ticks=0)

    def test_site_spec_validation(self):
        with pytest.raises(ValueError, match="name"):
            SiteSpec(name="")
        with pytest.raises(ValueError, match="target_utilization"):
            SiteSpec(name="a", target_utilization=0.0)

    def test_rejects_negative_wan_cost(self):
        # Zero is the no-WAN-cost ablation; a negative charge used to
        # be accepted and silently mean zero.
        assert FederationConfig(wan_cost_power=0.0, wan_cost_ticks=0)
        with pytest.raises(ValueError, match="wan_cost_power"):
            FederationConfig(wan_cost_power=-5.0)
        with pytest.raises(ValueError, match="wan_cost_ticks"):
            FederationConfig(wan_cost_ticks=-1)

    def test_callable_policy_accepted(self):
        coordinator = run_federation(
            [SiteSpec(name="a")], n_ticks=8, policy=neutral
        )
        assert coordinator.cross_migrations == []


def anti_correlated_specs(n_ticks=96, utilization=0.4):
    return [
        SiteSpec(
            name="west", seed=1, target_utilization=utilization,
            supply=renewable_supply(5200.0, base_fraction=0.3,
                                    cloud_noise=0.0),
        ),
        SiteSpec(
            name="east", seed=2, target_utilization=utilization,
            supply=renewable_supply(5200.0, base_fraction=0.3,
                                    cloud_noise=0.0, phase=0.5),
        ),
    ]


class TestCrossSiteShifting:
    def test_shifting_happens_and_is_recorded(self):
        coordinator = run_federation(
            anti_correlated_specs(), n_ticks=96, policy="proportional"
        )
        assert coordinator.cross_migrations
        sites = {site.name for site in coordinator.sites}
        for migration in coordinator.cross_migrations:
            assert migration.src_site in sites
            assert migration.dst_site in sites
            assert migration.src_site != migration.dst_site
            assert migration.demand > 0
            # The Eq. 5-9 inputs that justified the move.
            assert migration.src_deficit > 0
            assert migration.dst_surplus >= 0
        sent = sum(site.vms_sent for site in coordinator.sites)
        received = sum(site.vms_received for site in coordinator.sites)
        assert sent == received == len(coordinator.cross_migrations)

    def test_moved_vms_keep_their_demand_stream(self):
        """A shifted VM's home placement never mutates, so the per-VM
        demand sequence is unaffected by hosting decisions."""
        iso = run_federation(
            anti_correlated_specs(), n_ticks=96, policy="neutral"
        )
        fed = run_federation(
            anti_correlated_specs(), n_ticks=96, policy="proportional"
        )
        assert fed.cross_migrations
        for iso_site, fed_site in zip(iso.sites, fed.sites):
            iso_total = sum(
                vm.app.mean_power for vm in iso_site.controller.placement.vms
            )
            fed_total = sum(
                vm.app.mean_power for vm in fed_site.controller.placement.vms
            )
            assert iso_total == fed_total
            assert (
                [vm.vm_id for vm in iso_site.controller.placement.vms]
                == [vm.vm_id for vm in fed_site.controller.placement.vms]
            )

    def test_wan_cost_charged_on_both_ends(self):
        specs = anti_correlated_specs()
        sites = []
        offset = 0
        for spec in specs:
            site = build_site(spec, n_ticks=16, vm_id_offset=offset)
            offset += len(site.controller.placement.vms)
            sites.append(site)
        coordinator = FederationCoordinator(
            sites,
            federation=FederationConfig(
                policy="neutral", wan_cost_power=33.0, wan_cost_ticks=3
            ),
        )
        coordinator.run(8)  # settle smoothed demand

        src_site, dst_site = coordinator.sites
        src = next(
            s for s in src_site.controller.servers.values() if s.vms
        )
        vm = next(iter(src.vms.values()))
        vm.current_demand = max(vm.current_demand, 1.0)
        dst = dst_site.controller.servers[src.node.node_id]
        before_src = src.migration_cost_demand
        before_dst = dst.migration_cost_demand
        coordinator._move_vm(
            vm,
            src_site,
            src.node.node_id,
            dst_site,
            dst.node.node_id,
            8.0,
            src_deficit=1.0,
            dst_surplus=vm.current_demand,
        )
        assert src.migration_cost_demand == before_src + 33.0
        assert dst.migration_cost_demand == before_dst + 33.0
        assert vm.vm_id in dst.vms and vm.vm_id not in src.vms
        [migration] = coordinator.cross_migrations
        assert migration.wan_cost_power == 33.0
        assert migration.src_site == "west"
        assert migration.dst_site == "east"

    def test_wan_cost_defaults_scale_intra_site_cost(self):
        coordinator = run_federation(
            anti_correlated_specs(), n_ticks=40, policy="proportional"
        )
        config = coordinator.sites[0].config
        assert coordinator.cross_migrations
        for migration in coordinator.cross_migrations:
            assert migration.wan_cost_power == pytest.approx(
                4.0 * config.migration_cost_power
            )


# -------------------------------------------------------------- summary
class TestFederationSummary:
    def test_totals_are_site_sums(self):
        coordinator = run_federation(
            anti_correlated_specs(), n_ticks=48, policy="proportional"
        )
        summary = summarize_federation(coordinator)
        assert set(summary.sites) == {"west", "east"}
        assert summary.total_dropped_power == pytest.approx(
            sum(s.dropped_power for s in summary.sites.values())
        )
        assert summary.peak_temperature == max(
            s.peak_temperature for s in summary.sites.values()
        )
        assert summary.cross_migrations == len(coordinator.cross_migrations)
        formatted = summary.format()
        assert "west" in formatted and "east" in formatted
        assert "cross-site migrations" in formatted


# ------------------------------------------------------------ experiment
class TestFederationExperiment:
    def test_shifting_strictly_reduces_drops_with_thermal_safety(self):
        """The acceptance criterion: every sweep cell shows a strict
        dropped-demand reduction and zero thermal-limit violations."""
        from repro.experiments.fig_federation import run

        result = run()  # shipped defaults: 2 sites, 192 ticks, 4 cells
        assert result.data["sweep"]
        for cell in result.data["sweep"].values():
            assert (
                cell["federated_dropped"] < cell["isolated_dropped"]
            ), cell
            assert cell["violations"] == 0
            assert cell["worst_temp"] <= result.data["t_limit"] + 1e-6
            assert cell["cross_migrations"] > 0

    def test_registered_in_runner(self):
        from repro.experiments.runner import REGISTRY

        assert "federation" in REGISTRY


# ------------------------------------------------------------------ trace
class TestFederationTrace:
    def test_trace_has_meta_grants_and_migrations(self, tmp_path):
        from repro.trace import JsonlTraceWriter, Tracer, TraceReader

        path = tmp_path / "fed.trace"
        tracer = Tracer(JsonlTraceWriter(path))
        run_federation(
            anti_correlated_specs(),
            n_ticks=48,
            policy="proportional",
            tracer=tracer,
        )
        tracer.close()

        reader = TraceReader(path)
        run = reader.run
        assert run.controller == "FederationCoordinator"
        assert run.meta["federation"]["sites"] == ["west", "east"]
        assert run.meta["federation"]["policy"] == "proportional"
        grants = [
            grant
            for frame in run.frames
            for grant in frame.get("site_grants", [])
        ]
        assert grants
        assert {g["site"] for g in grants} == {"west", "east"}
        for grant in grants:
            assert grant["headroom"] == pytest.approx(
                grant["supply"] - grant["smoothed_demand"]
            )
        migrations = [
            m
            for frame in run.frames
            for m in frame.get("fed_migrations", [])
        ]
        assert migrations
        for migration in migrations:
            assert migration["src_site"] != migration["dst_site"]
            assert migration["wan_cost"] > 0

    def test_disabled_tracer_records_nothing(self):
        coordinator = run_federation(
            anti_correlated_specs(), n_ticks=24, policy="proportional"
        )
        assert coordinator.tracer.enabled is False


# ------------------------------------------------------------------- CLI
class TestFederationCli:
    def test_federation_subcommand(self, capsys):
        from repro.cli import main

        assert main(["federation", "--sites", "2", "--ticks", "12"]) == 0
        out = capsys.readouterr().out
        assert "Federated Willow run" in out
        assert "thermal safety" in out

    def test_federation_neutral_single_site(self, capsys):
        from repro.cli import main

        assert main(
            [
                "federation", "--sites", "1", "--ticks", "8",
                "--policy", "neutral",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "cross-site migrations   : 0" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["federation", "--sites", "0"],
            ["federation", "--ticks", "0"],
            ["federation", "--utilization", "0"],
            ["federation", "--policy", "teleport"],
            ["federation", "--battery", "nope"],
            ["federation", "--battery", "-5"],
        ],
    )
    def test_federation_invalid_arguments(self, argv, capsys):
        from repro.cli import main

        assert main(argv) == 2


# ------------------------------------------------- supporting machinery
class TestSupportingPieces:
    def test_environment_advance(self):
        from repro.sim.core import Environment, SimulationError

        env = Environment()
        env.advance(2.5)
        assert env.now == 2.5
        with pytest.raises(SimulationError):
            env.advance(-1.0)
        env.timeout(1.0)
        with pytest.raises(SimulationError, match="scheduled"):
            env.advance(1.0)

    def test_renewable_supply_phase_shifts_the_day(self):
        base = renewable_supply(1000.0, cloud_noise=0.0)
        shifted = renewable_supply(1000.0, cloud_noise=0.0, phase=0.5)
        # Half a day of phase: noon of one is midnight of the other.
        assert shifted.at(0.0) == pytest.approx(base.at(48.0))
        assert shifted.at(48.0) == pytest.approx(base.at(0.0), rel=1e-6)
        # phase=0 is the documented default behaviour, bit-exact.
        assert renewable_supply(1000.0, cloud_noise=0.0, phase=0.0) == base

    def test_build_site_selects_fault_tolerant_controller(self):
        from repro.plant_faults import random_plant_schedule
        from repro.plant_faults.controller import (
            FaultTolerantWillowController,
        )
        from repro.topology import build_paper_simulation

        tree = build_paper_simulation()
        schedule = random_plant_schedule(
            tree, seed=1, horizon_ticks=20, n_crashes=1
        )
        site = build_site(
            SiteSpec(name="faulty", plant_faults=schedule), n_ticks=20
        )
        assert isinstance(
            site.controller, FaultTolerantWillowController
        )
        plain = build_site(SiteSpec(name="clean"), n_ticks=20)
        assert type(plain.controller) is WillowController

    def test_site_headroom_uses_delivered_supply(self):
        site = build_site(
            SiteSpec(name="a", supply=constant_supply(3000.0)), n_ticks=8
        )
        site.controller._tick()
        assert site.supply_at(0.0) == 3000.0
        assert site.headroom(0.0) == pytest.approx(
            3000.0 - site.smoothed_demand()
        )
