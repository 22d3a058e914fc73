"""Tests for RunSummary aggregation."""

import pytest

from repro.core import run_willow
from repro.metrics import (
    MetricsCollector,
    mean_by_server,
    series_by_server,
    summarize_run,
)
from repro.metrics.summary import mean_by_switch_level


def test_summarize_real_run():
    controller, collector = run_willow(
        target_utilization=0.4, n_ticks=25, seed=3
    )
    summary = summarize_run(collector)
    assert summary.n_servers == 18
    assert summary.n_ticks == 25
    assert summary.mean_fleet_power > 0
    assert summary.peak_temperature <= 70.0 + 1e-6
    assert 0.0 <= summary.asleep_fraction <= 1.0
    assert 0.0 <= summary.local_migration_fraction <= 1.0
    assert (
        summary.demand_migrations + summary.consolidation_migrations
        == collector.migration_count()
    )


def test_per_server_summaries_equal_per_server_scans():
    # One grouping pass must average the same values in the same order
    # as the per-id scans, so the results agree bit for bit.
    _, collector = run_willow(target_utilization=0.7, n_ticks=30, seed=5)
    server_ids = collector.server_ids()
    for attribute in ("power", "temperature", "asleep"):
        means = mean_by_server(collector, attribute)
        assert list(means) == server_ids
        assert means == {
            i: collector.mean_server(i, attribute) for i in server_ids
        }
        series = series_by_server(collector, attribute)
        assert list(series) == server_ids
        for i, values in series.items():
            reference = collector.server_series(i, attribute)
            assert values.dtype == reference.dtype
            assert values.tolist() == reference.tolist()
    for level in sorted({s.level for s in collector.switch_samples}):
        assert mean_by_switch_level(collector, level, "power") == {
            i: collector.mean_switch(i, "power")
            for i in collector.switch_ids(level=level)
        }
    assert summarize_run(collector).mean_fleet_power == sum(
        collector.mean_server(i, "power") for i in server_ids
    )


def test_summary_format_is_readable():
    _, collector = run_willow(target_utilization=0.4, n_ticks=10, seed=3)
    text = summarize_run(collector).format()
    assert "fleet power" in text
    assert "migrations" in text


def test_empty_collector_rejected():
    with pytest.raises(ValueError):
        summarize_run(MetricsCollector())


def test_plant_events_absent_from_healthy_summary():
    _, collector = run_willow(target_utilization=0.4, n_ticks=10, seed=3)
    summary = summarize_run(collector)
    assert summary.plant_events == {}
    assert "plant events" not in summary.format()


def test_plant_event_counts_surface_in_summary():
    from repro.core.events import PlantEvent

    _, collector = run_willow(target_utilization=0.4, n_ticks=10, seed=3)
    collector.record_plant_event(PlantEvent(2.0, "server_crash", 3))
    collector.record_plant_event(PlantEvent(4.0, "server_restart", 3))
    collector.record_plant_event(
        PlantEvent(5.0, "sensor_quarantine", 7, detail="stuck")
    )
    collector.record_plant_event(PlantEvent(6.0, "sensor_quarantine", 8))
    summary = summarize_run(collector)
    assert summary.plant_events == {
        "server_crash": 1,
        "server_restart": 1,
        "sensor_quarantine": 2,
    }
    text = summary.format()
    assert "plant events" in text
    assert "sensor_quarantine=2" in text


def test_no_migrations_yields_zero_local_fraction():
    # Single-server run can't migrate; local fraction is defined as 0.
    from repro.core import WillowConfig, WillowController
    from repro.power import constant_supply
    from repro.sim import RandomStreams
    from repro.topology import NodeKind, Tree
    from repro.workload import SIMULATION_APPS, random_placement

    tree = Tree(root_name="dc", root_level=1)
    tree.add_child(tree.root, "s", NodeKind.SERVER)
    streams = RandomStreams(0)
    placement = random_placement(
        [tree.servers()[0].node_id], SIMULATION_APPS, streams["placement"]
    )
    controller = WillowController(
        tree, WillowConfig(), constant_supply(450.0), placement, seed=0
    )
    collector = controller.run(5)
    assert summarize_run(collector).local_migration_fraction == 0.0


# ------------------------------------------------------- unmatched deficits
# Regression: the summary reported drops and plant events but not
# unmatched deficits, so degraded-but-not-dropped demand was invisible.


def test_summary_reports_unmatched_deficits():
    from repro.plant_faults import random_plant_schedule, run_resilient
    from repro.topology import build_paper_simulation

    tree = build_paper_simulation()
    schedule = random_plant_schedule(
        tree, seed=7, horizon_ticks=60, n_crashes=2, n_circuit_trips=1
    )
    _, collector = run_resilient(
        tree=tree,
        plant_faults=schedule,
        target_utilization=0.8,
        n_ticks=60,
        seed=7,
    )
    assert collector.unmatched_deficits, "run produced no unmatched deficits"
    summary = summarize_run(collector)
    assert summary.unmatched_count == len(collector.unmatched_deficits)
    assert summary.unmatched_watts == pytest.approx(
        sum(d.power for d in collector.unmatched_deficits)
    )
    text = summary.format()
    assert "unmatched deficits" in text
    assert str(summary.unmatched_count) in text


def test_summary_unmatched_zero_on_ideal_run():
    _, collector = run_willow(target_utilization=0.3, n_ticks=10, seed=3)
    summary = summarize_run(collector)
    assert summary.unmatched_count == len(collector.unmatched_deficits)
    assert summary.unmatched_watts == pytest.approx(
        collector.total_unmatched_power()
    )
    assert "unmatched deficits" in summary.format()
