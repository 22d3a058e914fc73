"""Tests for CSV/JSON export of recorded metrics."""

import csv

import pytest

from repro.core import run_willow
from repro.metrics.export import export_csv, export_json, load_json


@pytest.fixture(scope="module")
def run_data():
    return run_willow(target_utilization=0.5, n_ticks=15, seed=7)


def test_csv_export_writes_expected_tables(tmp_path, run_data):
    _, collector = run_data
    written = export_csv(collector, tmp_path)
    assert "servers" in written
    assert "switches" in written
    assert "messages" in written
    assert "imbalance" in written
    with written["servers"].open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(collector.server_samples)
    assert set(rows[0]) >= {"time", "server_id", "power", "temperature"}


def test_csv_export_skips_empty_tables(tmp_path):
    from repro.metrics import MetricsCollector

    written = export_csv(MetricsCollector(), tmp_path)
    assert written == {}


def test_csv_enum_fields_serialised(tmp_path, run_data):
    _, collector = run_data
    if not collector.migrations:
        pytest.skip("run produced no migrations")
    written = export_csv(collector, tmp_path)
    with written["migrations"].open() as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["cause"] in ("demand", "consolidation")


def test_json_round_trip(tmp_path, run_data):
    _, collector = run_data
    path = export_json(collector, tmp_path / "run.json")
    document = load_json(path)
    assert len(document["servers"]) == len(collector.server_samples)
    assert len(document["migrations"]) == len(collector.migrations)
    assert len(document["imbalance"]) == len(collector.imbalance)
    sample = document["servers"][0]
    assert isinstance(sample["power"], float)


def test_json_creates_parent_dirs(tmp_path, run_data):
    _, collector = run_data
    path = export_json(collector, tmp_path / "deep" / "nested" / "run.json")
    assert path.exists()


# ---------------------------------------------------------------- coverage
# Regression for the bug where the exporter hand-listed its tables and
# silently dropped `unmatched_deficits` and `plant_events`: the table
# set is now derived from the collector's dataclass fields, and these
# tests pin that derivation.


@pytest.fixture(scope="module")
def faulty_run_data():
    from repro.plant_faults import random_plant_schedule, run_resilient
    from repro.topology import build_paper_simulation

    tree = build_paper_simulation()
    schedule = random_plant_schedule(
        tree,
        seed=7,
        horizon_ticks=60,
        n_crashes=2,
        n_sensor_faults=1,
        n_circuit_trips=1,
    )
    return run_resilient(
        tree=tree,
        plant_faults=schedule,
        target_utilization=0.8,
        n_ticks=60,
        seed=7,
    )


def test_faulty_run_exports_plant_events_and_unmatched(
    tmp_path, faulty_run_data
):
    _, collector = faulty_run_data
    assert collector.plant_events, "schedule produced no plant events"
    assert collector.unmatched_deficits, "run produced no unmatched deficits"

    written = export_csv(collector, tmp_path / "csv")
    assert "plant_events" in written
    assert "unmatched_deficits" in written
    with written["plant_events"].open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(collector.plant_events)
    assert set(rows[0]) == {"time", "kind", "node_id", "detail"}
    with written["unmatched_deficits"].open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(collector.unmatched_deficits)

    document = load_json(export_json(collector, tmp_path / "run.json"))
    assert len(document["plant_events"]) == len(collector.plant_events)
    assert len(document["unmatched_deficits"]) == len(
        collector.unmatched_deficits
    )
    # JSON-native values only (enums and dataclasses normalised away).
    kinds = {event["kind"] for event in document["plant_events"]}
    assert kinds == {e.kind for e in collector.plant_events}


def test_export_json_covers_every_collector_list_field(tmp_path, run_data):
    """Introspective guard: a new collector series cannot silently be
    omitted from export (the original unmatched/plant-events bug)."""
    from repro.metrics.export import record_tables

    _, collector = run_data
    table_fields = list(collector.tables())
    assert len(table_fields) == 8, table_fields
    tables = record_tables(collector)
    assert len(tables) == len(table_fields)

    document = load_json(export_json(collector, tmp_path / "all.json"))
    assert set(document) == set(tables)
    for name, records in tables.items():
        assert len(document[name]) == len(records)


def test_round_trip_every_record_type(tmp_path):
    """One record of each type survives export_json -> load_json."""
    from repro.core.events import (
        ControlMessage,
        Drop,
        Migration,
        MigrationCause,
        PlantEvent,
    )
    from repro.metrics import MetricsCollector
    from repro.metrics.collector import ServerSample, SwitchSample
    from repro.metrics.export import record_tables

    collector = MetricsCollector()
    collector.record_server(
        ServerSample(0.0, 3, 100.0, 45.0, 0.5, 120.0, 110.0, False)
    )
    collector.record_switch(SwitchSample(0.0, 1, 2, 50.0, 5.0, 30.0))
    collector.record_migration(
        Migration(1.0, 9, 3, 4, 25.0, MigrationCause.DEMAND, True, 1, 5.0)
    )
    collector.record_drop(Drop(1.0, 3, 9, 12.5))
    collector.record_unmatched(Drop(1.0, 4, 10, 7.5))
    collector.record_message(ControlMessage(1.0, 3, True))
    collector.record_imbalance(1.0, -3.25)
    collector.record_plant_event(PlantEvent(2.0, "circuit_trip", 2, "test"))

    document = load_json(export_json(collector, tmp_path / "one.json"))
    for name, records in record_tables(collector).items():
        assert len(document[name]) == len(records) == 1, name
    assert document["migrations"][0]["cause"] == "demand"
    assert document["plant_events"][0]["kind"] == "circuit_trip"
    assert document["unmatched_deficits"][0]["power"] == 7.5
    assert document["imbalance"][0] == {"time": 1.0, "imbalance_watts": -3.25}
