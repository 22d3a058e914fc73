"""Tests for metric collection, stability and convergence helpers."""

import copy
import pickle
import tempfile
import typing
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import run_willow
from repro.core.events import ControlMessage, Drop, Migration, MigrationCause
from repro.federation import SiteSpec, build_federation
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
from repro.metrics.columnar import RecordTable
from repro.metrics.convergence import decision_time_scaling, fit_log_scaling
from repro.metrics.export import export_csv, export_json, load_json
from repro.metrics.federation import summarize_federation
from repro.metrics.summary import fleet_mean, mean_by_server, summarize_run
from repro.network.messages import verify_message_bound
from repro.power import renewable_supply
from repro.service.simulation import decision_digest
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


# ------------------------------------------------------------ record tables
#: Value strategies per field kind, and the collector table holding each
#: row type with its field kinds.
VALUES = {
    "float": st.floats(-1e6, 1e6, allow_nan=False),
    "watts": st.floats(0.0, 1e6, allow_nan=False),
    "int": st.integers(0, 2**40),
    "bool": st.booleans(),
    "vm": st.none() | st.integers(0, 1000),
}
TABLES = {
    "server_samples": ("float", "int") + ("float",) * 5 + ("bool",),
    "messages": ("float", "int", "bool"),
    "drops": ("float", "int", "vm", "watts"),
    "imbalance": ("float", "float"),
}


def _row(table, values):
    return tuple(values) if table.record is tuple else table.record(*values)


def _field(table, row, k):
    return row[k] if table.record is tuple else getattr(row, table.fields[k])


def _draw_chunk(data, kinds):
    """One column chunk: each column an array, a list, a tuple or one
    broadcast value, at least one of them a sequence."""
    n = data.draw(st.integers(0, 4))
    forms = data.draw(
        st.lists(
            st.sampled_from(["array", "list", "tuple", "broadcast"]),
            min_size=len(kinds),
            max_size=len(kinds),
        )
    )
    if all(form == "broadcast" for form in forms):
        forms[0] = "list"
    columns, values = [], []
    for kind, form in zip(kinds, forms):
        if form == "broadcast":
            value = data.draw(VALUES[kind])
            columns.append(value)
            values.append([value] * n)
            continue
        column = data.draw(st.lists(VALUES[kind], min_size=n, max_size=n))
        values.append(column)
        columns.append(
            np.array(column) if form == "array"
            else tuple(column) if form == "tuple"
            else column
        )
    return columns, list(zip(*values)) if n else []


class TestRecordTable:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(TABLES)))
    def test_table_behaves_as_its_rows(self, data, name):
        """Any interleaving of row appends, extends and column chunks
        reads back as the eagerly built list of rows, through every
        reader, a pickle, a copy, the checkpoint codec and export."""
        kinds = TABLES[name]
        collector = MetricsCollector()
        table = getattr(collector, name)
        row_values = st.tuples(*(VALUES[kind] for kind in kinds))
        rows = []
        for op in data.draw(
            st.lists(st.sampled_from(["append", "extend", "columns"]),
                     max_size=8)
        ):
            if op == "append":
                row = _row(table, data.draw(row_values))
                table.append(row)
                rows.append(row)
            elif op == "extend":
                new = [
                    _row(table, values)
                    for values in data.draw(st.lists(row_values, max_size=4))
                ]
                table.extend(new)
                rows.extend(new)
            else:
                columns, values = _draw_chunk(data, kinds)
                table.append_columns(*columns)
                rows.extend(_row(table, v) for v in values)

        assert len(table) == len(rows)
        assert bool(table) == bool(rows)
        assert list(table) == rows
        assert table == rows and rows == table
        assert [type(row) for row in table] == [type(row) for row in rows]
        for i in range(-len(rows), len(rows)):
            assert table[i] == rows[i]
        for index in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                table[index]
        for _ in range(3):
            key = data.draw(st.slices(len(rows) + 2))
            assert table[key] == rows[key]
        for k, field_name in enumerate(table.fields):
            column = table.column(field_name)
            expected = [_field(table, row, k) for row in rows]
            assert column == expected
            assert [type(v) for v in column] == [type(v) for v in expected]
            start = data.draw(st.integers(0, len(rows) + 2))
            assert table.column(field_name, start) == expected[start:]

        for clone in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert clone == table
            assert list(clone) == rows

        twin = MetricsCollector()
        before = getattr(twin, name)
        twin.restore_tables(
            pickle.loads(pickle.dumps(collector.snapshot_tables()))
        )
        assert getattr(twin, name) is before
        assert list(before) == rows
        assert twin == collector

        with tempfile.TemporaryDirectory() as tmp:
            document = load_json(export_json(collector, Path(tmp) / "t.json"))
        exported = "servers" if name == "server_samples" else name
        assert document[exported] == [
            {
                field_name: _field(table, row, k)
                for k, field_name in enumerate(table.fields)
            }
            for row in rows
        ]

    def test_rows_and_chunks_must_match_the_fields(self):
        table = RecordTable(ControlMessage)
        with pytest.raises(ValueError, match="one length"):
            table.append_columns(0.0, [1, 2], [True])
        with pytest.raises(ValueError, match="one length"):
            table.append_columns(0.0, 1, True)
        with pytest.raises(ValueError, match="3 fields"):
            table.append_columns(0.0, [1])
        pairs = RecordTable(tuple, ("time", "imbalance_watts"))
        with pytest.raises(ValueError, match="2 fields"):
            pairs.append((1.0, 2.0, 3.0))
        assert len(table) == len(pairs) == 0


def fused_federation(n_ticks=24):
    """Three fused array sites on anti-correlated solar, with drops,
    cross-site moves and consolidation."""
    coordinator = build_federation(
        [
            SiteSpec(
                name=f"site{i}",
                seed=1 + i,
                target_utilization=0.45,
                supply=renewable_supply(
                    5200.0, base_fraction=0.3, cloud_noise=0.0, phase=i / 3
                ),
            )
            for i in range(3)
        ],
        n_ticks=n_ticks,
        policy="proportional",
        vectorized=True,
    )
    coordinator.run(n_ticks)
    assert [seg.global_idx for seg in coordinator.segments] == [[0, 1, 2]]
    return coordinator


def _field_types(table):
    """The Python types a field's values may have: the annotation's."""
    if table.record is tuple:
        return {name: {float} for name in table.fields}
    hints = typing.get_type_hints(table.record)
    return {
        name: set(typing.get_args(hints[name])) or {hints[name]}
        for name in table.fields
    }


def test_every_table_value_has_the_scalar_python_type():
    """Rows and columns carry Python floats, ints, bools, ``None`` and
    enums on every controller, never NumPy scalars: the decision digest
    hashes their repr."""
    _, scalar = run_willow(n_ticks=30, seed=7)
    _, vectorized = run_willow(n_ticks=30, seed=7, vectorized=True)
    coordinator = fused_federation()
    collectors = [scalar, vectorized] + [
        site.collector for site in coordinator.sites
    ]
    for collector in collectors:
        tables = collector.tables()
        assert len(tables) == 8
        assert collector.server_samples and collector.messages
        for name, table in tables.items():
            allowed = _field_types(table)
            for k, field_name in enumerate(table.fields):
                for value in table.column(field_name):
                    assert type(value) in allowed[field_name], (
                        name, field_name, type(value),
                    )
            for row in table:
                for k, field_name in enumerate(table.fields):
                    value = _field(table, row, k)
                    assert type(value) in allowed[field_name], (
                        name, field_name, type(value),
                    )


def test_whole_table_readers_build_no_rows(monkeypatch, tmp_path):
    """Summaries, the digest, snapshots, Property 3, energy and export
    read columns: on array-tick tables they build no sample or message
    row."""
    controller, collector = run_willow(n_ticks=20, seed=3, vectorized=True)
    coordinator = fused_federation()
    collectors = [collector] + [site.collector for site in coordinator.sites]
    built = Counter()
    rows = RecordTable._rows

    def counting(self, start, stop):
        for row in rows(self, start, stop):
            built[type(row)] += 1
            yield row

    monkeypatch.setattr(RecordTable, "_rows", counting)
    summarize_run(collector)
    summarize_federation(coordinator)
    controller.snapshot_state()
    coordinator.snapshot_state()
    for i, each in enumerate(collectors):
        decision_digest(each)
        assert verify_message_bound(each)
        each.total_energy()
        export_csv(each, tmp_path / f"csv{i}")
        export_json(each, tmp_path / f"run{i}.json")
    assert not {ServerSample, SwitchSample, ControlMessage} & set(built)
    # The counter sees rows a reader does build.
    collector.server_samples[-1]
    coordinator.sites[2].collector.messages[:2]
    assert built[ServerSample] == 1 and built[ControlMessage] == 2


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
