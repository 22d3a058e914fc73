"""Time-series collection for Willow runs.

The collector is deliberately dumb: controllers append samples and
events; analysis happens in :mod:`repro.metrics.summary` and the
experiment modules.  Every table is a
:class:`~repro.metrics.columnar.RecordTable`, stored as columns on every
controller: scalar code appends rows, the array tick appends column
chunks, and readers that scan a whole table read its columns.

Checkpoints store the tables' columns
(:meth:`MetricsCollector.snapshot_tables` /
:meth:`MetricsCollector.restore_tables`); see docs/checkpointing.md.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.core.events import (
    ControlMessage,
    Drop,
    Migration,
    MigrationCause,
    PlantEvent,
)
from repro.metrics.columnar import RecordTable
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = ["ServerSample", "SwitchSample", "MetricsCollector"]


@dataclass(frozen=True, slots=True)
class ServerSample:
    """One server's physical state at one tick."""

    time: float
    server_id: int
    power: float  # wall watts drawn this tick
    temperature: float  # deg C at end of tick
    utilization: float  # fraction of dynamic range
    demand: float  # wall watts wanted this tick
    budget: float  # wall watts allocated
    asleep: bool


@dataclass(frozen=True, slots=True)
class SwitchSample:
    """One switch's state at one tick."""

    time: float
    switch_id: int
    level: int
    base_traffic: float  # served-demand units
    migration_traffic: float  # migration units
    power: float  # watts


def _table(record: type, *names: str):
    """A collector field holding a fresh table of ``record`` rows."""
    return field(default_factory=lambda: RecordTable(record, names or None))


@dataclass
class MetricsCollector:
    """Accumulates everything a Willow evaluation reports."""

    server_samples: RecordTable = _table(ServerSample)
    switch_samples: RecordTable = _table(SwitchSample)
    migrations: RecordTable = _table(Migration)
    drops: RecordTable = _table(Drop)
    #: Deficit demand the matcher could not place (the VM stays on its
    #: host and runs degraded; actual unserved watts appear in `drops`).
    unmatched_deficits: RecordTable = _table(Drop)
    messages: RecordTable = _table(ControlMessage)
    #: The Eq. 9 residual per tick.  Rows stay ``(time, watts)`` tuples,
    #: whose repr the decision digest hashes.
    imbalance: RecordTable = _table(tuple, "time", "imbalance_watts")
    #: Physical-plant fault transitions (crashes, sensor quarantines,
    #: circuit trips, cooling events and their recoveries).
    plant_events: RecordTable = _table(PlantEvent)
    #: Forwarding sink for the observability layer: drops, unmatched
    #: deficits, plant events and the imbalance residual also land in
    #: the owning controller's open trace frame.  Not a record table.
    tracer: Tracer = field(default=NULL_TRACER, repr=False, compare=False)

    def tables(self) -> Dict[str, RecordTable]:
        """Every record table by field name, in declaration order."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if isinstance(getattr(self, f.name), RecordTable)
        }

    # -- recording ---------------------------------------------------------
    def record_server(self, sample: ServerSample) -> None:
        self.server_samples.append(sample)

    def record_switch(self, sample: SwitchSample) -> None:
        self.switch_samples.append(sample)

    def record_migration(self, migration: Migration) -> None:
        self.migrations.append(migration)

    def record_drop(self, drop: Drop) -> None:
        self.drops.append(drop)
        if self.tracer.enabled:
            self.tracer.record_drop(drop.node_id, drop.vm_id, drop.power)

    def record_unmatched(self, drop: Drop) -> None:
        self.unmatched_deficits.append(drop)
        if self.tracer.enabled:
            self.tracer.record_unmatched(drop.node_id, drop.vm_id, drop.power)

    def record_message(self, message: ControlMessage) -> None:
        self.messages.append(message)

    def record_imbalance(self, time: float, watts: float) -> None:
        self.imbalance.append((time, watts))
        if self.tracer.enabled:
            self.tracer.record_imbalance(watts)

    def record_plant_event(self, event: PlantEvent) -> None:
        self.plant_events.append(event)
        if self.tracer.enabled:
            self.tracer.record_event(event.kind, event.node_id, event.detail)

    # -- plant faults --------------------------------------------------------
    def plant_event_counts(self) -> Dict[str, int]:
        """Number of plant-fault transitions per event kind."""
        return dict(Counter(self.plant_events.column("kind")))

    def plant_events_for(self, node_id: int) -> List[PlantEvent]:
        """Time-ordered plant events touching one node."""
        return [e for e in self.plant_events if e.node_id == node_id]

    # -- server series -------------------------------------------------------
    def server_ids(self) -> List[int]:
        """Distinct server ids, sorted."""
        return sorted(set(self.server_samples.column("server_id")))

    def server_series(self, server_id: int, attribute: str) -> np.ndarray:
        """Time-ordered values of ``attribute`` for one server."""
        return _series(self.server_samples, "server_id", server_id, attribute)

    def mean_server(self, server_id: int, attribute: str) -> float:
        """Run-average of ``attribute`` for one server."""
        series = self.server_series(server_id, attribute)
        if series.size == 0:
            raise ValueError(f"no samples for server {server_id}")
        return float(series.mean())

    def times(self) -> np.ndarray:
        """Distinct sample times, sorted."""
        return np.unique(self.server_samples.column("time"))

    def total_energy(self) -> float:
        """Sum of server power over all samples (W * ticks)."""
        return float(sum(self.server_samples.column("power")))

    # -- migrations ----------------------------------------------------------
    def migrations_by_cause(self, cause: MigrationCause) -> List[Migration]:
        return [m for m in self.migrations if m.cause is cause]

    def migration_count(self, cause: Optional[MigrationCause] = None) -> int:
        if cause is None:
            return len(self.migrations)
        return self.migrations.column("cause").count(cause)

    def migration_times(self) -> np.ndarray:
        return np.array(self.migrations.column("time"))

    def migrations_per_tick(self, horizon: float) -> np.ndarray:
        """Histogram of migration counts per unit-time bucket."""
        counts = np.zeros(int(np.ceil(horizon)), dtype=int)
        for time in self.migrations.column("time"):
            index = int(time)
            if 0 <= index < len(counts):
                counts[index] += 1
        return counts

    def local_fraction(self) -> float:
        """Fraction of migrations that stayed within the parent group."""
        if not self.migrations:
            return float("nan")
        local = self.migrations.column("local")
        return sum(1 for is_local in local if is_local) / len(local)

    # -- drops -----------------------------------------------------------------
    def total_dropped_power(self) -> float:
        return float(sum(self.drops.column("power")))

    def total_unmatched_power(self) -> float:
        """Deficit watts left degrading in place (never placed elsewhere)."""
        return float(sum(self.unmatched_deficits.column("power")))

    # -- switches ----------------------------------------------------------------
    def switch_ids(self, level: Optional[int] = None) -> List[int]:
        samples = self.switch_samples
        ids = samples.column("switch_id")
        if level is not None:
            ids = [
                switch_id
                for switch_id, at in zip(ids, samples.column("level"))
                if at == level
            ]
        return sorted(set(ids))

    def switch_series(self, switch_id: int, attribute: str) -> np.ndarray:
        return _series(self.switch_samples, "switch_id", switch_id, attribute)

    def mean_switch(self, switch_id: int, attribute: str) -> float:
        series = self.switch_series(switch_id, attribute)
        if series.size == 0:
            raise ValueError(f"no samples for switch {switch_id}")
        return float(series.mean())

    # -- messages -----------------------------------------------------------------
    def messages_per_link_per_tick(self) -> Dict[tuple, int]:
        """Max message count observed on any (link, tick) pair, per link."""
        messages = self.messages
        counts = Counter(zip(messages.column("link"), messages.column("time")))
        worst: Dict[tuple, int] = {}
        for (link, _time), count in counts.items():
            worst[link] = max(worst.get(link, 0), count)
        return worst

    # -- checkpoint codec -----------------------------------------------------
    def snapshot_tables(self) -> Dict[str, Dict[str, Any]]:
        """Every record table as columns, for a checkpoint payload.

        Each table becomes ``{"record": row type, "fields": field names,
        "columns": one plain list per field}``.  Pickling a few long
        lists of floats, ints and enums costs a small fraction of
        pickling one object per row.  The lists are not converted to
        arrays, so every value keeps its Python type and
        :meth:`restore_tables` restores columns equal to the originals.
        """
        return {
            name: {
                "record": table.record,
                "fields": table.fields,
                "columns": [table.column(f) for f in table.fields],
            }
            for name, table in self.tables().items()
        }

    def restore_tables(self, tables: Mapping[str, Mapping[str, Any]]) -> None:
        """Write :meth:`snapshot_tables` output into this collector.

        The columns go into the existing table objects, which keep
        their identity, and no row is built.  Raises
        :class:`~repro.checkpoint.errors.CheckpointError` when the stored
        tables, row types or field names differ from this build's.
        """
        from repro.checkpoint.errors import CheckpointError

        own = self.tables()
        if set(tables) != set(own):
            raise CheckpointError(
                f"snapshot has collector tables {sorted(tables)}, "
                f"this build has {sorted(own)}"
            )
        for name, table in own.items():
            stored = tables[name]
            names = tuple(stored["fields"])
            if stored["record"] is not table.record or names != table.fields:
                raise CheckpointError(
                    f"snapshot table {name} holds "
                    f"{stored['record'].__name__}{names}, this build's "
                    f"rows are {table.record.__name__}{table.fields}"
                )
            table.clear()
            table.append_columns(*stored["columns"])


def _series(
    table: RecordTable, key: str, wanted: int, attribute: str
) -> np.ndarray:
    """``attribute`` of the rows whose ``key`` is ``wanted``, in order."""
    return np.array(
        [
            value
            for id_, value in zip(table.column(key), table.column(attribute))
            if id_ == wanted
        ]
    )
