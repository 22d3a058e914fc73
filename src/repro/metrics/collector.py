"""Time-series collection for Willow runs.

The collector is deliberately dumb: controllers append samples and
events; analysis happens in :mod:`repro.metrics.summary` and the
experiment modules.  All series convert to NumPy arrays on demand.

Checkpoints store the record tables as columns
(:meth:`MetricsCollector.snapshot_tables` /
:meth:`MetricsCollector.restore_tables`); see docs/checkpointing.md.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, fields
from operator import attrgetter, itemgetter
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.events import (
    ControlMessage,
    Drop,
    Migration,
    MigrationCause,
    PlantEvent,
)
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = ["ServerSample", "SwitchSample", "MetricsCollector", "TUPLE_COLUMNS"]

#: Column names of the record tables whose rows are plain tuples rather
#: than dataclasses.  Imbalance rows stay tuples because the decision
#: digest hashes their repr.
TUPLE_COLUMNS = {"imbalance": ("time", "imbalance_watts")}


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


@dataclass
class MetricsCollector:
    """Accumulates everything a Willow evaluation reports."""

    server_samples: List[ServerSample] = field(default_factory=list)
    switch_samples: List[SwitchSample] = field(default_factory=list)
    migrations: List[Migration] = field(default_factory=list)
    drops: List[Drop] = field(default_factory=list)
    #: Deficit demand the matcher could not place (the VM stays on its
    #: host and runs degraded; actual unserved watts appear in `drops`).
    unmatched_deficits: List[Drop] = field(default_factory=list)
    messages: List[ControlMessage] = field(default_factory=list)
    imbalance: List[tuple] = field(default_factory=list)  # (time, watts)
    #: Physical-plant fault transitions (crashes, sensor quarantines,
    #: circuit trips, cooling events and their recoveries).
    plant_events: List[PlantEvent] = field(default_factory=list)
    #: Forwarding sink for the observability layer: drops, unmatched
    #: deficits, plant events and the imbalance residual also land in
    #: the owning controller's open trace frame.  Not a record series
    #: (excluded from export/round-trip by not being a list field).
    tracer: Tracer = field(default=NULL_TRACER, repr=False, compare=False)

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
        counts: Dict[str, int] = {}
        for event in self.plant_events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def plant_events_for(self, node_id: int) -> List[PlantEvent]:
        """Time-ordered plant events touching one node."""
        return [e for e in self.plant_events if e.node_id == node_id]

    # -- server series -------------------------------------------------------
    def server_ids(self) -> List[int]:
        """Distinct server ids, sorted."""
        return sorted({s.server_id for s in self.server_samples})

    def server_series(self, server_id: int, attribute: str) -> np.ndarray:
        """Time-ordered values of ``attribute`` for one server."""
        return np.array(
            [
                getattr(s, attribute)
                for s in self.server_samples
                if s.server_id == server_id
            ]
        )

    def mean_server(self, server_id: int, attribute: str) -> float:
        """Run-average of ``attribute`` for one server."""
        series = self.server_series(server_id, attribute)
        if series.size == 0:
            raise ValueError(f"no samples for server {server_id}")
        return float(series.mean())

    def times(self) -> np.ndarray:
        """Distinct sample times, sorted."""
        return np.unique([s.time for s in self.server_samples])

    def total_energy(self) -> float:
        """Sum of server power over all samples (W * ticks)."""
        return float(sum(s.power for s in self.server_samples))

    # -- migrations ----------------------------------------------------------
    def migrations_by_cause(self, cause: MigrationCause) -> List[Migration]:
        return [m for m in self.migrations if m.cause is cause]

    def migration_count(self, cause: Optional[MigrationCause] = None) -> int:
        if cause is None:
            return len(self.migrations)
        return len(self.migrations_by_cause(cause))

    def migration_times(self) -> np.ndarray:
        return np.array([m.time for m in self.migrations])

    def migrations_per_tick(self, horizon: float) -> np.ndarray:
        """Histogram of migration counts per unit-time bucket."""
        counts = np.zeros(int(np.ceil(horizon)), dtype=int)
        for m in self.migrations:
            index = int(m.time)
            if 0 <= index < len(counts):
                counts[index] += 1
        return counts

    def local_fraction(self) -> float:
        """Fraction of migrations that stayed within the parent group."""
        if not self.migrations:
            return float("nan")
        return sum(1 for m in self.migrations if m.local) / len(self.migrations)

    # -- drops -----------------------------------------------------------------
    def total_dropped_power(self) -> float:
        return float(sum(d.power for d in self.drops))

    def total_unmatched_power(self) -> float:
        """Deficit watts left degrading in place (never placed elsewhere)."""
        return float(sum(d.power for d in self.unmatched_deficits))

    # -- switches ----------------------------------------------------------------
    def switch_ids(self, level: Optional[int] = None) -> List[int]:
        ids = {
            s.switch_id
            for s in self.switch_samples
            if level is None or s.level == level
        }
        return sorted(ids)

    def switch_series(self, switch_id: int, attribute: str) -> np.ndarray:
        return np.array(
            [
                getattr(s, attribute)
                for s in self.switch_samples
                if s.switch_id == switch_id
            ]
        )

    def mean_switch(self, switch_id: int, attribute: str) -> float:
        series = self.switch_series(switch_id, attribute)
        if series.size == 0:
            raise ValueError(f"no samples for switch {switch_id}")
        return float(series.mean())

    # -- messages -----------------------------------------------------------------
    def messages_per_link_per_tick(self) -> Dict[tuple, int]:
        """Max message count observed on any (link, tick) pair, per link."""
        counts: Dict[tuple, int] = {}
        for msg in self.messages:
            key = (msg.link, msg.time)
            counts[key] = counts.get(key, 0) + 1
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
        :meth:`restore_tables` rebuilds rows equal to the originals.
        """
        tables: Dict[str, Dict[str, Any]] = {}
        for name, (record, names) in _record_schema(type(self)).items():
            rows = getattr(self, name)
            getters = (
                map(itemgetter, range(len(names)))
                if record is tuple
                else map(attrgetter, names)
            )
            tables[name] = {
                "record": record,
                "fields": names,
                "columns": [list(map(get, rows)) for get in getters],
            }
        return tables

    def restore_tables(self, tables: Mapping[str, Mapping[str, Any]]) -> None:
        """Rebuild :meth:`snapshot_tables` output into this collector.

        Rows go through their constructors into the existing list
        objects, so a vectorized controller's ``LazyList`` tables keep
        their identity.  Raises
        :class:`~repro.checkpoint.errors.CheckpointError` when the stored
        tables, row types or field names differ from this build's.
        """
        from repro.checkpoint.errors import CheckpointError

        schema = _record_schema(type(self))
        if set(tables) != set(schema):
            raise CheckpointError(
                f"snapshot has collector tables {sorted(tables)}, "
                f"this build has {sorted(schema)}"
            )
        for name, (record, names) in schema.items():
            table = tables[name]
            stored = tuple(table["fields"])
            if table["record"] is not record or stored != names:
                raise CheckpointError(
                    f"snapshot table {name} holds "
                    f"{table['record'].__name__}{stored}, this build's "
                    f"rows are {record.__name__}{names}"
                )
            columns = table["columns"]
            getattr(self, name)[:] = (
                zip(*columns) if record is tuple else map(record, *columns)
            )


def _record_schema(cls: type) -> Dict[str, Tuple[type, Tuple[str, ...]]]:
    """Row type and field names of every record table (list field)."""
    hints = typing.get_type_hints(cls)
    schema = {}
    for table in fields(cls):
        if typing.get_origin(hints[table.name]) is not list:
            continue
        (record,) = typing.get_args(hints[table.name])
        schema[table.name] = (
            record,
            TUPLE_COLUMNS[table.name]
            if record is tuple
            else tuple(column.name for column in fields(record)),
        )
    return schema
