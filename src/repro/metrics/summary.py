"""Aggregation helpers shared by experiments and benchmarks."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, Iterable

import numpy as np

from repro.core.events import MigrationCause
from repro.metrics.collector import MetricsCollector

__all__ = [
    "RunSummary",
    "mean_by_server",
    "mean_by_switch_level",
    "series_by_server",
    "summarize_run",
]


@dataclass(frozen=True)
class RunSummary:
    """One-glance outcome of a controller run."""

    n_servers: int
    n_ticks: int
    mean_fleet_power: float  # W, total across servers
    peak_temperature: float  # deg C
    demand_migrations: int
    consolidation_migrations: int
    local_migration_fraction: float
    dropped_power: float  # W*ticks
    asleep_fraction: float  # server-ticks asleep / total
    #: Deficits the matcher left in place (VM runs degraded on its
    #: host); distinct from `dropped_power`, the watts actually shed.
    unmatched_count: int = 0
    unmatched_watts: float = 0.0  # W*ticks
    #: Plant-fault transitions by kind (empty for an ideal plant).
    plant_events: Dict[str, int] = field(default_factory=dict)

    def format(self) -> str:
        lines = [
            f"servers={self.n_servers} ticks={self.n_ticks}",
            f"fleet power          : {self.mean_fleet_power:10.1f} W",
            f"peak temperature     : {self.peak_temperature:10.1f} C",
            f"migrations           : {self.demand_migrations} demand, "
            f"{self.consolidation_migrations} consolidation "
            f"({self.local_migration_fraction:.0%} local)",
            f"dropped demand       : {self.dropped_power:10.1f} W*ticks",
            f"unmatched deficits   : {self.unmatched_count} "
            f"({self.unmatched_watts:.1f} W*ticks degraded in place)",
            f"server-ticks asleep  : {self.asleep_fraction:10.1%}",
        ]
        if self.plant_events:
            counts = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.plant_events.items())
            )
            lines.append(f"plant events         : {counts}")
        return "\n".join(lines)


def summarize_run(collector: MetricsCollector) -> RunSummary:
    """Aggregate a finished run into a :class:`RunSummary`."""
    samples = collector.server_samples
    if not samples:
        raise ValueError("no server samples recorded")
    times = collector.times()
    n_ticks = len(times)
    mean_power = mean_by_server(collector, "power")
    mean_fleet_power = float(sum(mean_power.values()))
    peak_temperature = float(max(samples.column("temperature")))
    local_fraction = collector.local_fraction()
    return RunSummary(
        n_servers=len(mean_power),
        n_ticks=n_ticks,
        mean_fleet_power=mean_fleet_power,
        peak_temperature=peak_temperature,
        demand_migrations=collector.migration_count(MigrationCause.DEMAND),
        consolidation_migrations=collector.migration_count(
            MigrationCause.CONSOLIDATION
        ),
        local_migration_fraction=(
            0.0 if np.isnan(local_fraction) else local_fraction
        ),
        dropped_power=collector.total_dropped_power(),
        asleep_fraction=float(np.mean(samples.column("asleep"))),
        unmatched_count=len(collector.unmatched_deficits),
        unmatched_watts=collector.total_unmatched_power(),
        plant_events=collector.plant_event_counts(),
    )


def _grouped(keys: Iterable[int], values: Iterable) -> Dict[int, np.ndarray]:
    """``values`` per key in one pass, sorted by key, each series in
    row order (the order the per-id scans of :class:`MetricsCollector`
    see)."""
    groups: Dict[int, list] = defaultdict(list)
    for key, value in zip(keys, values):
        groups[key].append(value)
    return {i: np.array(groups[i]) for i in sorted(groups)}


def mean_by_server(
    collector: MetricsCollector, attribute: str
) -> Dict[int, float]:
    """Run-average of one server attribute, keyed by server id."""
    return {
        server_id: float(series.mean())
        for server_id, series in series_by_server(collector, attribute).items()
    }


def series_by_server(
    collector: MetricsCollector, attribute: str
) -> Dict[int, np.ndarray]:
    """Full time series of one attribute per server."""
    samples = collector.server_samples
    return _grouped(samples.column("server_id"), samples.column(attribute))


def mean_by_switch_level(
    collector: MetricsCollector, level: int, attribute: str
) -> Dict[int, float]:
    """Run-average of one switch attribute over switches at ``level``."""
    samples = collector.switch_samples
    at_level = [at == level for at in samples.column("level")]
    return {
        switch_id: float(series.mean())
        for switch_id, series in _grouped(
            compress(samples.column("switch_id"), at_level),
            compress(samples.column(attribute), at_level),
        ).items()
    }


def fleet_mean(collector: MetricsCollector, attribute: str) -> float:
    """Average of a server attribute over all servers and ticks."""
    values = collector.server_samples.column(attribute)
    if not values:
        raise ValueError("no server samples recorded")
    return float(np.mean(values))
