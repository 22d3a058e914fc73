"""Divergence of a degraded run from the ideal synchronous controller.

A distributed run and its ideal twin (same seed, same topology, same
demand randomness -- see :func:`~repro.control_plane.controller.
run_distributed`) produce sample-aligned series; the difference is
entirely attributable to the control plane: latency, loss, staleness
decay, crashes, partitions.  These helpers quantify it.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.metrics.collector import MetricsCollector

__all__ = ["divergence_series", "divergence_summary"]

_COMPARED_ATTRS = ("budget", "power", "temperature")


def _aligned(ideal: MetricsCollector, actual: MetricsCollector, attr: str):
    """Per-sample series of ``attr`` from both runs, order-checked."""
    ideal_samples, actual_samples = ideal.server_samples, actual.server_samples
    if len(ideal_samples) != len(actual_samples):
        raise ValueError(
            "runs are not comparable: "
            f"{len(ideal_samples)} vs {len(actual_samples)} server samples "
            "(different tick counts or topologies?)"
        )
    for key in ("time", "server_id"):
        if ideal_samples.column(key) != actual_samples.column(key):
            raise ValueError("runs are not comparable: sample keys differ")
    return (
        np.array(ideal_samples.column(attr)),
        np.array(actual_samples.column(attr)),
    )


def divergence_series(
    ideal: MetricsCollector, actual: MetricsCollector
) -> Dict[str, np.ndarray]:
    """Per-tick mean absolute delta of each compared server attribute.

    Returns ``{"times": ..., "budget": ..., "power": ..., "temperature":
    ...}`` where each non-time entry is the fleet-mean ``|ideal -
    actual|`` at every tick.
    """
    times = ideal.times()
    n_servers = len(ideal.server_ids())
    out: Dict[str, np.ndarray] = {"times": times}
    for attr in _COMPARED_ATTRS:
        a, b = _aligned(ideal, actual, attr)
        delta = np.abs(a - b).reshape(len(times), n_servers)
        out[attr] = delta.mean(axis=1)
    return out


def divergence_summary(
    ideal: MetricsCollector, actual: MetricsCollector
) -> Dict[str, float]:
    """Scalar divergence: mean and max absolute delta per attribute.

    Keys are ``<attr>_mean`` / ``<attr>_max`` for budget, power and
    temperature, plus ``migration_delta`` (absolute difference in
    migration counts) and ``dropped_power_delta`` (absolute difference
    in total unserved watts).  All zero iff the degraded run tracked the
    ideal controller exactly.
    """
    summary: Dict[str, float] = {}
    for attr in _COMPARED_ATTRS:
        a, b = _aligned(ideal, actual, attr)
        delta = np.abs(a - b)
        summary[f"{attr}_mean"] = float(delta.mean())
        summary[f"{attr}_max"] = float(delta.max())
    summary["migration_delta"] = float(
        abs(len(ideal.migrations) - len(actual.migrations))
    )
    summary["dropped_power_delta"] = float(
        abs(ideal.total_dropped_power() - actual.total_dropped_power())
    )
    return summary
