"""Response-time estimation from utilization.

The paper's workloads are transactional ("demand is driven by user
queries"), which makes the classic M/M/1 load-latency relation the
natural QoS lens:

    R(rho) = S / (1 - rho)

where ``S`` is the unloaded service time and ``rho`` the bottleneck
utilization.  Willow controls ``rho`` through budgets; this module
turns recorded utilizations into latency multiples and SLA compliance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.metrics.collector import MetricsCollector
from repro.qos.classes import QoSClass

__all__ = ["LatencyModel", "sla_compliance"]


@dataclass(frozen=True)
class LatencyModel:
    """M/M/1-style latency as a multiple of the unloaded service time.

    ``rho_cap`` guards the singularity: utilizations are clipped just
    below 1 so a saturated tick reports a large-but-finite latency.
    """

    rho_cap: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 < self.rho_cap < 1.0:
            raise ValueError(f"rho_cap must be in (0, 1), got {self.rho_cap}")

    def latency_multiple(self, utilization):
        """R/S at the given utilization (scalar or array)."""
        rho = np.clip(np.asarray(utilization, dtype=float), 0.0, self.rho_cap)
        result = 1.0 / (1.0 - rho)
        return float(result) if result.ndim == 0 else result

    def max_utilization_for(self, qos: QoSClass) -> float:
        """The utilization at which a class's SLA is exactly met.

        Inverts R/S = 1/(1-rho) <= latency_sla.
        """
        return 1.0 - 1.0 / qos.latency_sla


def sla_compliance(
    collector: MetricsCollector,
    qos: QoSClass,
    model: LatencyModel | None = None,
) -> Dict[int, float]:
    """Fraction of awake ticks each server met the class's SLA.

    A tick complies when the server's estimated latency multiple stays
    within ``qos.latency_sla``.  Sleeping ticks are excluded (the
    server hosts nothing then).
    """
    model = model or LatencyModel()
    threshold = model.max_utilization_for(qos)
    samples = collector.server_samples
    awake_utils: Dict[int, list] = {}
    for server_id, asleep, utilization in zip(
        samples.column("server_id"),
        samples.column("asleep"),
        samples.column("utilization"),
    ):
        utils = awake_utils.setdefault(server_id, [])
        if not asleep:
            utils.append(utilization)
    result: Dict[int, float] = {}
    for server_id in sorted(awake_utils):
        utils = awake_utils[server_id]
        if not utils:
            result[server_id] = 1.0
            continue
        utils = np.asarray(utils)
        result[server_id] = float(np.mean(utils <= threshold + 1e-12))
    return result
