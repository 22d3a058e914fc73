"""Extension experiments: the paper's Sec. VI future-work directions.

One summary table covering the four implemented extensions:

* multiple QoS classes (priority-aware degradation),
* per-component thermal envelopes (CPU/DIMM/NIC/disk),
* cooling-aware (holistic) budgets,
* UPS/battery supply buffering.

Each row reports the headline comparison its benchmark asserts.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult

__all__ = ["run", "main"]


def run(seed: int = 17) -> ExperimentResult:
    rows = []

    # -- QoS classes --------------------------------------------------------
    from repro.core import WillowConfig, WillowController
    from repro.core.controller import build_willow, seeded_placement
    from repro.power import step_supply
    from repro.qos import per_class_report, tiered_catalog
    from repro.topology import build_paper_simulation
    from repro.workload import SIMULATION_APPS

    controller = build_willow(
        supply=step_supply([(0.0, 18 * 450.0), (30.0, 18 * 200.0)]),
        target_utilization=0.65,
        seed=seed,
        apps=tuple(tiered_catalog(SIMULATION_APPS)),
        vms_per_server=6,
    )
    collector = controller.run(80)
    report = per_class_report(
        collector, controller.vms, scale=controller.placement.scale
    )
    qos_summary = ", ".join(
        f"{name} {report[name].loss_fraction:.0%}"
        for name in ("gold", "silver", "bronze")
    )
    rows.append(
        ["QoS classes", "loss under 45% brown-out", qos_summary]
    )

    # -- per-component thermal ------------------------------------------------
    from repro.devices import DeviceSet, STANDARD_DEVICES

    cold = DeviceSet(STANDARD_DEVICES, t_ambient=25.0)
    hot = DeviceSet(STANDARD_DEVICES, t_ambient=40.0)
    rows.append(
        [
            "component thermal",
            "binding component / server cap",
            f"25C: {cold.binding_device()}/{cold.server_cap():.0f}W, "
            f"40C: {hot.binding_device()}/{hot.server_cap():.0f}W",
        ]
    )

    # -- cooling-aware budgets -------------------------------------------------
    from repro.cooling import CoolingModel, effective_it_budget

    cooling = CoolingModel()
    feed = 18 * 450.0
    rows.append(
        [
            "cooling-aware budget",
            "IT budget from one facility feed",
            f"cool day (12C): {effective_it_budget(feed, cooling, 12.0):.0f}W, "
            f"hot day (35C): {effective_it_budget(feed, cooling, 35.0):.0f}W",
        ]
    )

    # -- UPS buffering ----------------------------------------------------------
    from repro.power import Battery, buffer_supply, step_supply as _step
    import numpy as np

    nominal = 18 * 450.0
    flapping = _step(
        [(float(4 * i), nominal if i % 2 == 0 else 0.55 * nominal) for i in range(15)]
    )
    battery = Battery(capacity=10_000.0, max_rate=nominal, efficiency=0.95)
    buffered = buffer_supply(flapping, battery, duration=60.0, horizon=12.0)
    times = np.arange(0.0, 60.0)
    raw_min = flapping.series(times).min()
    buffered_min = buffered.series(times).min()
    rows.append(
        [
            "UPS buffering",
            "worst-tick supply under flapping",
            f"raw {raw_min:.0f}W -> buffered {buffered_min:.0f}W",
        ]
    )

    # -- affinity-aware matching ------------------------------------------------
    from repro.workload.affinity import clustered_affinity

    def _affinity_variant(aware: bool) -> float:
        atree = build_paper_simulation()
        aconfig = WillowConfig(affinity_aware=aware)
        aplacement = seeded_placement(
            atree, aconfig, seed=seed + 20, target_utilization=0.6
        )
        graph = clustered_affinity(aplacement.vms, cluster_size=4, in_rate=8.0)
        asupply = step_supply([(0.0, 18 * 450.0), (25.0, 0.75 * 18 * 450.0)])
        actrl = WillowController(
            atree, aconfig, asupply, aplacement, seed=seed + 20, ipc_graph=graph
        )
        actrl.run(70)
        return graph.colocated_fraction(actrl.vms)

    coloc_plain = _affinity_variant(False)
    coloc_aware = _affinity_variant(True)
    rows.append(
        [
            "affinity-aware matching",
            "IPC kept on-box after a squeeze",
            f"plain {coloc_plain:.0%} -> affinity-aware {coloc_aware:.0%}",
        ]
    )

    return ExperimentResult(
        name="Extensions -- Sec. VI future-work directions",
        headers=["extension", "measure", "result"],
        rows=rows,
        data={
            "qos_loss": {
                name: report[name].loss_fraction
                for name in ("gold", "silver", "bronze")
            },
            "hot_binding": hot.binding_device(),
            "hot_server_cap": hot.server_cap(),
            "buffered_min_supply": float(buffered_min),
            "raw_min_supply": float(raw_min),
            "colocated_plain": coloc_plain,
            "colocated_aware": coloc_aware,
        },
    )


def main() -> None:  # pragma: no cover - console entry
    run().print()


if __name__ == "__main__":  # pragma: no cover
    main()
