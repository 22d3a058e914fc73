"""Power imbalance over time (Eq. 9) -- Willow vs no migrations.

The paper defines ``P_imb(l) = P_def(l) + min(P_def(l), P_sur(l))`` as
"a measure of the inefficiency in allocation of the power budgets" and
designs the migration scheme explicitly so that it does not "leave a
few servers in the power deficient state while some servers have
excess power budgets."  This experiment measures it directly: the same
fleet, same demands, same supply plunge -- with Willow's migrations on
vs off -- and compares the server-level imbalance series.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import WillowConfig
from repro.core.controller import WillowController, seeded_placement
from repro.experiments.common import ExperimentResult, hot_zone_overrides
from repro.power.supply import step_supply
from repro.topology.builders import build_paper_simulation

__all__ = ["run", "main"]


def _run_variant(migrations_enabled: bool, n_ticks: int, seed: int):
    tree = build_paper_simulation()
    # Disabling migrations = an absurd margin (nothing ever qualifies)
    # and no consolidation; budgets and demands evolve identically.
    if migrations_enabled:
        config = WillowConfig()
    else:
        config = WillowConfig(p_min=1e9, consolidation_enabled=False)
    placement = seeded_placement(
        tree, config, seed=seed, target_utilization=0.6
    )
    nominal = 18 * 450.0
    supply = step_supply([(0.0, nominal), (n_ticks / 3, 0.8 * nominal)])
    controller = WillowController(
        tree,
        config,
        supply,
        placement,
        ambient_overrides=hot_zone_overrides(),
        seed=seed,
    )
    collector = controller.run(n_ticks)
    return np.array([w for _t, w in collector.imbalance])


def run(n_ticks: int = 90, seed: int = 19) -> ExperimentResult:
    with_migrations = _run_variant(True, n_ticks, seed)
    without = _run_variant(False, n_ticks, seed)

    headers = ["window", "imbalance w/ Willow (W)", "imbalance w/o migrations (W)"]
    rows = []
    for start in range(0, n_ticks, 10):
        stop = min(start + 10, n_ticks)
        rows.append(
            [
                f"{start}-{stop - 1}",
                float(np.mean(with_migrations[start:stop])),
                float(np.mean(without[start:stop])),
            ]
        )
    # Steady-state comparison over the post-plunge tail.
    tail = slice(int(n_ticks * 0.5), n_ticks)
    return ExperimentResult(
        name="Eq. 9 -- power imbalance, Willow vs no migrations",
        headers=headers,
        rows=rows,
        data={
            "with": with_migrations,
            "without": without,
            "tail_with": float(np.mean(with_migrations[tail])),
            "tail_without": float(np.mean(without[tail])),
        },
        notes=(
            "expect: Willow's migrations shrink the post-plunge "
            "imbalance relative to an identical fleet that cannot migrate"
        ),
    )


def main() -> None:  # pragma: no cover - console entry
    run().print()


if __name__ == "__main__":  # pragma: no cover
    main()
