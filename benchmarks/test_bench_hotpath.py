"""Regression guard for the vectorized hot path.

Compares a fresh quick measurement against the recorded baseline in
``BENCH_tick.json`` at the repo root (written by ``python -m repro.cli
bench``).  Tolerances are deliberately generous -- CI machines and
laptops differ by integer factors -- so only a genuine regression
(vectorized path slower than scalar, or an order-of-magnitude slowdown
against the recording) fails.  Skips when no baseline has been
recorded.  Every timed number the guards read is a median over the
harness sampler's pairs, and every speedup a median of per-pair ratios.
"""

import json
from pathlib import Path

import pytest

_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_tick.json"

#: A fresh run may be this many times slower than the recorded baseline
#: before we call it a regression (absorbs machine-to-machine spread).
_SLOWDOWN_TOLERANCE = 10.0


@pytest.fixture(scope="module")
def baseline():
    if not _BASELINE.is_file():
        pytest.skip("no recorded baseline (run: python -m repro.cli bench)")
    return json.loads(_BASELINE.read_text())


@pytest.fixture(scope="module")
def fresh():
    from repro.benchmarks.harness import bench_kernels, bench_tick

    return {
        "end_to_end": bench_tick(sizes=(64,), ticks=100),
        "kernels": bench_kernels(sizes=(64,), iters=100),
    }


def test_vectorized_tick_still_faster_than_scalar(fresh):
    for row in fresh["end_to_end"]:
        assert row["speedup"] > 1.0, (
            f"vectorized tick no longer beats scalar at "
            f"n={row['n_servers']}: {row['speedup']:.2f}x"
        )


def test_vectorized_tick_not_regressed_vs_baseline(baseline, fresh):
    recorded = {
        row["n_servers"]: row["vectorized_ms_per_tick"]
        for row in baseline["end_to_end"]
    }
    for row in fresh["end_to_end"]:
        n = row["n_servers"]
        if n not in recorded:
            continue
        assert row["vectorized_ms_per_tick"] <= recorded[n] * _SLOWDOWN_TOLERANCE, (
            f"vectorized tick at n={n} is "
            f"{row['vectorized_ms_per_tick']:.3f} ms vs recorded "
            f"{recorded[n]:.3f} ms (> {_SLOWDOWN_TOLERANCE}x slower)"
        )


def test_kernels_keep_headline_speedup(fresh):
    # Headline target: >= 5x on the combined per-tick kernel cost at
    # 64+ servers.  Guard at 3x so machine noise cannot flake the suite
    # while a real vectorization regression (a kernel falling back to
    # scalar speed) still fails.
    combined = [r for r in fresh["kernels"] if r["kernel"] == "combined"]
    assert combined, "harness stopped emitting the combined kernel row"
    for row in combined:
        assert row["speedup"] >= 3.0, (
            f"combined kernels at n={row['n_servers']} dropped to "
            f"{row['speedup']:.2f}x"
        )
    # The two kernels with order-of-magnitude margins must stay clearly
    # vectorized; the small ones (smoothing, budget) ride on `combined`.
    for row in fresh["kernels"]:
        if row["kernel"] in ("thermal_step", "demand_sampling"):
            assert row["speedup"] >= 3.0, (
                f"kernel {row['kernel']} at n={row['n_servers']} dropped "
                f"to {row['speedup']:.2f}x"
            )


def test_kernel_baseline_not_regressed(baseline, fresh):
    recorded = {
        (row["kernel"], row["n_servers"]): row["vectorized_us_per_iter"]
        for row in baseline.get("kernels", [])
    }
    for row in fresh["kernels"]:
        key = (row["kernel"], row["n_servers"])
        if key not in recorded:
            continue
        assert row["vectorized_us_per_iter"] <= recorded[key] * _SLOWDOWN_TOLERANCE, (
            f"kernel {key} is {row['vectorized_us_per_iter']:.1f} us vs "
            f"recorded {recorded[key]:.1f} us"
        )


def test_demand_block_is_narrow_and_seeded_in_one_pass(monkeypatch):
    """Deterministic, not timed: a 4,096-VM generator on the paper's
    catalog keeps one byte per VM-tick in its block, and its first
    tick creates every VM stream without a ``SeedSequence``."""
    import numpy as np

    from repro.sim import RandomStreams
    from repro.workload import (
        SIMULATION_APPS,
        DemandGenerator,
        random_placement,
    )

    streams = RandomStreams(7)
    plan = random_placement(
        list(range(256)), SIMULATION_APPS, streams["placement"],
        vms_per_server=16,
    )
    generator = DemandGenerator(plan, streams)
    seed_sequences = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        seed_sequences.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    generator.sample_tick_array()

    n_vms = len(plan.vms)
    assert n_vms == 4096
    assert len(streams) == n_vms + 1  # the placement stream, and one per VM
    assert seed_sequences == []
    for vm in plan.vms:
        seed = streams[f"demand/vm-{vm.vm_id}"].bit_generator.seed_seq
        assert not isinstance(seed, real)
    block = generator._block
    assert block.nbytes == n_vms * block.shape[0]
    assert block.shape == (256, n_vms)


def test_array_site_budgets_and_screens_stay_on_lanes(monkeypatch):
    """Deterministic, not timed: on a 4,096-server array site an
    allocation tick makes no ``set_budget`` call for a server row (the
    budgets are lanes, written as arrays), and a planning tick with at
    most two deficient servers reads ``budget_reduced`` through no
    server object (the squeeze screen reads the flag lane)."""
    import gc

    from repro.core.config import WillowConfig
    from repro.core.controller import build_willow
    from repro.core.fleet import LaneServerRuntime
    from repro.core.state import NodeRuntime, ServerRuntime
    from repro.core.vectorized import (
        VectorizedWillowController,
        _LaneMigrationPlanner,
    )
    from repro.power.supply import constant_supply
    from repro.topology import build_balanced

    limit = WillowConfig().circuit_limit
    controller = build_willow(
        VectorizedWillowController,
        tree=build_balanced((4, 16, 64)),
        supply=constant_supply(1.2 * 4096 * limit),
        target_utilization=0.55,
        seed=7,
        vms_per_server=16,
    )
    assert len(controller.servers) == 4096
    calls = {"server": 0, "node": 0, "budget_reduced": 0}

    def count_calls(owner, key):
        original = owner.__dict__["set_budget"]

        def set_budget(self, budget):
            calls[key] += 1
            original(self, budget)

        monkeypatch.setattr(owner, "set_budget", set_budget)

    count_calls(ServerRuntime, "server")
    count_calls(NodeRuntime, "node")
    flag = LaneServerRuntime.budget_reduced

    def read_flag(self):
        calls["budget_reduced"] += 1
        return flag.fget(self)

    monkeypatch.setattr(
        LaneServerRuntime, "budget_reduced", property(read_flag, flag.fset)
    )
    deficient = []
    screen = _LaneMigrationPlanner._deficient

    def planning(self, servers):
        rows = screen(self, servers)
        deficient.append(len(rows))
        return rows

    monkeypatch.setattr(_LaneMigrationPlanner, "_deficient", planning)

    allocation_ticks = small_planning_ticks = 0
    for tick in range(12):
        calls.update(server=0, node=0, budget_reduced=0)
        deficient.clear()
        controller.run(1)
        if tick % controller.config.eta1 == 0:
            allocation_ticks += 1
            assert calls["node"], "no allocation ran"
            assert calls["server"] == 0, (tick, calls)
        if deficient and deficient[0] <= 2:
            small_planning_ticks += 1
            assert calls["budget_reduced"] == 0, (tick, deficient, calls)
    assert allocation_ticks == 3
    assert small_planning_ticks
    # The fleet is cyclic garbage worth a ~0.25 s full collection: take
    # it now rather than inside a later wall-clock guard's timed runs.
    del controller
    gc.collect()
