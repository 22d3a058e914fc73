"""Hot-path benchmark harness: end-to-end ticks, kernels, sweep scaling.

Three suites, each writing machine-readable JSON so CI and the
regression guard (``benchmarks/test_bench_hotpath.py``) can compare
runs:

``bench_tick``
    Full controller runs, scalar vs. vectorized, at several fleet
    sizes; reports ms/tick and the speedup ratio.  This is the honest
    end-to-end number: both paths share the planners, consolidation and
    metrics code, so the ratio is bounded by the non-vectorized
    remainder (Amdahl), not by the kernels.

``bench_kernels``
    The four vectorized kernels in isolation, each against the scalar
    loop it replaced: Eq. 4 smoothing, Eq. 2 thermal step, proportional
    budget division across a tree level, and Poisson demand sampling
    (per-draw vs. block-prefetched streams).  These are where the
    vectorization pays >= 5x at 64+ servers.

``bench_sweep_scaling``
    The paper's utilization sweep over a process pool at increasing
    worker counts; reports wall-clock and parallel efficiency.

``bench_trace``
    Tracing overhead: ms/tick with tracing off (the default), enabled
    into a null sink (frame-building cost alone), and enabled into a
    rotating JSONL file (full serialization cost).  Also emits a
    deterministic model row for the *disabled* cost -- the measured
    nanoseconds of one ``tracer.enabled`` guard check times the guarded
    sites actually hit per tick -- which is what the regression guard
    (``benchmarks/test_bench_trace.py``) bounds at <= 2% of a tick,
    immune to wall-clock noise on shared CI runners.

``bench_federation``
    Multi-site scaling: scalar site controllers vs. fused array sites
    (``vectorized=True``: one shared :class:`~repro.core.fleet.
    FederationFleet` block, one array tick across all sites) at
    512-2048 servers, plus a churny solar row (honest Amdahl: planner
    and FFDLR stay scalar) and fused-only frontier rows at 10k
    (realtime check against ``delta_d``) and 100k servers
    (feasibility).  Build and first-tick costs (demand-stream init +
    the 256-tick Poisson prefetch) are reported separately from the
    steady-state tick.

``bench_service``
    Live-mode ingest: a load generator drives the JSON-lines gateway
    over loopback TCP while the live runner ticks the embedded
    controller on the wall clock at the paper's Delta_d = 1 s.  Reports
    sustained accepted events/sec, p99 ingest (queue) latency, and the
    worst tick's work time against the Delta_d budget; the audit log is
    replayed afterwards and the bit-exact parity verdict is recorded.

Run via ``python -m repro.cli bench`` (or ``python benchmarks/harness.py``),
which writes ``BENCH_tick.json`` and ``BENCH_sweep.json``.
``python -m repro.cli bench service`` reruns just the service suite and
merges it into an existing ``BENCH_tick.json``.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

__all__ = [
    "bench_tick",
    "bench_kernels",
    "bench_sweep_scaling",
    "bench_trace",
    "bench_federation",
    "bench_service",
    "bench_gym",
    "run_benchmarks",
    "run_service_benchmark",
    "run_gym_benchmark",
]

#: (label, branching) per fleet size; branching multiplies to n_servers.
FLEET_SHAPES: Dict[int, Sequence[int]] = {
    18: (2, 3, 3),
    64: (2, 4, 8),
    256: (4, 8, 8),
}

#: Per-site tree shapes for the federation suite.
FEDERATION_SITE_SHAPES: Dict[int, Sequence[int]] = {
    256: (4, 8, 8),
    1024: (4, 16, 16),
    4096: (16, 16, 16),
}


def _best_of(fn, repeats: int) -> float:
    """Best-of-N wall clock (seconds) -- robust against machine noise."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# -------------------------------------------------------------- end-to-end
def _run_once(
    n_servers: int, ticks: int, vectorized: bool, seed: int = 11, tracer=None
):
    from repro.core.config import WillowConfig
    from repro.core.controller import run_willow
    from repro.power.supply import constant_supply
    from repro.topology.builders import build_balanced

    config = WillowConfig()
    tree = build_balanced(FLEET_SHAPES[n_servers])
    supply = constant_supply(0.7 * n_servers * config.circuit_limit)
    run_willow(
        tree=tree,
        config=config,
        supply=supply,
        target_utilization=0.7,
        n_ticks=ticks,
        seed=seed,
        vectorized=vectorized,
        tracer=tracer,
    )


def bench_tick(
    sizes: Sequence[int] = (18, 64, 256),
    ticks: int = 300,
    repeats: int = 3,
) -> List[dict]:
    """Scalar vs. vectorized full-run ms/tick per fleet size."""
    rows = []
    for n in sizes:
        scalar = _best_of(lambda: _run_once(n, ticks, False), repeats)
        vector = _best_of(lambda: _run_once(n, ticks, True), repeats)
        rows.append(
            {
                "n_servers": int(n),
                "ticks": int(ticks),
                "scalar_ms_per_tick": scalar / ticks * 1e3,
                "vectorized_ms_per_tick": vector / ticks * 1e3,
                "speedup": scalar / vector,
            }
        )
    return rows


# ----------------------------------------------------------------- kernels
def _kernel_smoothing(n: int, iters: int) -> dict:
    from repro.power.smoothing import ExponentialSmoother, VectorSmoother

    rng = np.random.default_rng(0)
    observations = rng.uniform(50.0, 400.0, size=(iters, n))
    scalars = [ExponentialSmoother(0.5, initial=200.0) for _ in range(n)]
    vector = VectorSmoother(0.5, n)
    vector.update(np.full(n, 200.0))

    def scalar_pass():
        for row in observations:
            values = row.tolist()
            for smoother, obs in zip(scalars, values):
                smoother.update(obs)

    def vector_pass():
        for row in observations:
            vector.update(row)

    return _kernel_row("smoothing", n, iters, scalar_pass, vector_pass)


def _kernel_thermal(n: int, iters: int) -> dict:
    from repro.thermal.model import (
        ThermalParams,
        temperature_after,
        temperature_step_arrays,
    )

    params = ThermalParams()
    rng = np.random.default_rng(1)
    powers = rng.uniform(100.0, 420.0, size=(iters, n))
    decay = float(np.exp(-params.c2 * 1.0))

    def scalar_pass():
        temps = [30.0] * n
        for row in powers:
            values = row.tolist()
            temps = [
                temperature_after(params, t, p, 1.0)
                for t, p in zip(temps, values)
            ]

    def vector_pass():
        temps = np.full(n, 30.0)
        for row in powers:
            temps = temperature_step_arrays(
                temps,
                row,
                t_ambient=params.t_ambient,
                c1=params.c1,
                c2=params.c2,
                decay=decay,
            )

    return _kernel_row("thermal_step", n, iters, scalar_pass, vector_pass)


def _kernel_budget(n: int, iters: int) -> dict:
    from repro.power.budget import LevelIndex, allocate_level, allocate_proportional

    group_size = 8
    n_groups = max(n // group_size, 1)
    n_children = n_groups * group_size
    offsets = np.arange(n_groups) * group_size
    index = LevelIndex(offsets, n_children)
    rng = np.random.default_rng(2)
    weights = rng.uniform(0.0, 300.0, size=(iters, n_children))
    caps = np.full(n_children, 420.0)
    totals = rng.uniform(100.0, 2500.0, size=(iters, n_groups))

    def scalar_pass():
        for k in range(iters):
            for g, start in enumerate(offsets):
                allocate_proportional(
                    float(totals[k, g]),
                    weights[k, start : start + group_size],
                    caps[start : start + group_size],
                )

    def vector_pass():
        for k in range(iters):
            allocate_level(totals[k], weights[k], caps, index=index)

    return _kernel_row("budget_allocation", n, iters, scalar_pass, vector_pass)


def _kernel_sampling(n: int, iters: int) -> dict:
    from repro.sim import RandomStreams
    from repro.workload import (
        SIMULATION_APPS,
        DemandGenerator,
        random_placement,
    )

    def make(block_size):
        streams = RandomStreams(3)
        plan = random_placement(
            list(range(n)), SIMULATION_APPS, streams["placement"]
        )
        return DemandGenerator(plan, streams, block_size=block_size)

    unbatched = make(1)  # one stream.poisson call per VM per tick
    batched = make(256)

    def scalar_pass():
        for _ in range(iters):
            unbatched.sample_tick_array()

    def vector_pass():
        for _ in range(iters):
            batched.sample_tick_array()

    return _kernel_row("demand_sampling", n, iters, scalar_pass, vector_pass)


def _kernel_row(name, n, iters, scalar_pass, vector_pass, repeats=3) -> dict:
    scalar = _best_of(scalar_pass, repeats)
    vector = _best_of(vector_pass, repeats)
    return {
        "kernel": name,
        "n_servers": int(n),
        "iters": int(iters),
        "scalar_us_per_iter": scalar / iters * 1e6,
        "vectorized_us_per_iter": vector / iters * 1e6,
        "speedup": scalar / vector,
    }


def bench_kernels(
    sizes: Sequence[int] = (64, 256), iters: int = 400
) -> List[dict]:
    """Isolated kernel timings, scalar loop vs. array op, per size.

    Besides the four individual kernels, emits one ``combined`` row per
    size: the summed per-tick cost of all four, scalar vs. vectorized.
    That aggregate is the headline number -- it is what one tick of the
    hot path spends in these kernels, and it clears 5x at 64+ servers
    even where a single small kernel (e.g. 64-lane smoothing, where
    NumPy call overhead is comparable to the loop it replaces) does not.
    """
    rows = []
    for n in sizes:
        per_size = [
            _kernel_smoothing(n, iters),
            _kernel_thermal(n, iters),
            _kernel_budget(n, iters),
            _kernel_sampling(n, iters),
        ]
        rows.extend(per_size)
        scalar = sum(r["scalar_us_per_iter"] for r in per_size)
        vector = sum(r["vectorized_us_per_iter"] for r in per_size)
        rows.append(
            {
                "kernel": "combined",
                "n_servers": int(n),
                "iters": int(iters),
                "scalar_us_per_iter": scalar,
                "vectorized_us_per_iter": vector,
                "speedup": scalar / vector,
            }
        )
    return rows


# ----------------------------------------------------------- sweep scaling
def bench_sweep_scaling(
    worker_counts: Sequence[int] | None = None,
    n_ticks: int = 240,
) -> List[dict]:
    """Wall-clock of the 9-point paper sweep at several worker counts.

    Disables the disk cache and clears the in-process memo before every
    measurement, so each row times real simulation work.  Worker counts
    beyond the machine's core count are skipped -- on a single-core box
    only the serial row is recorded (process fan-out cannot help there,
    and timing it anyway would just document scheduler thrash).
    """
    import os

    from repro.experiments import cache

    cpus = os.cpu_count() or 1
    if worker_counts is None:
        worker_counts = (1, 2, 4, 8)
    worker_counts = [w for w in worker_counts if w <= cpus]
    from repro.experiments.common import PAPER_UTILIZATIONS
    from repro.experiments.paper_sweep import run_sweep
    from repro.experiments.parallel import run_sweep_parallel

    cache.set_enabled(False)
    rows = []
    try:
        run_sweep.cache_clear()
        t0 = time.perf_counter()
        run_sweep(PAPER_UTILIZATIONS, n_ticks=n_ticks)
        serial = time.perf_counter() - t0
        rows.append(
            {
                "workers": 1,
                "n_points": len(PAPER_UTILIZATIONS),
                "seconds": serial,
                "speedup": 1.0,
                "efficiency": 1.0,
            }
        )
        for workers in worker_counts:
            if workers <= 1:
                continue
            run_sweep.cache_clear()
            t0 = time.perf_counter()
            run_sweep_parallel(
                PAPER_UTILIZATIONS, n_ticks=n_ticks, workers=workers
            )
            elapsed = time.perf_counter() - t0
            rows.append(
                {
                    "workers": int(workers),
                    "n_points": len(PAPER_UTILIZATIONS),
                    "seconds": elapsed,
                    "speedup": serial / elapsed,
                    "efficiency": serial / elapsed / workers,
                }
            )
    finally:
        cache.set_enabled(None)
    return rows


# -------------------------------------------------------------- federation
def _build_bench_federation(
    n_sites: int,
    servers_per_site: int,
    ticks: int,
    vectorized: bool,
    *,
    workload: str = "steady",
    seed: int = 17,
):
    from repro.core.config import WillowConfig
    from repro.federation import SiteSpec, build_federation
    from repro.power.supply import constant_supply, renewable_supply
    from repro.topology.builders import build_balanced

    config = WillowConfig()
    branching = FEDERATION_SITE_SHAPES[servers_per_site]
    specs = []
    for i in range(n_sites):
        if workload == "steady":
            # Provisioned steady state: the fleet fits the supply, so
            # the tick is the smoothing/thermal/waterfall sweep the
            # batched path vectorizes end to end.
            supply = constant_supply(
                0.7 * servers_per_site * config.circuit_limit
            )
            utilization = 0.35
        else:
            # Anti-correlated solar humps: nightly deficits keep the
            # (shared, scalar) migration planner and FFDLR busy, so
            # this row shows the Amdahl-bounded speedup honestly.
            supply = renewable_supply(
                0.9 * servers_per_site * config.circuit_limit,
                base_fraction=0.3,
                day_length=96.0,
                cloud_noise=0.0,
                days=max(2, int(ticks / 96) + 1),
                phase=i / n_sites,
            )
            utilization = 0.55
        specs.append(
            SiteSpec(
                name=f"bench{i}",
                tree=build_balanced(branching),
                config=WillowConfig(),
                supply=supply,
                target_utilization=utilization,
                seed=seed + i,
                vectorized=vectorized,
            )
        )
    policy = "neutral" if workload == "steady" else "proportional"
    return build_federation(
        specs, n_ticks=ticks + 1, policy=policy, vectorized=vectorized
    )


def _time_federation(
    n_sites: int,
    servers_per_site: int,
    ticks: int,
    vectorized: bool,
    *,
    workload: str = "steady",
    repeats: int = 1,
) -> dict:
    """Build, warm one tick, then time ``ticks`` steady-state ticks.

    The first tick pays one-time costs (per-VM demand-stream init and
    the 256-tick Poisson block prefetch) that real runs amortise over
    the whole horizon, so it is reported separately from the
    steady-state ms/tick.
    """
    best = {"tick_s": float("inf")}
    for _ in range(repeats):
        t0 = time.perf_counter()
        coordinator = _build_bench_federation(
            n_sites, servers_per_site, ticks, vectorized, workload=workload
        )
        build_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        coordinator.run(1)
        first_tick_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        coordinator.run(ticks)
        tick_s = time.perf_counter() - t0
        if tick_s < best["tick_s"]:
            best = {
                "build_s": build_s,
                "first_tick_s": first_tick_s,
                "tick_s": tick_s,
            }
    return best


def bench_federation(quick: bool = False) -> dict:
    """Scalar vs. fused federation scaling plus fused-only frontier.

    Returns ``{"scaling": [...], "frontier": [...]}``.  Scaling rows
    compare scalar site controllers against fused array sites
    (``vectorized=True``) at identical seeds/workloads; frontier rows
    push the fused path to 10k servers (realtime check: tick wall vs. the
    ``delta_d`` budget) and 100k servers (feasibility).
    """
    from repro.core.config import WillowConfig

    delta_ms = WillowConfig().delta_d * 1e3
    if quick:
        scaling_points = [(2, 256), (4, 256)]
        churn_points = [(2, 256)]
        frontier_points = [("10k_realtime", 2, 1024, 3)]
        ticks, repeats = 24, 1
    else:
        scaling_points = [(2, 256), (4, 256), (8, 256)]
        churn_points = [(4, 256)]
        frontier_points = [
            ("10k_realtime", 10, 1024, 20),
            ("100k_feasible", 25, 4096, 3),
        ]
        ticks, repeats = 120, 2

    scaling = []
    for workload, points in (
        ("steady", scaling_points),
        ("solar_churn", churn_points),
    ):
        for n_sites, per_site in points:
            scalar = _time_federation(
                n_sites, per_site, ticks, False,
                workload=workload, repeats=repeats,
            )
            batched = _time_federation(
                n_sites, per_site, ticks, True,
                workload=workload, repeats=repeats,
            )
            scaling.append(
                {
                    "workload": workload,
                    "n_sites": int(n_sites),
                    "servers_per_site": int(per_site),
                    "n_servers": int(n_sites * per_site),
                    "ticks": int(ticks),
                    "scalar_ms_per_tick": scalar["tick_s"] / ticks * 1e3,
                    "batched_ms_per_tick": batched["tick_s"] / ticks * 1e3,
                    "speedup": scalar["tick_s"] / batched["tick_s"],
                    "batched_build_s": batched["build_s"],
                }
            )

    frontier = []
    for label, n_sites, per_site, n_ticks in frontier_points:
        timing = _time_federation(
            n_sites, per_site, n_ticks, True, workload="steady", repeats=1
        )
        ms_per_tick = timing["tick_s"] / n_ticks * 1e3
        frontier.append(
            {
                "label": label,
                "n_sites": int(n_sites),
                "servers_per_site": int(per_site),
                "n_servers": int(n_sites * per_site),
                "ticks": int(n_ticks),
                "build_s": timing["build_s"],
                "first_tick_s": timing["first_tick_s"],
                "ms_per_tick": ms_per_tick,
                "realtime_budget_ms": delta_ms,
                "realtime_ok": bool(ms_per_tick <= delta_ms),
            }
        )
    return {"scaling": scaling, "frontier": frontier}


# --------------------------------------------------------------------- gym
def bench_gym(quick: bool = False) -> dict:
    """Gym env-step overhead over the raw federation coordinator.

    Rolls the same seeded scenario twice: once as a plain
    ``proportional`` coordinator run, once stepped through
    :class:`~repro.gym.env.WillowFedEnv` in ``policy`` mode pinned to
    the proportional arm -- identical decisions and physics, so the
    difference is exactly the env's observation/reward plumbing
    (statuses, K-step forecasts, metric cursors).  Build and warm-up
    are untimed on both paths.  Times are medians over 15 raw/env
    pairs interleaved window by window, and the overhead is the median
    of the per-pair ratios.  ``benchmarks/test_bench_gym.py`` guards
    the overhead at <= 10%.
    """
    from repro.federation.coordinator import build_federation
    from repro.gym.env import GymConfig, WillowFedEnv

    # The overhead is a ratio of two wall-clock timings of 0.1-1 s on
    # shared runners, where the host's speed moves a rollout by tens of
    # percent within a second, so a ratio of two best-of-N times is
    # noise.  Each pair advances a raw and an env rollout in lock step,
    # one supply window (~10 ms) at a time, alternating which side runs
    # first, so a speed shift hits both sides of a pair alike; the
    # median of the per-pair ratios discards the pairs a shift split.
    windows = 23 if quick else 46
    pairs = 15
    site_counts = (2,) if quick else (2, 4)
    rows = []
    for n_sites in site_counts:
        config = GymConfig(
            n_sites=n_sites, windows=windows, action_mode="policy"
        )
        arm = config.policy_arms.index("proportional")
        raw_s, env_s = [], []
        for k in range(pairs):
            env = WillowFedEnv(config)
            env.reset(seed=17)
            raw = build_federation(
                env.episode_specs(),
                n_ticks=env.n_ticks,
                policy="proportional",
                margin=config.margin,
            )
            raw.run(raw.eta1)  # warm-up parity with reset()
            steps = (lambda: raw.run(raw.eta1), lambda: env.step(arm))
            spent = [0.0, 0.0]  # raw, env
            for w in range(windows):
                first = (k + w) % 2
                for side in (first, 1 - first):
                    t0 = time.perf_counter()
                    steps[side]()
                    spent[side] += time.perf_counter() - t0
            raw_s.append(spent[0])
            env_s.append(spent[1])
        ratio = float(np.median(np.array(env_s) / np.array(raw_s)))
        raw_t = float(np.median(raw_s))
        env_t = float(np.median(env_s))
        ticks = windows * 4
        rows.append(
            {
                "n_sites": int(n_sites),
                "windows": int(windows),
                "ticks": int(ticks),
                "raw_ms_per_tick": raw_t / ticks * 1e3,
                "env_ms_per_tick": env_t / ticks * 1e3,
                "env_ms_per_step": env_t / windows * 1e3,
                "overhead_pct": (ratio - 1.0) * 100.0,
            }
        )
    return {"steps": rows}


# ----------------------------------------------------------------- service
def bench_service(quick: bool = False) -> dict:
    """Live-mode ingest throughput and tick budget at Delta_d = 1 s.

    Runs the real thing end to end on loopback: ``IngestGateway`` TCP
    server + ``LiveRunner`` wall-clock worker in one event loop (this
    is a 1-core-honest number -- ingest and control share the core,
    exactly as ``serve`` runs them), with the batching load generator
    offering demand samples as fast as the loop accepts them.  The
    audit log the run writes is then replayed and the parity verdict
    recorded, so the benchmark doubles as an end-to-end smoke of the
    replay contract under real load.
    """
    import asyncio
    import tempfile

    from repro.service import (
        AuditLog,
        IngestGateway,
        LiveRunner,
        LiveSimulation,
        ServiceSpec,
        generate_load,
        replay,
    )

    ticks = 3 if quick else 5
    tick_seconds = 1.0  # the paper's Delta_d, honestly
    queue_bound = 65536
    spec = ServiceSpec(seed=7, controller="scalar")

    with tempfile.TemporaryDirectory() as tmp:
        audit_path = Path(tmp) / "bench_audit.jsonl"

        async def run_live():
            sim = LiveSimulation(spec)
            gateway = IngestGateway(
                queue_bound=queue_bound, allow_faults=sim.allow_faults
            )
            runner = LiveRunner(
                sim,
                gateway,
                AuditLog(audit_path),
                tick_seconds=tick_seconds,
                max_ticks=ticks,
            )
            server = await gateway.start_server()
            port = server.sockets[0].getsockname()[1]
            vm_ids = sorted(sim.controller._vm_by_id)
            # Stop offering half a tick before the runner stops so the
            # last batch in flight is drained into the final tick
            # instead of accepted-but-never-applied.
            load_task = asyncio.ensure_future(
                generate_load(
                    "127.0.0.1",
                    port,
                    vm_ids,
                    duration_s=(ticks - 0.5) * tick_seconds,
                    batch_size=512,
                    seed=3,
                    source="bench",
                )
            )
            report = await runner.run()
            load = await load_task
            server.close()
            await server.wait_closed()
            return report, load

        report, load = asyncio.run(run_live())
        parity = replay(audit_path).parity

    return {
        "ticks": int(report.ticks),
        "tick_seconds": tick_seconds,
        "queue_bound": int(queue_bound),
        "offered": int(load.offered),
        "accepted": int(report.accepted),
        "rejected_full": int(report.rejected_full),
        "accepted_per_sec": load.accepted / max(load.wall_s, 1e-9),
        "offered_per_sec": load.offered_per_sec,
        "p99_ingest_ms": report.p99_ingest_ms(),
        "p99_batch_rtt_ms": load.p99_batch_rtt_ms(),
        "max_tick_ms": report.max_tick_ms,
        "overruns": int(report.overruns),
        "tick_budget_ms": tick_seconds * 1e3,
        "realtime_ok": bool(
            report.overruns == 0 and report.max_tick_ms <= tick_seconds * 1e3
        ),
        "replay_parity": bool(parity),
    }


# ----------------------------------------------------------------- tracing
def _guard_cost_ns(iters: int = 500_000) -> float:
    """Measured cost of one disabled ``tracer.enabled`` guard check.

    Includes the bare loop overhead, so this *over*-estimates the real
    per-site cost (an attribute load and a branch) -- which is the safe
    direction for the regression guard built on it.
    """
    from repro.trace.tracer import NULL_TRACER

    tracer = NULL_TRACER
    t0 = time.perf_counter()
    for _ in range(iters):
        if tracer.enabled:  # pragma: no cover - never true
            raise AssertionError("NULL_TRACER must stay disabled")
    return (time.perf_counter() - t0) / iters * 1e9


def _frame_record_count(frame: dict) -> int:
    """Entries in one tick frame: an upper bound on guarded call sites
    (loops like the per-server demand pass are guarded once but emit
    one record per server)."""
    count = 0
    for key, value in frame.items():
        if isinstance(value, list):
            count += len(value)
        elif key in ("root", "imbalance"):
            count += 1
    return count


def bench_trace(
    n_servers: int = 64,
    ticks: int = 200,
    repeats: int = 3,
    vectorized: bool = True,
) -> List[dict]:
    """Tracing cost per tick: off vs. null sink vs. JSONL file.

    Emits one row per mode plus a ``disabled_guard_model`` row: the
    measured nanoseconds of one ``tracer.enabled`` check times the
    per-tick record count of an enabled run (itself an upper bound on
    guarded sites), as a percentage of the traced-off tick.  That model
    is what CI bounds -- wall-clock deltas between two ~equal runs on a
    noisy runner cannot resolve a sub-percent overhead, the model can.
    """
    import tempfile

    from repro.trace.tracer import Tracer
    from repro.trace.writer import (
        JsonlTraceWriter,
        MemoryTraceWriter,
        NullTraceWriter,
    )

    off = _best_of(
        lambda: _run_once(n_servers, ticks, vectorized), repeats
    )
    null_sink = _best_of(
        lambda: _run_once(
            n_servers, ticks, vectorized, tracer=Tracer(NullTraceWriter())
        ),
        repeats,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench.jsonl"

        def jsonl_run():
            tracer = Tracer(JsonlTraceWriter(path, max_bytes=None))
            _run_once(n_servers, ticks, vectorized, tracer=tracer)
            tracer.close()

        jsonl = _best_of(jsonl_run, repeats)
        trace_bytes = path.stat().st_size

    memory = MemoryTraceWriter()
    tracer = Tracer(memory)
    _run_once(n_servers, ticks, vectorized, tracer=tracer)
    tracer.flush()
    tick_frames = [f for f in memory.frames if f.get("type") == "tick"]
    sites_per_tick = sum(
        _frame_record_count(f) for f in tick_frames
    ) / max(len(tick_frames), 1)

    off_ms = off / ticks * 1e3
    guard_ns = _guard_cost_ns()
    rows = [
        {
            "mode": "off",
            "n_servers": int(n_servers),
            "ticks": int(ticks),
            "ms_per_tick": off_ms,
            "overhead_pct": 0.0,
        },
        {
            "mode": "null_sink",
            "n_servers": int(n_servers),
            "ticks": int(ticks),
            "ms_per_tick": null_sink / ticks * 1e3,
            "overhead_pct": (null_sink / off - 1.0) * 100.0,
        },
        {
            "mode": "jsonl",
            "n_servers": int(n_servers),
            "ticks": int(ticks),
            "ms_per_tick": jsonl / ticks * 1e3,
            "overhead_pct": (jsonl / off - 1.0) * 100.0,
            "bytes_per_tick": trace_bytes / ticks,
        },
        {
            "mode": "disabled_guard_model",
            "n_servers": int(n_servers),
            "ticks": int(ticks),
            "guard_ns_per_site": guard_ns,
            "sites_per_tick": sites_per_tick,
            "overhead_pct": guard_ns * sites_per_tick / (off_ms * 1e6) * 100.0,
        },
    ]
    return rows


# ------------------------------------------------------------------ driver
def run_benchmarks(
    out_dir: str | Path = ".",
    *,
    quick: bool = False,
    sizes: Sequence[int] | None = None,
) -> Dict[str, Path]:
    """Run every suite; write ``BENCH_tick.json`` and ``BENCH_sweep.json``.

    ``quick`` shrinks tick counts/iterations for smoke runs (used by
    ``make bench-smoke`` and CI) -- the JSON schema is identical.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ticks = 100 if quick else 300
    iters = 100 if quick else 400
    sweep_ticks = 30 if quick else 240
    tick_sizes = tuple(sizes) if sizes else ((18, 64) if quick else (18, 64, 256))
    kernel_sizes = tuple(s for s in tick_sizes if s >= 64) or (64,)

    import os

    meta = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        # BLAS/OpenMP pool sizes change array-op timings wildly between
        # machines; record them so two BENCH files are comparable.
        "threads": {
            var: os.environ.get(var)
            for var in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
            )
        },
        "quick": bool(quick),
    }

    tick_payload = {
        "meta": meta,
        "end_to_end": bench_tick(tick_sizes, ticks=ticks),
        "kernels": bench_kernels(kernel_sizes, iters=iters),
        "trace": bench_trace(
            n_servers=64,
            ticks=60 if quick else 200,
            repeats=2 if quick else 3,
        ),
        "federation": bench_federation(quick=quick),
        "service": bench_service(quick=quick),
        "gym": bench_gym(quick=quick),
    }
    tick_path = out_dir / "BENCH_tick.json"
    tick_path.write_text(json.dumps(tick_payload, indent=2) + "\n")

    sweep_payload = {
        "meta": meta,
        "scaling": bench_sweep_scaling(
            worker_counts=(1, 2) if quick else None,
            n_ticks=sweep_ticks,
        ),
    }
    sweep_path = out_dir / "BENCH_sweep.json"
    sweep_path.write_text(json.dumps(sweep_payload, indent=2) + "\n")

    return {"tick": tick_path, "sweep": sweep_path}


def run_service_benchmark(
    out_dir: str | Path = ".", *, quick: bool = False
) -> Path:
    """Run only the service suite; merge into ``BENCH_tick.json``.

    Keeps every other suite's recorded numbers when the file already
    exists (so ``bench service`` is cheap to iterate on); writes a
    service-only file otherwise.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tick_path = out_dir / "BENCH_tick.json"
    payload: dict = {}
    if tick_path.is_file():
        payload = json.loads(tick_path.read_text())
    payload["service"] = bench_service(quick=quick)
    tick_path.write_text(json.dumps(payload, indent=2) + "\n")
    return tick_path


def run_gym_benchmark(
    out_dir: str | Path = ".", *, quick: bool = False
) -> Path:
    """Run only the gym suite; merge into ``BENCH_tick.json``.

    Same merge behaviour as :func:`run_service_benchmark`: every other
    suite's recorded numbers survive when the file already exists.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tick_path = out_dir / "BENCH_tick.json"
    payload: dict = {}
    if tick_path.is_file():
        payload = json.loads(tick_path.read_text())
    payload["gym"] = bench_gym(quick=quick)
    tick_path.write_text(json.dumps(payload, indent=2) + "\n")
    return tick_path


def format_gym_report(gym: dict) -> str:
    """The gym suite's lines of the human-readable report."""
    lines = ["gym env step (policy mode) vs raw coordinator tick:"]
    for row in gym.get("steps", []):
        lines.append(
            f"  sites={row['n_sites']}  raw {row['raw_ms_per_tick']:7.3f}"
            f" ms/tick  env {row['env_ms_per_tick']:7.3f} ms/tick"
            f"  ({row['env_ms_per_step']:7.3f} ms/step)"
            f"  overhead {row['overhead_pct']:+6.2f}%"
        )
    return "\n".join(lines)


def format_service_report(service: dict) -> str:
    """The service suite's lines of the human-readable report."""
    verdict = "realtime" if service["realtime_ok"] else "NOT realtime"
    parity = "replay bit-exact" if service["replay_parity"] else "REPLAY MISMATCH"
    return "\n".join(
        [
            "service (live ingest at Delta_d = 1 s, one core):",
            f"  accepted {service['accepted']:7d} of {service['offered']} "
            f"offered over {service['ticks']} tick(s)"
            f"  ({service['rejected_full']} backpressured)",
            f"  sustained {service['accepted_per_sec']:9.0f} accepted "
            f"events/s   p99 queue latency {service['p99_ingest_ms']:7.1f} ms"
            f"   p99 batch rtt {service['p99_batch_rtt_ms']:6.1f} ms",
            f"  max tick work {service['max_tick_ms']:7.1f} ms of "
            f"{service['tick_budget_ms']:.0f} ms budget, "
            f"{service['overruns']} overrun(s) ({verdict}; {parity})",
        ]
    )


def format_report(paths: Dict[str, Path]) -> str:
    """Human-readable summary of freshly written benchmark JSON."""
    tick = json.loads(paths["tick"].read_text())
    sweep = json.loads(paths["sweep"].read_text())
    lines = ["end-to-end controller tick:"]
    for row in tick["end_to_end"]:
        lines.append(
            f"  n={row['n_servers']:4d}  scalar {row['scalar_ms_per_tick']:8.3f} ms"
            f"  vectorized {row['vectorized_ms_per_tick']:8.3f} ms"
            f"  speedup {row['speedup']:5.2f}x"
        )
    lines.append("kernels (scalar loop vs array op):")
    for row in tick["kernels"]:
        lines.append(
            f"  {row['kernel']:<18s} n={row['n_servers']:4d}"
            f"  scalar {row['scalar_us_per_iter']:9.1f} us"
            f"  vectorized {row['vectorized_us_per_iter']:9.1f} us"
            f"  speedup {row['speedup']:6.1f}x"
        )
    lines.append("tracing overhead per tick:")
    for row in tick.get("trace", []):
        if row["mode"] == "disabled_guard_model":
            lines.append(
                f"  disabled (model)    {row['guard_ns_per_site']:6.1f} ns/site"
                f" x {row['sites_per_tick']:6.1f} sites/tick"
                f"  overhead {row['overhead_pct']:6.3f}%"
            )
        else:
            extra = (
                f"  {row['bytes_per_tick'] / 1024:7.1f} KiB/tick"
                if "bytes_per_tick" in row
                else ""
            )
            lines.append(
                f"  {row['mode']:<18s}  {row['ms_per_tick']:8.3f} ms/tick"
                f"  overhead {row['overhead_pct']:6.2f}%{extra}"
            )
    federation = tick.get("federation", {})
    if federation.get("scaling"):
        lines.append("federation (scalar sites vs fused array sites):")
        for row in federation["scaling"]:
            lines.append(
                f"  {row['workload']:<12s} {row['n_sites']}x"
                f"{row['servers_per_site']}={row['n_servers']:6d}"
                f"  scalar {row['scalar_ms_per_tick']:8.2f} ms"
                f"  batched {row['batched_ms_per_tick']:8.2f} ms"
                f"  speedup {row['speedup']:5.2f}x"
            )
    if federation.get("frontier"):
        lines.append("federation frontier (fused only):")
        for row in federation["frontier"]:
            verdict = "realtime" if row["realtime_ok"] else "not realtime"
            lines.append(
                f"  {row['label']:<14s} {row['n_sites']}x"
                f"{row['servers_per_site']}={row['n_servers']:6d}"
                f"  {row['ms_per_tick']:9.1f} ms/tick"
                f" (budget {row['realtime_budget_ms']:.0f} ms, {verdict};"
                f" build {row['build_s']:.1f} s"
                f" + first tick {row['first_tick_s']:.1f} s)"
            )
    if tick.get("service"):
        lines.append(format_service_report(tick["service"]))
    if tick.get("gym"):
        lines.append(format_gym_report(tick["gym"]))
    lines.append("sweep scaling (9-point paper sweep):")
    for row in sweep["scaling"]:
        lines.append(
            f"  workers={row['workers']}  {row['seconds']:6.2f} s"
            f"  speedup {row['speedup']:5.2f}x"
            f"  efficiency {row['efficiency']:5.2f}"
        )
    return "\n".join(lines)
