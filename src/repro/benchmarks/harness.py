"""Hot-path benchmark harness: end-to-end ticks, kernels, sweep scaling.

Every timed number comes from one sampler, :func:`_sample`.  A side of a
comparison is a generator: the code before its first ``yield`` builds
it, and each resumption advances it one window.  Each of the ``PAIRS``
pairs collects garbage, builds every side untimed, then advances the
sides in lock step, rotating which side goes first, and records the
time of each window, so a shift in the host's speed hits every side of
a pair alike.  A timed row reports the median over the pairs with the
IQR beside it (``<key>_iqr``), and every ratio (speedup, overhead) is
the median of the per-pair ratios, which discards the pairs that a
shift split.  A controller window is ``WINDOW_TICKS`` ticks, one
Delta_S supply window: each holds one allocation tick, and a traced run
flushes its tracer once a window, not once a tick.

The suites write machine-readable JSON that the regression guards
(``benchmarks/test_bench_*.py``) compare against:

``bench_tick``
    Full controller runs, scalar vs. vectorized, at several fleet
    sizes.  This is the honest end-to-end number: both paths share the
    planners, consolidation and metrics code, so the ratio is bounded
    by the non-vectorized remainder (Amdahl), not by the kernels.
``bench_kernels``
    The four vectorized kernels in isolation, each against the scalar
    loop it replaced.
``bench_sweep_scaling``
    The paper's utilization sweep over a process pool at increasing
    worker counts.
``bench_trace``
    Tracing overhead (off, null sink, JSONL file) and the deterministic
    model of the *disabled* cost that CI bounds.
``bench_federation``
    Scalar site controllers vs. fused array sites, and fused-only
    frontier rows at 10k servers (realtime check against ``delta_d``)
    and 100k servers (feasibility).
``bench_gym``
    The gym env step against the raw coordinator tick.
``bench_service``
    Live-mode ingest at the paper's Delta_d = 1 s, timed by the live
    runner's own report.

Run via ``python -m repro.cli bench`` (or ``python benchmarks/harness.py``),
which writes ``BENCH_tick.json`` and ``BENCH_sweep.json``.
``python -m repro.cli bench service`` reruns just the service suite and
merges it into an existing ``BENCH_tick.json``.
"""

from __future__ import annotations

import gc
import json
import platform
import time
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence

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

#: Pairs per timed row: enough that the IQR of a guarded ratio sits well
#: inside its bound on a noisy 2-vCPU host.
PAIRS = 15

#: Ticks per controller window: one Delta_S (eta1 = 4) supply window.
WINDOW_TICKS = 4

#: Iterations per kernel window.
KERNEL_WINDOW = 10

#: Disabled ``tracer.enabled`` checks per window of the guard timing.
GUARD_CHECKS = 50_000

#: Fleet size of the tracing suite (vectorized tick).
TRACE_SERVERS = 64


def _sample(sides: Sequence[Callable[[], Iterator]], windows: int) -> np.ndarray:
    """The one timing loop: seconds per window, shaped (pair, side,
    window).  The side that goes first rotates from window to window
    and from pair to pair."""
    n = len(sides)
    seconds = np.empty((PAIRS, n, windows))
    for pair in range(PAIRS):
        gc.collect()
        runs = [side() for side in sides]
        for run in runs:
            next(run)  # build, untimed
        for window in range(windows):
            for k in range(n):
                i = (pair + window + k) % n
                t0 = time.perf_counter()
                next(runs[i])
                seconds[pair, i, window] = time.perf_counter() - t0
        del runs  # free this pair's sides before the next collection
    return seconds


def _repeat(step, *args) -> Iterator:
    """A built side whose every window calls ``step(*args)``."""
    while True:
        yield
        step(*args)


def _stat(key: str, per_pair) -> dict:
    """``{key: median, key_iqr: IQR}`` over per-pair values."""
    q1, median, q3 = np.percentile(per_pair, (25, 50, 75))
    return {key: float(median), f"{key}_iqr": float(q3 - q1)}


# -------------------------------------------------------------- end-to-end
def _controller(n_servers: int, vectorized: bool, tracer=None) -> Iterator:
    """A side: a seeded steady-state controller, one window a step."""
    from repro.core.config import WillowConfig
    from repro.core.controller import WillowController, build_willow
    from repro.core.vectorized import VectorizedWillowController
    from repro.power.supply import constant_supply
    from repro.topology.builders import build_balanced

    config = WillowConfig()
    controller = build_willow(
        VectorizedWillowController if vectorized else WillowController,
        tree=build_balanced(FLEET_SHAPES[n_servers]),
        config=config,
        supply=constant_supply(0.7 * n_servers * config.circuit_limit),
        target_utilization=0.7,
        seed=11,
        tracer=tracer,
    )
    yield from _repeat(controller.run, WINDOW_TICKS)


def bench_tick(
    sizes: Sequence[int] = (18, 64, 256),
    ticks: int = 300,
) -> List[dict]:
    """Scalar vs. vectorized full-run ms/tick per fleet size."""
    windows = ticks // WINDOW_TICKS
    ticks = windows * WINDOW_TICKS
    rows = []
    for n in sizes:
        seconds = _sample(
            [partial(_controller, n, False), partial(_controller, n, True)],
            windows,
        ).sum(axis=2)
        ms = seconds / ticks * 1e3
        rows.append(
            {
                "n_servers": int(n),
                "ticks": int(ticks),
                **_stat("scalar_ms_per_tick", ms[:, 0]),
                **_stat("vectorized_ms_per_tick", ms[:, 1]),
                **_stat("speedup", seconds[:, 0] / seconds[:, 1]),
            }
        )
    return rows


# ----------------------------------------------------------------- kernels
# Each returns its (scalar, vectorized) sides over fresh state; a window
# is KERNEL_WINDOW iterations.
def _kernel_smoothing(n: int, iters: int):
    from repro.power.smoothing import ExponentialSmoother, smooth_lanes

    rng = np.random.default_rng(0)
    windows = rng.uniform(50.0, 400.0, size=(iters, n)).reshape(
        -1, KERNEL_WINDOW, n
    )

    def scalar():
        smoothers = [ExponentialSmoother(0.5, initial=200.0) for _ in range(n)]
        yield
        for block in windows:
            for row in block:
                for smoother, obs in zip(smoothers, row.tolist()):
                    smoother.update(obs)
            yield

    def vector():
        values = np.full(n, 200.0)
        primed = np.ones(n, dtype=bool)
        yield
        for block in windows:
            for row in block:
                smooth_lanes(values, primed, 0.5, row)
            yield

    return scalar, vector


def _kernel_thermal(n: int, iters: int):
    from repro.thermal.model import (
        ThermalParams,
        temperature_after,
        temperature_step_arrays,
    )

    params = ThermalParams()
    rng = np.random.default_rng(1)
    windows = rng.uniform(100.0, 420.0, size=(iters, n)).reshape(
        -1, KERNEL_WINDOW, n
    )
    decay = float(np.exp(-params.c2 * 1.0))

    def scalar():
        temps = [30.0] * n
        yield
        for block in windows:
            for row in block:
                temps = [
                    temperature_after(params, t, p, 1.0)
                    for t, p in zip(temps, row.tolist())
                ]
            yield

    def vector():
        temps = np.full(n, 30.0)
        yield
        for block in windows:
            for row in block:
                temps = temperature_step_arrays(
                    temps, row, t_ambient=params.t_ambient, c1=params.c1,
                    c2=params.c2, decay=decay,
                )
            yield

    return scalar, vector


def _kernel_budget(n: int, iters: int):
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
    windows = np.arange(iters).reshape(-1, KERNEL_WINDOW).tolist()

    def scalar():
        yield
        for block in windows:
            for k in block:
                for g, start in enumerate(offsets):
                    allocate_proportional(
                        float(totals[k, g]),
                        weights[k, start : start + group_size],
                        caps[start : start + group_size],
                    )
            yield

    def vector():
        yield
        for block in windows:
            for k in block:
                allocate_level(totals[k], weights[k], caps, index=index)
            yield

    return scalar, vector


def _kernel_sampling(n: int, iters: int):
    from repro.sim import RandomStreams
    from repro.workload import SIMULATION_APPS, DemandGenerator, random_placement

    def side(block_size):
        streams = RandomStreams(3)
        plan = random_placement(
            list(range(n)), SIMULATION_APPS, streams["placement"]
        )
        generator = DemandGenerator(plan, streams, block_size=block_size)
        while True:
            yield
            for _ in range(KERNEL_WINDOW):
                generator.sample_tick_array()

    # One stream.poisson call per VM per tick, against block prefetch.
    return partial(side, 1), partial(side, 256)


_KERNELS = (
    ("smoothing", _kernel_smoothing),
    ("thermal_step", _kernel_thermal),
    ("budget_allocation", _kernel_budget),
    ("demand_sampling", _kernel_sampling),
)


def _kernel_row(name, n, iters, scalar_us, vector_us) -> dict:
    return {
        "kernel": name,
        "n_servers": int(n),
        "iters": int(iters),
        **_stat("scalar_us_per_iter", scalar_us),
        **_stat("vectorized_us_per_iter", vector_us),
        **_stat("speedup", scalar_us / vector_us),
    }


def bench_kernels(
    sizes: Sequence[int] = (64, 256), iters: int = 400
) -> List[dict]:
    """Isolated kernel timings, scalar loop vs. array op, per size: Eq. 4
    smoothing, the Eq. 2 thermal step, proportional budget division
    across a tree level, and Poisson demand sampling (per-draw vs.
    block-prefetched streams), all eight sides in lock step.

    Besides the four individual kernels, emits one ``combined`` row per
    size: the summed per-tick cost of all four, scalar vs. vectorized.
    That aggregate is the headline number -- it is what one tick of the
    hot path spends in these kernels, and it clears 5x at 64+ servers
    even where a single small kernel (e.g. 64-lane smoothing, where
    NumPy call overhead is comparable to the loop it replaces) does not.
    """
    iters -= iters % KERNEL_WINDOW
    rows = []
    for n in sizes:
        sides = [side for _name, make in _KERNELS for side in make(n, iters)]
        us = _sample(sides, iters // KERNEL_WINDOW).sum(axis=2) / iters * 1e6
        scalar, vector = us[:, 0::2], us[:, 1::2]
        for k, (name, _make) in enumerate(_KERNELS):
            rows.append(_kernel_row(name, n, iters, scalar[:, k], vector[:, k]))
        rows.append(
            _kernel_row(
                "combined", n, iters, scalar.sum(axis=1), vector.sum(axis=1)
            )
        )
    return rows


# ----------------------------------------------------------- sweep scaling
def bench_sweep_scaling(
    worker_counts: Sequence[int] | None = None,
    n_ticks: int = 240,
) -> List[dict]:
    """Wall-clock of the 9-point paper sweep at several worker counts.

    Disables the disk cache and clears the in-process memo before every
    sweep, so each window times real simulation work; the serial sweep
    and every pool size are the sides of one sample.  Worker counts
    beyond the machine's core count are skipped -- on a single-core box
    only the serial row is recorded (process fan-out cannot help there,
    and timing it anyway would just document scheduler thrash).
    """
    import os

    from repro.experiments import cache
    from repro.experiments.common import PAPER_UTILIZATIONS
    from repro.experiments.paper_sweep import run_sweep
    from repro.experiments.parallel import run_sweep_parallel

    cpus = os.cpu_count() or 1
    if worker_counts is None:
        worker_counts = (1, 2, 4, 8)
    counts = [1] + [w for w in worker_counts if 1 < w <= cpus]

    def sweep(workers: int):
        while True:
            yield
            run_sweep.cache_clear()
            if workers == 1:
                run_sweep(PAPER_UTILIZATIONS, n_ticks=n_ticks)
            else:
                run_sweep_parallel(
                    PAPER_UTILIZATIONS, n_ticks=n_ticks, workers=workers
                )

    cache.set_enabled(False)
    try:
        seconds = _sample([partial(sweep, w) for w in counts], 1)[:, :, 0]
    finally:
        cache.set_enabled(None)
    rows = []
    for k, workers in enumerate(counts):
        speedup = seconds[:, 0] / seconds[:, k]
        rows.append(
            {
                "workers": int(workers),
                "n_points": len(PAPER_UTILIZATIONS),
                **_stat("seconds", seconds[:, k]),
                **_stat("speedup", speedup),
                **_stat("efficiency", speedup / workers),
            }
        )
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
            # fused path vectorizes end to end.
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


def _federation(n_sites, servers_per_site, ticks, vectorized, workload, window):
    """A federation side: its first window builds the federation, its
    second runs the first tick, which pays one-time costs (per-VM
    demand-stream init and the 256-tick Poisson block prefetch) that
    real runs amortise over the whole horizon, and every later window
    runs ``window`` steady-state ticks."""
    yield
    coordinator = _build_bench_federation(
        n_sites, servers_per_site, ticks, vectorized, workload=workload
    )
    yield
    coordinator.run(1)
    yield from _repeat(coordinator.run, window)


def bench_federation(quick: bool = False) -> dict:
    """Scalar vs. fused federation scaling plus fused-only frontier.

    Returns ``{"scaling": [...], "frontier": [...]}``.  Scaling rows
    compare scalar site controllers against fused array sites
    (``vectorized=True``) at identical seeds/workloads, with a churny
    solar row (honest Amdahl: planner and FFDLR stay scalar).  Frontier
    rows push the fused path to 10k servers (realtime check: mean tick
    wall vs. the ``delta_d`` budget; the full run ticks past the
    tick-256 demand block refill and reports the median and worst tick
    beside it) and 100k servers (feasibility).
    """
    from repro.core.config import WillowConfig

    delta_ms = WillowConfig().delta_d * 1e3
    if quick:
        scaling_points = [(2, 256), (4, 256)]
        churn_points = [(2, 256)]
        frontier_points = [("10k_realtime", 2, 1024, 3)]
        ticks = 24
    else:
        scaling_points = [(2, 256), (4, 256), (8, 256)]
        churn_points = [(4, 256)]
        frontier_points = [
            ("10k_realtime", 10, 1024, 260),
            ("100k_feasible", 25, 4096, 3),
        ]
        ticks = 120

    scaling = []
    for workload, points in (
        ("steady", scaling_points),
        ("solar_churn", churn_points),
    ):
        for n_sites, per_site in points:
            seconds = _sample(
                [
                    partial(
                        _federation, n_sites, per_site, ticks, vectorized,
                        workload, WINDOW_TICKS,
                    )
                    for vectorized in (False, True)
                ],
                2 + ticks // WINDOW_TICKS,
            )
            steady = seconds[:, :, 2:].sum(axis=2)
            scaling.append(
                {
                    "workload": workload,
                    "n_sites": int(n_sites),
                    "servers_per_site": int(per_site),
                    "n_servers": int(n_sites * per_site),
                    "ticks": int(ticks),
                    **_stat("scalar_ms_per_tick", steady[:, 0] / ticks * 1e3),
                    **_stat("fused_ms_per_tick", steady[:, 1] / ticks * 1e3),
                    **_stat("speedup", steady[:, 0] / steady[:, 1]),
                    **_stat("fused_build_s", seconds[:, 1, 0]),
                }
            )

    frontier = []
    for label, n_sites, per_site, n_ticks in frontier_points:
        seconds = _sample(
            [partial(_federation, n_sites, per_site, n_ticks, True, "steady", 1)],
            2 + n_ticks,
        )[:, 0]
        tick_ms = seconds[:, 2:] * 1e3
        row = {
            "label": label,
            "n_sites": int(n_sites),
            "servers_per_site": int(per_site),
            "n_servers": int(n_sites * per_site),
            "ticks": int(n_ticks),
            **_stat("build_s", seconds[:, 0]),
            **_stat("first_tick_s", seconds[:, 1]),
            **_stat("ms_per_tick", tick_ms.mean(axis=1)),
            **_stat("tick_ms_p50", np.median(tick_ms, axis=1)),
            **_stat("worst_tick_ms", tick_ms.max(axis=1)),
            "realtime_budget_ms": delta_ms,
        }
        row["realtime_ok"] = bool(row["ms_per_tick"] <= delta_ms)
        frontier.append(row)
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
    are untimed on both sides; a window is one supply window (one env
    step).  ``benchmarks/test_bench_gym.py`` guards the overhead at
    <= 10%.
    """
    from repro.federation.coordinator import build_federation
    from repro.gym.env import GymConfig, WillowFedEnv

    windows = 23 if quick else 46
    site_counts = (2,) if quick else (2, 4)
    rows = []
    for n_sites in site_counts:
        config = GymConfig(
            n_sites=n_sites, windows=windows, action_mode="policy"
        )
        arm = config.policy_arms.index("proportional")

        episode = WillowFedEnv(config)
        episode.reset(seed=17)  # the scenario both sides roll

        def raw():
            coordinator = build_federation(
                episode.episode_specs(),
                n_ticks=episode.n_ticks,
                policy="proportional",
                margin=config.margin,
            )
            coordinator.run(coordinator.eta1)  # warm-up parity with reset()
            yield from _repeat(coordinator.run, coordinator.eta1)

        def env_side():
            env = WillowFedEnv(config)
            env.reset(seed=17)
            yield from _repeat(env.step, arm)

        seconds = _sample([raw, env_side], windows).sum(axis=2)
        ticks = windows * 4
        rows.append(
            {
                "n_sites": int(n_sites),
                "windows": int(windows),
                "ticks": int(ticks),
                **_stat("raw_ms_per_tick", seconds[:, 0] / ticks * 1e3),
                **_stat("env_ms_per_tick", seconds[:, 1] / ticks * 1e3),
                **_stat("env_ms_per_step", seconds[:, 1] / windows * 1e3),
                **_stat(
                    "overhead_pct", (seconds[:, 1] / seconds[:, 0] - 1.0) * 100.0
                ),
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
def _guard_cost_ns() -> np.ndarray:
    """Measured cost of one disabled ``tracer.enabled`` guard check, in
    ns, per pair.

    Includes the bare loop overhead, so this *over*-estimates the real
    per-site cost (an attribute load and a branch) -- which is the safe
    direction for the regression guard built on it.
    """
    from repro.trace.tracer import NULL_TRACER

    def checks():
        tracer = NULL_TRACER
        while True:
            yield
            for _ in range(GUARD_CHECKS):
                if tracer.enabled:  # pragma: no cover - never true
                    raise AssertionError("NULL_TRACER must stay disabled")

    windows = 10
    seconds = _sample([checks], windows).sum(axis=2)[:, 0]
    return seconds / (windows * GUARD_CHECKS) * 1e9


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


def bench_trace(ticks: int = 200) -> List[dict]:
    """Tracing cost per tick on the vectorized tick at ``TRACE_SERVERS``
    servers: off (the default) vs. a null sink (frame building alone)
    vs. a JSONL file (full serialization).

    Emits one row per mode plus a ``disabled_guard_model`` row: the
    measured nanoseconds of one ``tracer.enabled`` check times the
    per-tick record count of an enabled run (itself an upper bound on
    guarded sites), as a percentage of the traced-off tick.  That model
    is what CI bounds (``benchmarks/test_bench_trace.py``, <= 2%) --
    wall-clock deltas between two ~equal runs on a noisy runner cannot
    resolve a sub-percent overhead, the model can.
    """
    import tempfile

    from repro.trace.tracer import Tracer
    from repro.trace.writer import JsonlTraceWriter, NullTraceWriter

    windows = ticks // WINDOW_TICKS
    ticks = windows * WINDOW_TICKS
    with tempfile.TemporaryDirectory() as tmp:
        tracers = []

        def jsonl():
            path = Path(tmp) / f"{len(tracers)}.jsonl"
            tracers.append(Tracer(JsonlTraceWriter(path, max_bytes=None)))
            yield from _controller(TRACE_SERVERS, True, tracers[-1])

        try:
            seconds = _sample(
                [
                    partial(_controller, TRACE_SERVERS, True),
                    lambda: _controller(
                        TRACE_SERVERS, True, Tracer(NullTraceWriter())
                    ),
                    jsonl,
                ],
                windows,
            ).sum(axis=2)
        finally:
            for tracer in tracers:
                tracer.close()
        path = tracers[-1].writer.path  # every pair writes the same trace
        trace_bytes = path.stat().st_size
        frames = [json.loads(line) for line in path.read_text().splitlines()]
    tick_frames = [f for f in frames if f.get("type") == "tick"]
    sites_per_tick = sum(
        _frame_record_count(f) for f in tick_frames
    ) / max(len(tick_frames), 1)

    rows = [
        {
            "mode": mode,
            "n_servers": TRACE_SERVERS,
            "ticks": int(ticks),
            **_stat("ms_per_tick", seconds[:, k] / ticks * 1e3),
            **_stat(
                "overhead_pct", (seconds[:, k] / seconds[:, 0] - 1.0) * 100.0
            ),
        }
        for k, mode in enumerate(("off", "null_sink", "jsonl"))
    ]
    rows[2]["bytes_per_tick"] = trace_bytes / ticks
    guard = _stat("guard_ns_per_site", _guard_cost_ns())
    model_pct = (
        guard["guard_ns_per_site"] * sites_per_tick
        / (rows[0]["ms_per_tick"] * 1e6) * 100.0
    )
    rows.append(
        {
            "mode": "disabled_guard_model",
            "n_servers": TRACE_SERVERS,
            "ticks": int(ticks),
            **guard,
            "sites_per_tick": sites_per_tick,
            "overhead_pct": model_pct,
        }
    )
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
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "quick": bool(quick),
        "pairs": PAIRS,
        "window_ticks": WINDOW_TICKS,
    }

    tick_payload = {
        "meta": meta,
        "end_to_end": bench_tick(tick_sizes, ticks=ticks),
        "kernels": bench_kernels(kernel_sizes, iters=iters),
        "trace": bench_trace(ticks=60 if quick else 200),
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


def _merge_suite(out_dir, key: str, section) -> Path:
    """Write ``section`` under ``key`` into ``BENCH_tick.json``, keeping
    every other suite's recorded numbers when the file already exists."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tick_path = out_dir / "BENCH_tick.json"
    payload: dict = {}
    if tick_path.is_file():
        payload = json.loads(tick_path.read_text())
    payload[key] = section
    tick_path.write_text(json.dumps(payload, indent=2) + "\n")
    return tick_path


def run_service_benchmark(
    out_dir: str | Path = ".", *, quick: bool = False
) -> Path:
    """Run only the service suite; merge it into ``BENCH_tick.json`` (a
    service-only file when there is none), so ``bench service`` is
    cheap to iterate on."""
    return _merge_suite(out_dir, "service", bench_service(quick=quick))


def run_gym_benchmark(
    out_dir: str | Path = ".", *, quick: bool = False
) -> Path:
    """Run only the gym suite; merge it into ``BENCH_tick.json``."""
    return _merge_suite(out_dir, "gym", bench_gym(quick=quick))


def format_gym_report(gym: dict) -> str:
    """The gym suite's lines of the human-readable report."""
    lines = ["gym env step (policy mode) vs raw coordinator tick:"]
    for row in gym.get("steps", []):
        lines.append(
            f"  sites={row['n_sites']}  raw {row['raw_ms_per_tick']:7.3f}"
            f" ms/tick  env {row['env_ms_per_tick']:7.3f} ms/tick"
            f"  ({row['env_ms_per_step']:7.3f} ms/step)"
            f"  overhead {row['overhead_pct']:+6.2f}%"
            f" (IQR {row['overhead_pct_iqr']:.2f})"
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
    """Human-readable summary of freshly written benchmark JSON: medians
    over the pairs, with the IQR of each ratio."""
    tick = json.loads(paths["tick"].read_text())
    sweep = json.loads(paths["sweep"].read_text())
    lines = ["end-to-end controller tick:"]
    for row in tick["end_to_end"]:
        lines.append(
            f"  n={row['n_servers']:4d}  scalar {row['scalar_ms_per_tick']:8.3f} ms"
            f"  vectorized {row['vectorized_ms_per_tick']:8.3f} ms"
            f"  speedup {row['speedup']:5.2f}x (IQR {row['speedup_iqr']:.2f})"
        )
    lines.append("kernels (scalar loop vs array op):")
    for row in tick["kernels"]:
        lines.append(
            f"  {row['kernel']:<18s} n={row['n_servers']:4d}"
            f"  scalar {row['scalar_us_per_iter']:9.1f} us"
            f"  vectorized {row['vectorized_us_per_iter']:9.1f} us"
            f"  speedup {row['speedup']:6.1f}x (IQR {row['speedup_iqr']:.1f})"
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
                f"  overhead {row['overhead_pct']:6.2f}%"
                f" (IQR {row['overhead_pct_iqr']:5.2f}){extra}"
            )
    federation = tick.get("federation", {})
    if federation.get("scaling"):
        lines.append("federation (scalar sites vs fused array sites):")
        for row in federation["scaling"]:
            lines.append(
                f"  {row['workload']:<12s} {row['n_sites']}x"
                f"{row['servers_per_site']}={row['n_servers']:6d}"
                f"  scalar {row['scalar_ms_per_tick']:8.2f} ms"
                f"  fused {row['fused_ms_per_tick']:8.2f} ms"
                f"  speedup {row['speedup']:5.2f}x"
                f" (IQR {row['speedup_iqr']:.2f})"
            )
    if federation.get("frontier"):
        lines.append("federation frontier (fused only):")
        for row in federation["frontier"]:
            verdict = "realtime" if row["realtime_ok"] else "not realtime"
            lines.append(
                f"  {row['label']:<14s} {row['n_sites']}x"
                f"{row['servers_per_site']}={row['n_servers']:6d}"
                f"  {row['ms_per_tick']:9.1f} ms/tick"
                f" (median {row['tick_ms_p50']:.1f}, worst"
                f" {row['worst_tick_ms']:.0f} ms over {row['ticks']} ticks;"
                f" budget {row['realtime_budget_ms']:.0f} ms, {verdict};"
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
