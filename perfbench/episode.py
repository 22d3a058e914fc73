"""One episode of one workload, in a fresh process.

Usage::

    python3 perfbench/episode.py WORKLOAD --seed N --mode setup|full
        [--trace 0|1] [--checks 0|1] [--seconds S]

``setup`` builds the system and runs its warm-up tick (batch) or starts
the server (live), and reports the set-up time with the host-speed
probes taken beside it.  ``full`` also runs the timed window, with one
probe after every tick, and, with ``--checks 1``, the correctness
checks, outside the window.  ``--trace 1`` installs the layer wrappers
of :mod:`spans`.  The result is one JSON object on the last line of
standard output; :mod:`run` aggregates episodes into a run.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
CPUS = os.sched_getaffinity(0)

# ------------------------------------------------------------- workloads
#: Timed control ticks per batch episode, after one warm-up tick.  Fixed:
#: the outcome counters must repeat for a seed, and at 4,096 servers
#: whether the window crosses a 256-tick demand refill moves throughput
#: by about a fifth.  fleet-steady's window (ticks 1-300) holds exactly
#: one refill (tick 256); solar-churn's covers two whole 96-tick days.
TIMED_TICKS = {"fleet-steady": 300, "solar-churn": 192}
SITES = 4
DAY = 96

#: live-ingest: open-loop load over one connection.
LIVE_BRANCHING = (4, 8, 8)
LIVE_VMS_PER_SERVER = 4
LIVE_TICK_S = 0.1
LIVE_BATCH = 50  # events per request line
LIVE_PERIOD_S = 0.01  # one batch every 10 ms: 5,000 events/s
LIVE_SUPPLY_EVERY = 500  # one supply_update per 500 events
LIVE_QUEUE_BOUND = 1_000_000  # never reached at the fixed rate
LIVE_CIRCUIT_W = 450.0  # WillowConfig.circuit_limit
LIVE_VM_MEAN_W = 52.5  # utilization 0.5 x 420 W slope / 4 VMs

#: Host-speed probes run beside set-up: this many just before and just
#: after the warm-up tick (batch), or just before the server starts (live).
SETUP_PROBES = 10


def fleet_steady(seed: int):
    """4 sites x 1,024 servers x 16 VMs, constant supply at 1.2x."""
    from repro.core.config import WillowConfig
    from repro.federation import SiteSpec, build_federation
    from repro.power.supply import constant_supply
    from repro.topology.builders import build_balanced

    limit = WillowConfig().circuit_limit
    specs = []
    for i in range(SITES):
        tree = build_balanced((4, 16, 16))
        specs.append(
            SiteSpec(
                name=f"site{i}",
                tree=tree,
                supply=constant_supply(1.2 * len(tree.servers()) * limit),
                target_utilization=0.6,
                vms_per_server=16,
                seed=seed + i,
            )
        )
    return build_federation(
        specs,
        n_ticks=1 + TIMED_TICKS["fleet-steady"],
        policy="proportional",
        vectorized=True,
    )


def solar_churn(seed: int):
    """4 sites x 256 servers x 4 VMs on anti-correlated solar with
    empty-start batteries, predictive policy, checkpointable path."""
    from repro.core.config import WillowConfig
    from repro.federation import SiteSpec, build_federation
    from repro.power.battery import Battery
    from repro.power.supply import renewable_supply
    from repro.topology.builders import build_balanced

    limit = WillowConfig().circuit_limit
    n_ticks = 1 + TIMED_TICKS["solar-churn"]
    specs = []
    for i in range(SITES):
        tree = build_balanced((4, 8, 8))
        peak = 0.9 * len(tree.servers()) * limit
        specs.append(
            SiteSpec(
                name=f"site{i}",
                tree=tree,
                supply=renewable_supply(
                    peak,
                    base_fraction=0.3,
                    day_length=DAY,
                    cloud_noise=0.0,
                    phase=i / SITES,
                    days=math.ceil(n_ticks / DAY),
                ),
                battery=Battery(0.4 * peak, 0.05 * peak, charge=0.0),
                target_utilization=0.55,
                vms_per_server=4,
                seed=seed + i,
                vectorized=True,
            )
        )
    return build_federation(
        specs,
        n_ticks=n_ticks,
        policy="predictive",
        horizon=4,
        vectorized=False,
    )


BUILDERS = {"fleet-steady": fleet_steady, "solar-churn": solar_churn}


# ----------------------------------------------------------------- batch
def outcome(fed, *, energy: bool) -> dict:
    """Outcome counters, which repeat exactly for a seed.  ``energy``
    materialises every server sample, so it runs only with the checks."""
    out = {
        "dropped_wticks": sum(s.collector.total_dropped_power() for s in fed.sites),
        "migrations": sum(len(s.collector.migrations) for s in fed.sites)
        + len(fed.cross_migrations),
        "cross_migrations": len(fed.cross_migrations),
        "thermal_violations": sum(
            server.thermal.violations
            for site in fed.sites
            for server in site.controller.servers.values()
        ),
    }
    if energy:
        delta_d = fed.sites[0].config.delta_d
        watt_seconds = sum(s.collector.total_energy() for s in fed.sites) * delta_d
        out["energy_kwh"] = watt_seconds / 3.6e6
    return out


def batch_checks(fed) -> tuple:
    """Placement, Property 3 and the decision digest."""
    from repro.network.messages import verify_message_bound
    from repro.service import decision_digest

    problems = []
    hosted = {}
    for site in fed.sites:
        for server in site.controller.servers.values():
            for vm_id in server.vms:
                hosted[vm_id] = hosted.get(vm_id, 0) + 1
    placed = {vm.vm_id for site in fed.sites for vm in site.controller.placement.vms}
    twice = sum(1 for count in hosted.values() if count != 1)
    if twice or set(hosted) != placed:
        problems.append(
            f"placement: {len(placed - set(hosted))} VMs unhosted, "
            f"{len(set(hosted) - placed)} unknown, {twice} hosted twice"
        )
    for site in fed.sites:
        if not verify_message_bound(site.collector):
            problems.append(f"Property 3 violated at {site.name}")
    digest = hashlib.sha256()
    for site in fed.sites:
        digest.update(decision_digest(site.collector).encode())
    return problems, digest.hexdigest()


def batch_episode(args) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)  # before build: policies resolve there
    fed = BUILDERS[args.workload](args.seed)
    build_s = time.perf_counter() - t0
    # Probes on both sides of the warm-up tick, most of set-up time;
    # their own time is left out of it.
    probe = Probe()
    probes = probe.beside_setup()
    start = time.perf_counter()
    fed.run(1)  # warm-up tick: demand streams, first prefetch
    setup_s = build_s + time.perf_counter() - start
    result = {"setup_s": setup_s, "setup_probe_ms": probes + probe.beside_setup()}
    if args.mode == "setup":
        return result

    fleet = [site.controller for site in fed.sites]
    servers = sum(len(c.servers) for c in fleet)
    vms = sum(len(c.placement.vms) for c in fleet)
    tick_ms, tick_cpu_ms, probe_ms = [], [], []
    if recorder is not None:
        recorder.active = True
    for tick in range(1, TIMED_TICKS[args.workload] + 1):
        if recorder is not None:
            recorder.tick = tick
        cpu = time.process_time()
        start = time.perf_counter()
        fed.run(1)
        tick_ms.append((time.perf_counter() - start) * 1000.0)
        tick_cpu_ms.append((time.process_time() - cpu) * 1000.0)
        probe_ms.append(probe.ms())
    if recorder is not None:
        recorder.active = False
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(
        tick_ms=tick_ms,
        tick_cpu_ms=tick_cpu_ms,
        probe_ms=probe_ms,
        rss_mb=rss_mb,
        servers=servers,
        tick_events=[vms] * len(tick_ms),
        problems=[],
    )
    window_s = sum(tick_ms) / 1000.0
    if args.workload == "solar-churn":
        from repro.metrics.federation import summarize_federation

        if recorder is not None:
            recorder.active = True
        start = time.perf_counter()
        summarize_federation(fed)
        result["summary_s"] = time.perf_counter() - start
        window_s += result["summary_s"]
        if recorder is not None:
            recorder.active = False
    result["window_s"] = window_s
    result["outcome"] = outcome(fed, energy=bool(args.checks))
    if args.checks:
        problems, digest = batch_checks(fed)
        result["problems"] = problems
        result["digest"] = digest
    if recorder is not None:
        import spans

        layers = spans.layer_metrics(recorder)
        directed = sum(t.watts for _tick, ts in fed.transfer_log for t in ts)
        moved = sum(m.demand for m in fed.cross_migrations)
        layers.update(
            {
                "federation.transfers": sum(len(ts) for _t, ts in fed.transfer_log),
                "federation.cross_migrations": len(fed.cross_migrations),
                "federation.fill_ratio": moved / directed if directed else 0.0,
                "service.audit.bytes": 0,
                "service.queue_wait_ms_p99": 0.0,
                "service.overruns": 0,
            }
        )
        result["layers"] = layers
        result["guard"] = spans.guard(args.workload, recorder.layer_totals())
        if args.workload == "fleet-steady" and layers["federation.transfers"]:
            result["guard"].append("federation.transfers: expected 0 on fleet-steady")
        result["top_level_s"] = recorder.top_level_s()
        recorder.write(os.path.join(WORK, "spans", f"{args.workload}-seed{args.seed}.jsonl"))
    return result


# ------------------------------------------------------------------ live
def live_lines(seed: int, seconds: float) -> list:
    """The seeded event stream, pre-encoded as one request line per batch."""
    rng = random.Random(seed)
    n_vms = math.prod(LIVE_BRANCHING) * LIVE_VMS_PER_SERVER
    capacity = math.prod(LIVE_BRANCHING) * LIVE_CIRCUIT_W
    lines = []
    index = 0
    for _ in range(round(seconds / LIVE_PERIOD_S)):
        batch = []
        for _ in range(LIVE_BATCH):
            index += 1
            if index % LIVE_SUPPLY_EVERY == 0:
                budget = capacity * rng.uniform(0.55, 0.75)
                batch.append({"type": "supply_update", "budget": round(budget, 3)})
            else:
                batch.append(
                    {
                        "type": "demand_sample",
                        "vm_id": rng.randrange(n_vms),
                        "demand": round(LIVE_VM_MEAN_W * rng.uniform(0.5, 1.5), 3),
                    }
                )
        lines.append(json.dumps(batch, separators=(",", ":")).encode() + b"\n")
    return lines


async def open_loop(host: str, port: int, lines: list, timeout: float):
    """Write every line on its fixed schedule, pipelined; match the
    in-order ack lines to each line's due time."""
    reader, writer = await asyncio.open_connection(host, port)
    clock = time.monotonic
    start = clock() + 0.02
    late = [0.0] * len(lines)
    acks = [None] * len(lines)

    async def send():
        for k, line in enumerate(lines):
            delay = start + k * LIVE_PERIOD_S - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            late[k] = clock() - (start + k * LIVE_PERIOD_S)
            writer.write(line)
        await writer.drain()

    async def receive():
        for k in range(len(lines)):
            line = await reader.readline()
            if not line:
                return
            acks[k] = (clock() - (start + k * LIVE_PERIOD_S), line)

    sender = asyncio.ensure_future(send())
    try:
        await asyncio.wait_for(receive(), timeout)
    except asyncio.TimeoutError:
        pass
    finally:
        sender.cancel()
        try:
            await sender
        except asyncio.CancelledError:
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return late, acks


def start_server(tmp: str, seed: int, trace: int):
    """Spawn the launcher, serving until stopped; return (process,
    set-up seconds, host, port)."""
    audit = os.path.join(tmp, "audit.jsonl")
    cmd = [
        sys.executable, os.path.join(HERE, "launcher.py"),
        os.path.join(tmp, "server.json"), str(trace), "--", audit,
        "--branching", ",".join(map(str, LIVE_BRANCHING)),
        "--vms-per-server", str(LIVE_VMS_PER_SERVER),
        "--tick-seconds", str(LIVE_TICK_S),
        "--checkpoint-dir", os.path.join(tmp, "ckpt"),
        "--queue-bound", str(LIVE_QUEUE_BOUND),
        "--seed", str(seed),
    ]
    with open(os.path.join(tmp, "server.err"), "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
    os.sched_setaffinity(0, {min(CPUS)})
    line = proc.stdout.readline().decode()
    setup_s = time.perf_counter() - started
    if not line.startswith("serving on "):
        proc.kill()
        proc.wait()
        with open(os.path.join(tmp, "server.err")) as handle:
            raise RuntimeError(f"server did not start: {line!r} {handle.read()[-2000:]}")
    host, port = line.split()[2].rsplit(":", 1)
    return proc, setup_s, host, int(port)


def stop(proc, timeout: float) -> None:
    """Wait for the server to exit; kill it past ``timeout``."""
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def live_episode(args) -> dict:
    tmp = os.path.join(WORK, f"live-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        return _live_episode(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _live_episode(args, tmp: str) -> dict:
    probes = Probe().beside_setup()  # on the CPU the server is about to get
    if args.mode == "setup":
        proc, setup_s, _host, _port = start_server(tmp, args.seed, 0)
        proc.send_signal(signal.SIGTERM)
        stop(proc, 60)
        return {"setup_s": setup_s, "setup_probe_ms": probes}

    lines = live_lines(args.seed, args.seconds)
    proc, setup_s, host, port = start_server(tmp, args.seed, args.trace)
    try:
        late, acks = asyncio.run(open_loop(host, port, lines, args.seconds + 60))
    finally:
        # Sending is over: the server drains what it accepted into one
        # last tick, writes the audit end record and exits.
        proc.send_signal(signal.SIGTERM)
        stop(proc, 120)
    if proc.returncode != 0:
        with open(os.path.join(tmp, "server.err")) as handle:
            raise RuntimeError(f"server exited {proc.returncode}: {handle.read()[-2000:]}")
    with open(os.path.join(tmp, "server.json")) as handle:
        server = json.load(handle)

    offered = LIVE_BATCH * len(lines)
    accepted = rejected_full = rejected_invalid = 0
    ack_ms = []
    for entry in acks:
        if entry is None:
            ack_ms.append(math.inf)  # unacked: misses any limit
            continue
        latency, line = entry
        statuses = json.loads(line)
        ok = sum(1 for r in statuses if r.get("status") == "accepted")
        accepted += ok
        rejected_full += sum(1 for r in statuses if r.get("code") == 429)
        rejected_invalid += sum(1 for r in statuses if r.get("code") == 400)
        ack_ms.append(latency * 1000.0 if ok == len(statuses) else math.inf)
    result = {
        "setup_s": setup_s,
        "setup_probe_ms": probes,
        "tick_ms": server["tick_wall_ms"],
        "tick_cpu_ms": server["tick_cpu_ms"],
        "probe_ms": server["probe_ms"],
        "tick_start_s": server["tick_start_s"],
        "tick_events": server["tick_events"],
        "cpu_s": server["cpu_s"],
        "window_s": server["wall_s"],
        "rss_mb": server["rss_mb"],
        "servers": server["servers"],
        "events": accepted,
        "outcome": server["outcome"],
        "overruns": server["overruns"],
        "ack_ms": ack_ms,
        "late_ms": [x * 1000.0 for x in late],
        "offered": offered,
    }
    problems = []
    unacked = sum(1 for entry in acks if entry is None)
    if unacked:
        problems.append(f"{unacked} of {len(lines)} batches unacked")
    if rejected_full or rejected_invalid:
        problems.append(f"{rejected_full} x 429 and {rejected_invalid} x 400 responses")
    if server["accepted"] != accepted:
        problems.append(f"server accepted {server['accepted']}, client saw {accepted}")
    if args.checks:
        replay = subprocess.run(
            [sys.executable, "-m", "repro.cli", "replay", os.path.join(tmp, "audit.jsonl")],
            capture_output=True, text=True, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=SRC), timeout=150,
        )
        if "replay parity: OK" not in replay.stdout:
            problems.append(f"replay: {replay.stdout[-500:]} {replay.stderr[-500:]}")
    result["problems"] = problems
    if args.trace:
        import spans

        layers = server["layers"]
        layers["service.audit.bytes"] = server["audit_bytes"]
        layers["service.queue_wait_ms_p99"] = percentile(server["queue_wait_ms"], 0.99)
        layers["service.overruns"] = server["overruns"]
        layers.update({"federation.transfers": 0, "federation.cross_migrations": 0,
                       "federation.fill_ratio": 0.0})
        result["layers"] = layers
        result["guard"] = spans.guard("live-ingest", server["totals"])
        result["top_level_s"] = server["top_level_s"]
        os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
        os.replace(
            os.path.join(tmp, "spans.jsonl"),
            os.path.join(WORK, "spans", f"live-ingest-seed{args.seed}.jsonl"),
        )
    return result


class Probe:
    """Host-speed probe: a fixed kernel of about 3 ms on a 2-vCPU cloud
    host, two fifths interpreter work (list and dict churn) and three
    fifths numpy passes over 65,536-element arrays, the two kinds of work
    the workloads mix.  That host's speed swings by up to 2x within
    seconds, so a probe runs after every timed tick and each tick is
    scaled by the probes around it (``run.scaled``).  Build it once numpy
    is imported, outside any timing."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(5)
        self._np = np
        self._arrays = (
            rng.random(65_536), rng.random(65_536), rng.integers(0, 4_096, 65_536)
        )
        self._cells = [[i, 0.0] for i in range(8_192)]

    def ms(self) -> float:
        """Run the kernel once; its wall time in ms.  The cyclic collector
        is off meanwhile: the probe must not time a collection of the
        workload's heap."""
        np = self._np
        a, b, index = self._arrays
        cells = self._cells
        gc.disable()
        try:
            start = time.perf_counter()
            table = {}
            for i in range(6_000):
                cell = cells[(i * 7_919) % 8_192]
                cell[1] += i * 0.5
                table[(i * 104_729) % 4_096] = cell
            for _ in range(4):
                c = a * b + a
                np.bincount(index, weights=c, minlength=4_096)
                np.argsort(c[:8_192])
                np.maximum(c, 0.5).sum()
            return (time.perf_counter() - start) * 1000.0
        finally:
            gc.enable()

    def beside_setup(self) -> list:
        """The probes set-up time is scaled by, in ms."""
        return [self.ms() for _ in range(SETUP_PROBES)]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("fleet-steady", "solar-churn", "live-ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "full"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checks", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    sys.path.insert(0, HERE)
    # The process under test gets the last CPU to itself; live-ingest's
    # load generator moves to the first once the server has started.
    # The host-speed probes run on the process under test's CPU.
    os.sched_setaffinity(0, {max(CPUS)})
    if args.workload == "live-ingest":
        result = live_episode(args)
    else:
        result = batch_episode(args)
    import numpy

    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        **{
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
