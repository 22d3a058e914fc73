"""Willow benchmark: three workloads timed end to end, traced per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fleet-steady|solar-churn|live-ingest|all
        [--seed N] [--seconds S] [--trace 0|1]

Every episode runs in a fresh child process (``episode.py``), one at a
time, with the BLAS thread pools pinned to one thread and the process
under test pinned to one CPU.  ``--trace 0`` runs full episodes (at
least one to three per workload, more until their set-up and timed
windows reach ``--seconds``; a live-ingest episode's open-loop load
lasts ``--seconds``), then set-up-only episodes until there are three
set-up samples, and prints the end-to-end metrics, with every tick's
times scaled by the host-speed probes run beside it.  ``--trace 1``
runs one untraced and one traced full episode and prints the per-layer
metrics, including the tracing overhead.  Correctness checks run
outside the timed window.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``LAYERS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from episode import LIVE_TICK_S, percentile  # noqa: E402

WORKLOADS = ("fleet-steady", "solar-churn", "live-ingest")
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_SAMPLES = 3
#: Full episodes per run: at least this many, more (up to the maximum)
#: until their set-up plus timed windows reach ``--seconds``.  Timings
#: pooled over episodes spaced through the run even out host drift and,
#: on live-ingest, how events happen to fall into ticks, which moves a
#: single episode's tick median by 4-8% even for one seed;
#: fleet-steady's single episode already holds 300 ticks at 4,096
#: servers plus about 15 s of checks.
MIN_FULL_EPISODES = {"fleet-steady": 1, "solar-churn": 3, "live-ingest": 3}
MAX_FULL_EPISODES = 3
RUN_DEADLINE_S = 170.0
#: Timings are scaled to a host on which ``episode.Probe`` takes this
#: long.  The host's speed swings by up to 2x within seconds; a probe
#: runs after every timed tick, and each tick is scaled by the median of
#: the probes within PROBE_WINDOW ticks of it, which tracks the swings
#: closely enough that the spread of a timing over ten seeds (IQR /
#: median) drops from 0.2-0.4 to below 0.1.
PROBE_NOMINAL_MS = 3.0
PROBE_WINDOW = 2
#: live-ingest's timings come from ticks 1 to LIVE_TICKS that start one
#: tick period after the previous one, so absorb one period of load.  A
#: tick after an overrun absorbs more, and how many ticks overrun, and
#: so how many an episode holds, moves with the host's speed (a
#: checkpoint tick's cost grows with uptime); counting those ticks, or
#: all ticks, moved the live metrics by up to a quarter between runs.
LIVE_TICKS = 50


def metric_units() -> tuple:
    """``({end-to-end name: unit}, {per-layer name: unit})`` in the
    order ``BENCHMARK.json`` lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return tuple(
        {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")
    )


class EpisodeError(RuntimeError):
    pass


def episode(workload, seed, mode, *, trace=0, checks=0, seconds=10.0, deadline):
    """Run one episode in a fresh process group; return its JSON result."""
    cmd = [
        sys.executable, os.path.join(HERE, "episode.py"), workload,
        "--seed", str(seed), "--mode", mode, "--trace", str(trace),
        "--checks", str(checks), "--seconds", str(seconds),
    ]
    env = dict(os.environ, **PINNED)
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise EpisodeError(f"{workload} {mode} episode overran the run deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise EpisodeError(
            f"{workload} {mode} episode exited {proc.returncode}:\n"
            + err.decode(errors="replace")[-3000:]
        )
    return json.loads(out.decode().strip().splitlines()[-1])


# ------------------------------------------------------------- end to end
def scaled(values, probes) -> list:
    """Per-tick ``values`` scaled to the nominal host, each by the median
    of the probes run after the ticks within PROBE_WINDOW of it."""
    return [
        value * PROBE_NOMINAL_MS
        / statistics.median(probes[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW + 1])
        for k, value in enumerate(values)
    ]


def measured(result, live) -> list:
    """Indices of the ticks an episode's timings come from: all of them
    on batch workloads."""
    if not live:
        return list(range(len(result["tick_ms"])))
    starts = result["tick_start_s"][:LIVE_TICKS + 1]
    return [
        k for k in range(1, len(starts))
        if starts[k] - starts[k - 1] < 1.5 * LIVE_TICK_S
    ]


def setup_scaled(result) -> float:
    """An episode's set-up time scaled by the probes run beside it."""
    probe_ms = statistics.median(result["setup_probe_ms"])
    return result["setup_s"] * PROBE_NOMINAL_MS / probe_ms


def timed_run(workload, seed, seconds, deadline):
    """Full episodes, then set-up-only episodes; returns (metrics,
    extras, attempted, failed, problems)."""
    full = []
    while len(full) < MIN_FULL_EPISODES[workload] or (
        sum(e["setup_s"] + e["window_s"] for e in full) < seconds
        and len(full) < MAX_FULL_EPISODES
    ):
        full.append(
            episode(workload, seed, "full", checks=int(not full),
                    seconds=seconds, deadline=deadline)
        )
    setup_runs = list(full)
    while len(setup_runs) < SETUP_SAMPLES:
        setup_runs.append(episode(workload, seed, "setup", deadline=deadline))
    setups = [setup_scaled(e) for e in setup_runs]

    problems = [p for e in full for p in e["problems"]]
    first = full[0]["outcome"]
    for e in full:
        if e["outcome"]["thermal_violations"]:
            problems.append(
                f"T > T_limit on {e['outcome']['thermal_violations']} server-ticks"
            )
        if workload != "live-ingest":  # live outcomes depend on timing
            for key, value in e["outcome"].items():
                if first.get(key, value) != value:
                    problems.append(f"{key} not repeatable: {first[key]} then {value}")
    ticks_ms, cpu_ms, events, server_ticks = [], 0.0, 0, 0
    for e in full:
        keep = measured(e, workload == "live-ingest")
        wall = scaled(e["tick_ms"], e["probe_ms"])
        cpu = scaled(e["tick_cpu_ms"], e["probe_ms"])
        ticks_ms += [wall[k] for k in keep]
        cpu_ms += sum(cpu[k] for k in keep)
        events += sum(e["tick_events"][k] for k in keep)
        server_ticks += e["servers"] * len(keep)
    metrics = {
        "setup_s": percentile(setups, 0.5),
        "peak_rss_mb": percentile([e["rss_mb"] for e in full], 0.5),
        "tick_ms_p50": percentile(ticks_ms, 0.5),
        "server_ticks_per_s": server_ticks / (sum(ticks_ms) / 1000.0),
        "events_per_cpu_s": events / (cpu_ms / 1000.0),
    }
    extras = {
        "episodes": full,
        "probes_ms": [p for e in full for p in e["probe_ms"]],
        "setup_samples": len(setups),
        "ticks_timed": len(ticks_ms),
        "tick_ms_p90": percentile(ticks_ms, 0.9),
    }
    if workload == "live-ingest":
        offered = sum(e["offered"] for e in full)
        attempted = offered + 1
        failed = offered - sum(e["events"] for e in full) + bool(problems)
    else:
        attempted = len(full)
        failed = bool(problems)
    return metrics, extras, attempted, failed, problems


def print_timed(workload, metrics, units, extras) -> None:
    full = extras["episodes"]
    notes = {
        "setup_s": f"median of {extras['setup_samples']}",
        "peak_rss_mb": f"median of {len(full)}",
        "tick_ms_p50": f"n={extras['ticks_timed']}",
    }

    def line(name, value, unit, note=""):
        print(f"{workload:13s} {name:20s} {value:14.4f} {unit:6s} {note}")

    for name, unit in units.items():
        line(name, metrics[name], unit, notes.get(name, ""))
    # Printed without a bound from here on (see LAYERS.md); tick_ms_p90
    # is scaled like the metrics above, the rest are as measured.
    line("tick_ms_p90", extras["tick_ms_p90"], "ms", f"n={extras['ticks_timed']}")
    probes = extras["probes_ms"]
    line("host_probe_ms", percentile(probes, 0.5), "ms",
         f"median of {len(probes)}; timings above scaled to {PROBE_NOMINAL_MS:g} ms")
    if workload == "live-ingest":
        acks = [a for e in full for a in e["ack_ms"]]
        late = [x for e in full for x in e["late_ms"]]
        line("ack_ms_p50", percentile(acks, 0.5), "ms", f"n={len(acks)}")
        line("ack_ms_p99", percentile(acks, 0.99), "ms", f"n={len(acks)}")
        line("loadgen.late_ms_p99", percentile(late, 0.99), "ms", f"n={len(late)}")
        line("overruns", sum(e["overruns"] for e in full), "count",
             f"of {sum(len(e['tick_ms']) for e in full)} ticks")
    for e in full:
        if "summary_s" in e:
            line("summary_s", e["summary_s"], "s")
    outcome = full[0]["outcome"]
    line("energy_kwh", outcome["energy_kwh"], "kWh", "first episode")
    line("migrations", outcome["migrations"], "count", "first episode")
    line("dropped_wticks", outcome["dropped_wticks"], "W*tick", "first episode")
    line("thermal_violations", outcome["thermal_violations"], "count", "first episode")
    if "digest" in full[0]:
        print(f"{workload:13s} cross-site moves {outcome['cross_migrations']}, "
              f"full episodes {len(full)}, decision digest {full[0]['digest']}")
    print(f"{workload:13s} env {json.dumps(full[0]['versions'], sort_keys=True)}")


# -------------------------------------------------------------- per layer
def busy_s(result, live):
    """Window time the spans are subtracted from: summed tick time (and
    the summary) for batch, server CPU inside ``LiveRunner.run`` for
    live, whose wall time is paced by the tick clock."""
    return result["cpu_s"] if live else result["window_s"]


def ticks_scaled_s(result, live) -> float:
    """Scaled time of an episode's ticks, which the tracing overhead
    compares: wall time for batch, server CPU for live."""
    times = result["tick_cpu_ms"] if live else result["tick_ms"]
    return sum(scaled(times, result["probe_ms"])) / 1000.0


def traced_run(workload, seed, seconds, deadline, names):
    live = workload == "live-ingest"
    plain = episode(workload, seed, "full", seconds=seconds, deadline=deadline)
    traced = episode(workload, seed, "full", trace=1, checks=1,
                     seconds=seconds, deadline=deadline)
    problems = list(traced["problems"]) + list(traced["guard"])
    if not live and any(
        plain["outcome"][key] != traced["outcome"][key] for key in plain["outcome"]
    ):
        problems.append("tracing changed the run's outcome counters")
    layers = dict(traced["layers"])
    layers["untraced.self_s"] = busy_s(traced, live) - traced["top_level_s"]
    layers["trace.overhead_pct"] = 100.0 * (
        ticks_scaled_s(traced, live) / ticks_scaled_s(plain, live) - 1.0
    )
    layers["loadgen.late_ms_p99"] = percentile(traced["late_ms"], 0.99) if live else 0.0
    metrics = {name: layers[name] for name in names}
    attempted = traced["offered"] + 1 if live else 1
    failed = (traced["offered"] - traced["events"] if live else 0) + bool(problems)
    return metrics, attempted, failed, problems


# ------------------------------------------------------------------- main
def run_workload(workload, seed, seconds, trace) -> dict:
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    end_to_end, per_layer = metric_units()
    print(f"{workload:13s} seed {seed}, trace {trace}", flush=True)
    if trace:
        units = per_layer
        metrics, attempted, failed, problems = traced_run(
            workload, seed, seconds, deadline, units
        )
        for name, unit in units.items():
            print(f"{workload:13s} {name:32s} {metrics[name]:16.6f} {unit}")
    else:
        units = end_to_end
        metrics, extras, attempted, failed, problems = timed_run(
            workload, seed, seconds, deadline
        )
        print_timed(workload, metrics, units, extras)
    for problem in problems:
        print(f"{workload:13s} CHECK FAILED: {problem}")
    print(f"{workload:13s} run took {time.monotonic() - started:.1f} s", flush=True)
    return {
        "correct": not problems and failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in names:
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
        except EpisodeError as error:
            print(f"{workload}: {error}", file=sys.stderr)
            return 1
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
