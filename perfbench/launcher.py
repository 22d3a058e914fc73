"""Server process for the live-ingest workload.

Usage::

    python3 perfbench/launcher.py RESULT_JSON TRACE -- SERVE_ARGS...

Runs ``repro.cli.serve_main(SERVE_ARGS)`` in this process.  It wraps
``LiveRunner.run``, to read the returned ``LiveReport``, the CPU seconds
spent inside the call and the peak RSS when it returns, and
``LiveRunner._tick_once``, to record when each tick starts and how many
events it applies, run the host-speed probe (``episode.Probe``) after
it, and split the CPU time into one share per tick, the probes' own CPU
time left out.  With ``TRACE`` 1 it first installs every layer wrapper
from :mod:`spans`, recording while ``LiveRunner.run`` runs.  Writes
``RESULT_JSON`` when the server exits.
"""

from __future__ import annotations

import glob
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv) -> int:
    result_path, trace, sep, *serve_argv = argv
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: launcher.py RESULT_JSON 0|1 -- SERVE_ARGS...")
    from repro.service.runner import LiveRunner

    import spans
    from episode import Probe

    recorder = spans.Recorder() if trace == "1" else None
    if recorder is not None:
        spans.install(recorder)
    original = LiveRunner.run
    tick_once = LiveRunner._tick_once
    seen = {}
    # Per tick: CPU time when its probe started and ended, probe time;
    # start time and events applied.
    probes = []
    ticks = []

    async def run(self):
        seen["probe"] = Probe()
        if recorder is not None:
            recorder.tick = self.sim.tick
            recorder.active = True
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            report = await original(self)
        finally:
            if recorder is not None:
                recorder.active = False
        cpu1 = time.process_time()
        seen["wall_s"] = time.perf_counter() - wall0
        # CPU from the end of the previous probe to the start of this
        # one; the tail after the last probe goes to the last tick.
        ends = [cpu0] + [end for _start, end, _ms in probes]
        shares = [start - end for (start, _end, _ms), end in zip(probes, ends)]
        if shares:  # a server stopped before its first tick has none
            shares[-1] += cpu1 - ends[-1]
        seen["tick_cpu_ms"] = [x * 1000.0 for x in shares]
        seen["cpu_s"] = sum(shares)
        seen["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        seen["report"] = report
        seen["sim"] = self.sim
        return report

    def tick_and_probe(self):
        started = time.monotonic()
        applied = len(self.report.ingest_latency_s)
        tick_once(self)
        ticks.append((started, len(self.report.ingest_latency_s) - applied))
        start = time.process_time()
        ms = seen["probe"].ms()
        probes.append((start, time.process_time(), ms))

    LiveRunner.run = run
    LiveRunner._tick_once = tick_and_probe
    from repro.cli import serve_main

    code = serve_main(serve_argv)
    report = seen["report"]
    sim = seen["sim"]
    collector = sim.collector
    audit = serve_argv[0]
    result = {
        "cpu_s": seen["cpu_s"],
        "wall_s": seen["wall_s"],
        "rss_mb": seen["rss_mb"],
        "accepted": report.accepted,
        "overruns": report.overruns,
        "tick_wall_ms": report.tick_wall_ms,
        "tick_cpu_ms": seen["tick_cpu_ms"],
        "probe_ms": [ms for _start, _end, ms in probes],
        "tick_start_s": [started for started, _events in ticks],
        "tick_events": [events for _started, events in ticks],
        "queue_wait_ms": [s * 1000.0 for s in report.ingest_latency_s],
        "servers": len(sim.controller.servers),
        "outcome": {
            "energy_kwh": collector.total_energy() * sim.config.delta_d / 3.6e6,
            "migrations": len(collector.migrations),
            "dropped_wticks": collector.total_dropped_power(),
            "thermal_violations": sum(
                server.thermal.violations
                for server in sim.controller.servers.values()
            ),
        },
        "audit_bytes": sum(os.path.getsize(p) for p in glob.glob(audit + "*")),
    }
    if recorder is not None:
        result["layers"] = spans.layer_metrics(recorder)
        result["totals"] = recorder.layer_totals()
        result["top_level_s"] = recorder.top_level_s()
        recorder.write(os.path.join(os.path.dirname(result_path), "spans.jsonl"))
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
