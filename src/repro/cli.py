"""Command-line interface for custom Willow runs.

Usage::

    python -m repro.cli --utilization 0.5 --ticks 100 --hot 4 --seed 7
    python -m repro.cli --supply-dip 0.4 --dip-at 40 --export-json run.json
    python -m repro.cli --vectorized --ticks 500     # array-based tick path
    python -m repro.cli bench                        # performance benchmarks
    python -m repro.cli bench --quick --out .        # CI smoke variant
    python -m repro.cli degraded --drop 0.2 --latency 1 --crashes 2
    python -m repro.cli resilience --crashes 3 --sensor-faults 4 --trips 1
    python -m repro.cli resilience --trips 2 --trace run.trace
    python -m repro.cli federation --sites 3 --policy greedy-greenest
    python -m repro.cli trace run.trace --server 3 --tick 40
    python -m repro.cli serve audit.jsonl --port 7717
    python -m repro.cli serve audit.jsonl --ticks 5 --tick-seconds 0.1 --load 5000
    python -m repro.cli replay audit.jsonl
    python -m repro.cli serve audit.jsonl --checkpoint-dir run.ckpt
    python -m repro.cli serve audit.jsonl --recover --ticks 20
    python -m repro.cli checkpoint run.ckpt --ticks 200 --seed 7
    python -m repro.cli resume run.ckpt
    python -m repro.cli bench service --quick
    python -m repro.cli --version

Builds the paper's 18-server data center (or a custom balanced tree),
runs the controller, and prints a summary; optional CSV/JSON export.
``bench`` runs the hot-path benchmark harness
(:mod:`repro.benchmarks.harness`) and writes ``BENCH_tick.json`` and
``BENCH_sweep.json``.  ``degraded`` runs the distributed control plane
(:mod:`repro.control_plane`) under lossy transport and fault injection
and reports the divergence from the ideal synchronous controller.
``resilience`` injects *physical* faults (server crashes, lying thermal
sensors, cooling derates, circuit trips) through the sensor-fault-
tolerant controller (:mod:`repro.plant_faults`) and reports QoS loss
and the thermal-safety verdict.  ``federation`` runs N sites on
anti-correlated solar supply with supply-aware cross-site load shifting
(:mod:`repro.federation`).

``serve`` runs Willow-as-a-service (:mod:`repro.service`): a live,
wall-clock-ticked controller fed by external JSON-lines events over TCP
with bounded-queue backpressure, every accepted event recorded in a
replayable audit log.  ``replay`` re-executes an audit log offline and
verifies bit-exact parity with the live run (see docs/service.md).

``checkpoint``/``resume`` run and resume crash-safe batch simulations,
and ``serve --recover`` restores a killed live run from its latest
valid checkpoint plus the audit tail -- both resume bit-exactly (see
docs/checkpointing.md).

Every run subcommand takes ``--trace FILE`` to record the structured
tick trace (:mod:`repro.trace`); ``trace`` replays a recorded file into
a per-node causal explanation -- the budget's path down the tree with
the constraint that bound at each level (see docs/observability.md).

Exit status, for every subcommand: 0 when the run finished; 1 when
``replay`` finds the re-executed run differs from the recorded one;
2 for a usage error -- a bad flag value, a missing input file, an
output directory that does not exist -- reported as one line on stderr
that names the flag, never a traceback (argparse's own errors add its
usage line; ``resume`` first names each corrupt checkpoint it
skipped).  Subcommands import only what they run, so ``serve`` starts
without loading the federation, gym or benchmark code.
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import contextmanager
from typing import List, Optional


class UsageError(Exception):
    """A bad command line: its one-line reason goes to stderr, exit 2."""


def _command(main):
    """The one usage-error handler, around every subcommand's entry
    point: a :class:`UsageError` prints its reason and returns 2."""

    @functools.wraps(main)
    def run(argv: List[str]) -> int:
        try:
            return main(argv)
        except UsageError as error:
            print(error, file=sys.stderr)
            return 2

    return run


def _require(ok, message: str) -> None:
    if not ok:
        raise UsageError(message)


@contextmanager
def _usage_errors(prefix: str, errors=ValueError):
    """Report ``errors`` raised while building from a flag (a library
    constructor rejecting its value, a missing input file) as a usage
    error ``"PREFIX: reason"``."""
    try:
        yield
    except errors as error:
        raise UsageError(f"{prefix}: {error}") from None


def _at_least(args, name: str, low) -> None:
    """``--NAME`` must be unset (None) or at least ``low``."""
    value = getattr(args, name)
    flag = "--" + name.replace("_", "-")
    _require(value is None or value >= low, f"{flag} must be >= {low}")


def _check_utilization(utilization: float) -> None:
    _require(0.0 < utilization <= 1.0, "--utilization must be in (0, 1]")


def _int_list(text: str, flag: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} must be comma-separated ints") from None


def _branching(text: Optional[str]) -> Optional[tuple]:
    """The ``--branching`` factors, or None for the paper's tree."""
    if not text:
        return None
    factors = _int_list(text, "--branching")
    _require(min(factors) >= 1, "--branching factors must be >= 1")
    return factors


def _tree(branching):
    from repro.topology import build_balanced, build_paper_simulation

    if branching:
        return build_balanced(list(branching))
    return build_paper_simulation()


def _check_parent(path: str, flag: str) -> None:
    """Output flags that write a single file (``bench --profile``, the
    ``serve`` audit log) fail up front when the file's directory is
    absent, instead of a traceback deep inside ``open`` -- and without
    silently creating whole directory trees the user probably
    mistyped."""
    from pathlib import Path

    parent = Path(path).expanduser().parent
    _require(
        parent.is_dir(),
        f"{flag}: directory {parent} does not exist "
        f"(create it first, or check the path)",
    )


@contextmanager
def _trace_file(path: Optional[str]):
    """The recording tracer for ``--trace FILE`` (None when unset),
    closed and reported when the run ends."""
    if not path:
        yield None
        return
    from repro.trace import JsonlTraceWriter, Tracer

    tracer = Tracer(JsonlTraceWriter(path))
    try:
        yield tracer
    finally:
        tracer.close()
    print(f"wrote trace to {path}")


def _thermal_safety(collectors, t_limit: float, violations=None) -> str:
    """The ``thermal safety:`` verdict over every server sample of
    ``collectors``; ``violations`` (counted by the controller) must
    also be zero when given."""
    worst = max(
        max(c.server_samples.column("temperature")) for c in collectors
    )
    safe = worst <= t_limit + 1e-6
    counted = ""
    if violations is not None:
        counted = f", {violations} violations"
        safe = safe and not violations
    return (
        f"thermal safety: worst temperature {worst:.2f} C vs "
        f"T_limit {t_limit:.0f} C{counted} ({'OK' if safe else 'VIOLATED'})"
    )


def package_version() -> str:
    """The installed version from package metadata, or the source
    fallback when running uninstalled (PYTHONPATH=src)."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        import repro

        return repro.__version__


def _parser(command: str, description: str) -> argparse.ArgumentParser:
    prog = "python -m repro.cli" + (f" {command}" if command else "")
    return argparse.ArgumentParser(prog=prog, description=description)


#: Flags several subcommands share, by destination name.
_RUN_FLAGS = {
    "ticks": dict(type=int, help="control ticks to run (default %(default)s)"),
    "seed": dict(type=int, help="RNG seed (default %(default)s)"),
    "utilization": dict(
        type=float,
        help="target mean utilization in (0, 1] (default %(default)s)",
    ),
    "branching": dict(
        type=str, metavar="A,B,C",
        help="custom balanced tree, e.g. 3,3,3 (default: paper's 2,3,3)",
    ),
    "supply_factor": dict(
        type=float,
        help="supply as a multiple of fleet circuit capacity "
             "(default %(default)s)",
    ),
    "vms_per_server": dict(
        type=int, metavar="N",
        help="initial VMs per server (default %(default)s)",
    ),
}


def _add_run_flags(parser: argparse.ArgumentParser, **defaults) -> None:
    """Add the shared flags named by ``defaults``, each with this
    subcommand's default; a ``(default, help)`` pair also replaces the
    shared help where the flag means something else here."""
    for name, default in defaults.items():
        spec = dict(_RUN_FLAGS[name], default=default)
        if isinstance(default, tuple):
            spec["default"], spec["help"] = default
        parser.add_argument("--" + name.replace("_", "-"), **spec)


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", type=str, default=None, metavar="FILE",
        help="record a structured tick trace (JSONL; replay with "
             "'python -m repro.cli trace FILE')",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _parser("", "Run Willow on a simulated data center.")
    parser.add_argument(
        "--version", action="version", version=f"repro {package_version()}"
    )
    _add_run_flags(
        parser, utilization=0.5, ticks=100, seed=0, branching=None,
        supply_factor=1.0,
    )
    parser.add_argument(
        "--hot", type=int, default=0, metavar="N",
        help="put the last N servers in a 40C hot zone",
    )
    parser.add_argument(
        "--supply-dip", type=float, default=0.0, metavar="FRAC",
        help="mid-run supply dip fraction (0 disables)",
    )
    parser.add_argument(
        "--dip-at", type=int, default=None, metavar="TICK",
        help="tick the dip starts (default: half the run)",
    )
    parser.add_argument(
        "--supply-csv", type=str, default=None, metavar="FILE",
        help="drive the root budget from a time,budget CSV "
             "(overrides --supply-factor/--supply-dip)",
    )
    parser.add_argument(
        "--no-consolidation", action="store_true",
        help="disable consolidation/sleep",
    )
    parser.add_argument(
        "--vectorized", action="store_true",
        help="use the array-based controller (same results, faster)",
    )
    parser.add_argument(
        "--p-min", type=float, default=None, help="migration margin (W)"
    )
    parser.add_argument(
        "--battery", type=str, default=None, metavar="CAPACITY[:RATE]",
        help="buffer the supply through a UPS battery: capacity in "
             "W*ticks, optional charge/discharge rate in W "
             "(default rate: capacity/8)",
    )
    parser.add_argument(
        "--export-csv", type=str, default=None, metavar="DIR",
        help="write per-record CSVs to DIR",
    )
    parser.add_argument(
        "--export-json", type=str, default=None, metavar="FILE",
        help="write the full run as JSON",
    )
    _add_trace_argument(parser)
    return parser


@_command
def run_main(argv: List[str]) -> int:
    """The default run: one Willow data center, summarised."""
    args = build_parser().parse_args(argv)
    _check_utilization(args.utilization)
    _at_least(args, "ticks", 1)
    _require(0.0 <= args.supply_dip < 1.0, "--supply-dip must be in [0, 1)")
    _at_least(args, "hot", 0)
    branching = _branching(args.branching)

    from repro.core import WillowConfig, run_willow
    from repro.metrics import summarize_run
    from repro.power import step_supply

    tree = _tree(branching)
    servers = tree.servers()
    _require(args.hot <= len(servers), "--hot exceeds server count")
    overrides = {s.name: 40.0 for s in servers[len(servers) - args.hot:]}
    config_kwargs = {}
    if args.no_consolidation:
        config_kwargs["consolidation_enabled"] = False
    if args.p_min is not None:
        config_kwargs["p_min"] = args.p_min
    with _usage_errors("--p-min"):
        config = WillowConfig(**config_kwargs)

    if args.supply_csv:
        from repro.power import supply_from_csv

        with _usage_errors("--supply-csv", (OSError, ValueError)):
            supply = supply_from_csv(args.supply_csv)
    else:
        nominal = args.supply_factor * len(servers) * config.circuit_limit
        segments = [(0.0, nominal)]
        if args.supply_dip > 0:
            _at_least(args, "dip_at", 1)
            dip_at = args.dip_at or max(args.ticks // 2, 1)
            segments.append((float(dip_at), nominal * (1 - args.supply_dip)))
        with _usage_errors("--supply-factor"):
            supply = step_supply(segments)

    if args.battery is not None:
        from repro.power import buffer_supply, parse_battery_spec

        with _usage_errors("--battery"):
            battery = parse_battery_spec(args.battery).build()
        supply = buffer_supply(
            supply,
            battery,
            duration=args.ticks * config.delta_d,
            dt=config.delta_d,
        )

    with _trace_file(args.trace) as tracer:
        _, collector = run_willow(
            tree=tree,
            config=config,
            supply=supply,
            target_utilization=args.utilization,
            n_ticks=args.ticks,
            seed=args.seed,
            ambient_overrides=overrides,
            vectorized=args.vectorized,
            tracer=tracer,
        )

    print(
        f"Willow run: {len(servers)} servers, U={args.utilization:.0%}, "
        f"{args.ticks} ticks, seed {args.seed}"
        + (f", hot zone on last {args.hot}" if args.hot else "")
    )
    print(summarize_run(collector).format())

    if args.export_csv:
        from repro.metrics.export import export_csv

        written = export_csv(collector, args.export_csv)
        print(f"wrote {len(written)} CSV files to {args.export_csv}")
    if args.export_json:
        from repro.metrics.export import export_json

        path = export_json(collector, args.export_json)
        print(f"wrote {path}")
    return 0


def build_bench_parser() -> argparse.ArgumentParser:
    parser = _parser("bench", "Run the hot-path benchmark harness.")
    parser.add_argument(
        "suite", nargs="?", choices=("all", "service", "gym"), default="all",
        help="'service' or 'gym' reruns only that suite and merges it "
             "into an existing BENCH_tick.json (default: all suites)",
    )
    parser.add_argument(
        "--out", type=str, default=".", metavar="DIR",
        help="directory for BENCH_tick.json / BENCH_sweep.json (default .)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke-sized run (fewer ticks/iterations, same schema)",
    )
    parser.add_argument(
        "--sizes", type=str, default=None, metavar="N,M",
        help="comma-separated fleet sizes from {18, 64, 256}",
    )
    parser.add_argument(
        "--profile", type=str, default=None, metavar="FILE",
        help="profile the benchmark run with cProfile and dump pstats "
             "to FILE (inspect with 'python -m pstats FILE')",
    )
    return parser


@_command
def bench_main(argv: List[str]) -> int:
    args = build_bench_parser().parse_args(argv)
    from repro.benchmarks.harness import (
        FLEET_SHAPES,
        format_gym_report,
        format_report,
        format_service_report,
        run_benchmarks,
        run_gym_benchmark,
        run_service_benchmark,
    )

    sizes = None
    if args.sizes:
        sizes = _int_list(args.sizes, "--sizes")
        unknown = [s for s in sizes if s not in FLEET_SHAPES]
        _require(
            not unknown,
            f"--sizes must be from {sorted(FLEET_SHAPES)}, got {unknown}",
        )
    if args.profile:
        _check_parent(args.profile, "--profile")

    def run():
        if args.suite == "service":
            return {"tick": run_service_benchmark(args.out, quick=args.quick)}
        if args.suite == "gym":
            return {"tick": run_gym_benchmark(args.out, quick=args.quick)}
        return run_benchmarks(args.out, quick=args.quick, sizes=sizes)

    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            paths = run()
        finally:
            profiler.disable()
        stats = pstats.Stats(profiler)
        stats.dump_stats(args.profile)
        print(f"wrote profile to {args.profile}; top by cumulative time:")
        stats.sort_stats("cumulative").print_stats(15)
    else:
        paths = run()
    if args.suite in ("service", "gym"):
        import json

        payload = json.loads(paths["tick"].read_text())
        if args.suite == "service":
            print(format_service_report(payload["service"]))
        else:
            print(format_gym_report(payload["gym"]))
        print(f"wrote {paths['tick']}")
    else:
        print(format_report(paths))
        print(f"wrote {paths['tick']} and {paths['sweep']}")
    return 0


def build_degraded_parser() -> argparse.ArgumentParser:
    parser = _parser(
        "degraded",
        "Run the distributed control plane under lossy transport and "
        "fault injection; report divergence from the ideal controller.",
    )
    _add_run_flags(parser, ticks=80, seed=0, utilization=0.5)
    parser.add_argument(
        "--drop", type=float, default=0.0, metavar="P",
        help="per-link message drop probability in [0, 1)",
    )
    parser.add_argument(
        "--latency", type=int, default=0, metavar="TICKS",
        help="per-link base delivery latency in ticks",
    )
    parser.add_argument(
        "--jitter", type=int, default=0, metavar="TICKS",
        help="uniform extra delay in {0..JITTER} ticks per transmission",
    )
    parser.add_argument(
        "--dup", type=float, default=0.0, metavar="P",
        help="per-link duplication probability in [0, 1)",
    )
    parser.add_argument(
        "--reorder", type=float, default=0.0, metavar="P",
        help="probability a message is held back an extra tick",
    )
    parser.add_argument(
        "--crashes", type=int, default=0, metavar="N",
        help="inject N seeded PMU crash/restart windows",
    )
    parser.add_argument(
        "--partitions", type=int, default=0, metavar="N",
        help="inject N seeded link-partition windows",
    )
    parser.add_argument(
        "--ttl", type=int, default=None, metavar="TICKS",
        help="budget staleness TTL (default: 3 supply periods)",
    )
    parser.add_argument(
        "--unreliable", action="store_true",
        help="disable acks/retries (fire-and-forget transport)",
    )
    _add_trace_argument(parser)
    return parser


@_command
def degraded_main(argv: List[str]) -> int:
    args = build_degraded_parser().parse_args(argv)
    _check_utilization(args.utilization)
    _at_least(args, "ticks", 1)
    for name in ("drop", "dup", "reorder"):
        _require(
            0.0 <= getattr(args, name) < 1.0, f"--{name} must be in [0, 1)"
        )
    _require(
        args.latency >= 0 and args.jitter >= 0,
        "--latency/--jitter must be >= 0",
    )
    _require(
        args.crashes >= 0 and args.partitions >= 0,
        "--crashes/--partitions must be >= 0",
    )

    from repro.control_plane import (
        ControlPlaneConfig,
        FaultSchedule,
        LinkProfile,
        StalenessPolicy,
        divergence_summary,
        random_fault_schedule,
        run_distributed,
    )
    from repro.core import WillowConfig, run_willow
    from repro.metrics import summarize_run
    from repro.topology import build_paper_simulation

    with _usage_errors("--ttl"):
        staleness = StalenessPolicy(ttl_ticks=args.ttl)
    config = WillowConfig()
    tree = build_paper_simulation()
    control_plane = ControlPlaneConfig(
        default_link=LinkProfile(
            latency_ticks=args.latency,
            jitter_ticks=args.jitter,
            drop_prob=args.drop,
            dup_prob=args.dup,
            reorder_prob=args.reorder,
        ),
        staleness=staleness,
        reliable=not args.unreliable,
    )
    faults = FaultSchedule()
    if args.crashes or args.partitions:
        faults = random_fault_schedule(
            tree,
            seed=args.seed,
            horizon_ticks=args.ticks,
            n_crashes=args.crashes,
            n_partitions=args.partitions,
        )

    run_kwargs = dict(
        config=config,
        target_utilization=args.utilization,
        n_ticks=args.ticks,
        seed=args.seed,
    )
    with _trace_file(args.trace) as tracer:
        controller, collector = run_distributed(
            tree=tree, control_plane=control_plane, faults=faults,
            tracer=tracer, **run_kwargs
        )
    _, ideal = run_willow(**run_kwargs)

    print(
        f"Distributed Willow run: {len(tree.servers())} servers, "
        f"U={args.utilization:.0%}, {args.ticks} ticks, seed {args.seed}"
    )
    print(
        f"transport: drop={args.drop}, latency={args.latency}t, "
        f"jitter={args.jitter}t, dup={args.dup}, reorder={args.reorder}, "
        f"{'unreliable' if args.unreliable else 'reliable (ack+retry)'}"
    )
    for crash in faults.crashes:
        print(
            f"fault: PMU {crash.node_id} down ticks "
            f"[{crash.start_tick}, {crash.end_tick})"
        )
    for part in faults.partitions:
        print(
            f"fault: link {part.link} partitioned ticks "
            f"[{part.start_tick}, {part.end_tick})"
        )
    print(summarize_run(collector).format())

    stats = controller.transport_stats()
    print(
        f"transport stats: sent={stats.sent} retransmits={stats.retransmits} "
        f"delivered={stats.delivered} dup_delivered={stats.duplicates_delivered}"
    )
    print(
        f"                 dropped: loss={stats.dropped_loss} "
        f"partition={stats.dropped_partition} crash={stats.dropped_crash} "
        f"expired={stats.expired} stale_discards={controller.stale_discards()}"
    )
    summary = divergence_summary(ideal, collector)
    print(
        "divergence vs ideal controller: "
        f"budget {summary['budget_mean']:.2f} W mean / "
        f"{summary['budget_max']:.1f} W max, "
        f"temperature {summary['temperature_mean']:.3f} C mean / "
        f"{summary['temperature_max']:.2f} C max"
    )
    print(_thermal_safety([collector], config.thermal.t_limit))
    return 0


def build_resilience_parser() -> argparse.ArgumentParser:
    parser = _parser(
        "resilience",
        "Run Willow under physical plant faults (crashes, sensor "
        "faults, cooling derates, circuit trips) with the sensor-"
        "fault-tolerant controller; report QoS loss and safety.",
    )
    _add_run_flags(parser, ticks=80, seed=0, utilization=0.5)
    parser.add_argument(
        "--crashes", type=int, default=0, metavar="N",
        help="inject N seeded server crash/restart windows",
    )
    parser.add_argument(
        "--sensor-faults", type=int, default=0, metavar="N",
        help="inject N seeded thermal-sensor fault windows",
    )
    parser.add_argument(
        "--cooling-events", type=int, default=0, metavar="N",
        help="inject N seeded CRAC derate windows",
    )
    parser.add_argument(
        "--trips", type=int, default=0, metavar="N",
        help="inject N seeded branch-circuit trip windows",
    )
    parser.add_argument(
        "--outside", type=float, default=35.0, metavar="DEGC",
        help="outside air temperature mixed in by degraded cooling",
    )
    _add_trace_argument(parser)
    return parser


@_command
def resilience_main(argv: List[str]) -> int:
    args = build_resilience_parser().parse_args(argv)
    _check_utilization(args.utilization)
    _at_least(args, "ticks", 1)
    for name in ("crashes", "sensor_faults", "cooling_events", "trips"):
        _at_least(args, name, 0)

    from repro.core import WillowConfig
    from repro.core.events import MigrationCause
    from repro.metrics import summarize_run
    from repro.plant_faults import (
        PlantFaultSchedule,
        random_plant_schedule,
        run_resilient,
    )
    from repro.topology import build_paper_simulation

    config = WillowConfig()
    tree = build_paper_simulation()
    schedule = PlantFaultSchedule()
    if args.crashes or args.sensor_faults or args.cooling_events or args.trips:
        schedule = random_plant_schedule(
            tree,
            seed=args.seed,
            horizon_ticks=args.ticks,
            n_crashes=args.crashes,
            n_sensor_faults=args.sensor_faults,
            n_cooling_events=args.cooling_events,
            n_circuit_trips=args.trips,
        )

    with _trace_file(args.trace) as tracer:
        controller, collector = run_resilient(
            tree=tree,
            config=config,
            plant_faults=schedule,
            outside_temp=args.outside,
            target_utilization=args.utilization,
            n_ticks=args.ticks,
            seed=args.seed,
            tracer=tracer,
        )

    print(
        f"Resilient Willow run: {len(tree.servers())} servers, "
        f"U={args.utilization:.0%}, {args.ticks} ticks, seed {args.seed}"
    )
    print(
        f"plant faults: crashes={len(schedule.crashes)} "
        f"sensor={len(schedule.sensor_faults)} "
        f"cooling={len(schedule.cooling)} trips={len(schedule.trips)} "
        f"(outside {args.outside:.0f} C)"
    )
    for crash in schedule.crashes:
        print(
            f"fault: server {crash.server_id} crashed ticks "
            f"[{crash.start_tick}, {crash.end_tick})"
        )
    for fault in schedule.sensor_faults:
        print(
            f"fault: sensor {fault.server_id} {fault.kind} ticks "
            f"[{fault.start_tick}, {fault.end_tick})"
        )
    for event in schedule.cooling:
        zone = "facility" if event.zone_id is None else f"zone {event.zone_id}"
        print(
            f"fault: cooling {zone} derate {event.derate:.0%} ticks "
            f"[{event.start_tick}, {event.end_tick})"
        )
    for trip in schedule.trips:
        print(
            f"fault: circuit {trip.node_id} tripped ticks "
            f"[{trip.start_tick}, {trip.end_tick})"
        )
    print(summarize_run(collector).format())
    print(
        f"evacuations          : "
        f"{collector.migration_count(MigrationCause.EVACUATION)}"
    )
    violations = sum(
        s.thermal.violations for s in controller.servers.values()
    )
    print(_thermal_safety([collector], config.thermal.t_limit, violations))
    min_budget = min(collector.server_samples.column("budget"))
    print(
        f"budget floor: {min_budget:.2f} W "
        f"({'OK' if min_budget >= 0 else 'VIOLATED'})"
    )
    return 0


def build_federation_parser() -> argparse.ArgumentParser:
    parser = _parser(
        "federation",
        "Run a geo-federation: N Willow sites on anti-correlated "
        "solar supply, tick-locked, with supply-aware cross-site "
        "load shifting (see docs/federation.md).",
    )
    parser.add_argument(
        "--sites", type=int, default=2, metavar="N",
        help="number of sites (solar humps spread 1/N day apart)",
    )
    _add_run_flags(parser, ticks=192, seed=1, utilization=0.35)
    parser.add_argument(
        "--policy", type=str, default="proportional",
        help="shifting policy: neutral, proportional, greedy-greenest, "
             "price-aware, predictive (default proportional)",
    )
    parser.add_argument(
        "--horizon", type=int, default=0, metavar="K",
        help="lookahead supply periods for --policy predictive "
             "(0 degrades to proportional; default 0)",
    )
    parser.add_argument(
        "--cooling", action="store_true",
        help="charge the modeled cooling-plant overhead against every "
             "site budget and let the predictive planner actuate "
             "supply-air setpoints (incompatible with --vectorized)",
    )
    parser.add_argument(
        "--outside-temp", type=float, default=30.0, metavar="DEG_C",
        help="outside air temperature for --cooling (default 30)",
    )
    parser.add_argument(
        "--wan-cost", type=float, default=None, metavar="W",
        help="WAN migration cost charged to both end servers "
             "(default: 4x the intra-site migration cost)",
    )
    parser.add_argument(
        "--wan-ticks", type=int, default=None, metavar="N",
        help="ticks the WAN cost persists (default: 2x intra-site)",
    )
    parser.add_argument(
        "--battery", type=str, default=None, metavar="CAPACITY[:RATE]",
        help="give every site a UPS battery (starts empty): capacity "
             "in W*ticks, optional rate in W (default: capacity/8)",
    )
    parser.add_argument(
        "--solar-peak", type=float, default=None, metavar="W",
        help="per-site solar peak in W (default: the federation "
             "experiment's sizing)",
    )
    parser.add_argument(
        "--forecast", type=str, default="oracle", metavar="SPEC",
        help="supply forecast model for forecast-aware policies: "
             "oracle, persistence, noisy-oracle:SIGMA[:SEED], "
             "ar1:RHO:SIGMA[:SEED] (default oracle)",
    )
    parser.add_argument(
        "--vectorized", action="store_true",
        help="run every site on the array controller; they tick fused "
             "in one shared fleet block (same results, faster; see "
             "docs/performance.md)",
    )
    _add_trace_argument(parser)
    return parser


@_command
def federation_main(argv: List[str]) -> int:
    args = build_federation_parser().parse_args(argv)
    _at_least(args, "sites", 1)
    _at_least(args, "ticks", 1)
    _check_utilization(args.utilization)
    _at_least(args, "horizon", 0)
    _require(
        not (args.cooling and args.vectorized),
        "--cooling is incompatible with --vectorized",
    )
    # Zero WAN cost or duration is a real ablation; negative ones would
    # silently mean zero.
    _at_least(args, "wan_cost", 0)
    _at_least(args, "wan_ticks", 0)
    _require(
        args.solar_peak is None or args.solar_peak > 0,
        "--solar-peak must be > 0",
    )

    from repro.experiments.fig_federation import SOLAR_PEAK, build_specs
    from repro.federation import (
        POLICIES,
        resolve_forecast_model,
        run_federation,
    )
    from repro.metrics.federation import summarize_federation

    _require(
        args.policy in POLICIES,
        f"--policy must be one of {', '.join(sorted(POLICIES))}",
    )
    if not POLICIES[args.policy].forecast_aware:
        # Lookahead knobs silently do nothing without the planner;
        # reject them instead of pretending they took effect.
        aware = ", ".join(
            sorted(name for name, fn in POLICIES.items() if fn.forecast_aware)
        )
        for flag, given in (
            ("--horizon", args.horizon > 0),
            ("--cooling", args.cooling),
        ):
            _require(
                not given,
                f"{flag} needs a forecast-aware policy ({aware}); "
                f"{args.policy!r} ignores it",
            )
    with _usage_errors("--forecast"):
        forecast = resolve_forecast_model(args.forecast)
    battery_capacity = 0.0
    battery_rate = None
    if args.battery is not None:
        from repro.power import parse_battery_spec

        with _usage_errors("--battery"):
            spec = parse_battery_spec(args.battery)
        battery_capacity = spec.capacity
        battery_rate = spec.max_rate

    specs = build_specs(
        args.sites,
        battery_capacity=battery_capacity,
        battery_rate=battery_rate,
        target_utilization=args.utilization,
        solar_peak=SOLAR_PEAK if args.solar_peak is None else args.solar_peak,
        seed=args.seed,
    )
    cooling = None
    if args.cooling:
        from repro.federation import CoolingControl

        cooling = CoolingControl(outside_temp=args.outside_temp)
    with _trace_file(args.trace) as tracer:
        coordinator = run_federation(
            specs,
            n_ticks=args.ticks,
            policy=args.policy,
            wan_cost_power=args.wan_cost,
            wan_cost_ticks=args.wan_ticks,
            horizon=args.horizon,
            cooling=cooling,
            forecast=forecast,
            tracer=tracer,
            vectorized=args.vectorized,
        )

    print(
        f"Federated Willow run: {args.sites} site(s), "
        f"policy {args.policy}, U={args.utilization:.0%}, "
        f"{args.ticks} ticks, seed {args.seed}"
        + (f", horizon {args.horizon}" if args.horizon else "")
        + (
            f", forecast {args.forecast}"
            if args.forecast != "oracle"
            else ""
        )
        + (f", battery {args.battery} per site" if args.battery else "")
        + (", cooling actuation on" if args.cooling else "")
    )
    print(summarize_federation(coordinator).format())
    print(
        _thermal_safety(
            [site.collector for site in coordinator.sites],
            max(site.config.thermal.t_limit for site in coordinator.sites),
        )
    )
    return 0


def build_trace_parser() -> argparse.ArgumentParser:
    parser = _parser(
        "trace",
        "Replay a recorded tick trace: explain one server's budget "
        "at one tick (the allocation path down the tree with the "
        "binding constraint at each level), or summarise the run.",
    )
    parser.add_argument(
        "file", type=str, metavar="FILE",
        help="trace file recorded with --trace (rotated segments found "
             "automatically)",
    )
    parser.add_argument(
        "--server", type=int, default=None, metavar="ID",
        help="server (leaf) node id to explain (default: first leaf)",
    )
    parser.add_argument(
        "--tick", type=int, default=None, metavar="N",
        help="control tick to explain (default: last recorded)",
    )
    parser.add_argument(
        "--run", type=int, default=-1, metavar="I",
        help="which run in the file when it holds several (default: last)",
    )
    parser.add_argument(
        "--histogram", action="store_true",
        help="print the binding-constraint histogram over the whole run",
    )
    parser.add_argument(
        "--level", type=int, default=None, metavar="L",
        help="restrict --histogram to one tree level",
    )
    parser.add_argument(
        "--events", action="store_true",
        help="print plant / control-plane fault edges",
    )
    return parser


@_command
def trace_main(argv: List[str]) -> int:
    args = build_trace_parser().parse_args(argv)
    from repro.trace import TraceReader

    with _usage_errors("trace", (OSError, ValueError, IndexError)):
        reader = TraceReader(args.file, run=args.run)

    run = reader.run
    did_something = False
    if args.histogram:
        counts = reader.constraint_histogram(level=args.level)
        where = f" at level {args.level}" if args.level is not None else ""
        print(f"binding constraints{where}:")
        for binding, count in sorted(
            counts.items(), key=lambda kv: -kv[1]
        ):
            print(f"  {binding:15s} {count}")
        did_something = True
    if args.events:
        events = reader.events()
        print(f"{len(events)} fault edge(s):")
        for event in events:
            detail = f" ({event['detail']})" if event["detail"] else ""
            print(
                f"  tick {event['tick']:>5} t={event['t']:g}: "
                f"{event['kind']} @ node {event['node']}{detail}"
            )
        did_something = True
    if args.server is not None or args.tick is not None:
        server = args.server
        if server is None:
            leaves = run.leaf_ids()
            _require(leaves, "trace: meta frame lists no leaves")
            server = leaves[0]
        tick = args.tick if args.tick is not None else reader.last_tick()
        with _usage_errors("trace", (KeyError, ValueError)):
            print(reader.explain(server, tick))
        did_something = True
    if not did_something:
        ticks = len(run.frames)
        print(
            f"trace of {run.controller or 'unknown controller'}: "
            f"{len(reader.runs)} run(s), {ticks} tick frame(s) in "
            f"run {args.run}, {len(run.leaf_ids())} servers"
        )
        counts = reader.constraint_histogram()
        total = sum(counts.values()) or 1
        print("binding constraints:")
        for binding, count in sorted(
            counts.items(), key=lambda kv: -kv[1]
        ):
            print(f"  {binding:15s} {count} ({count / total:.0%})")
        events = reader.events()
        print(f"{len(events)} fault edge(s); use --events to list them")
        print(
            "explain a server with: --server ID --tick N "
            f"(servers: {run.leaf_ids()[:6]}..., last tick "
            f"{reader.last_tick() if ticks else 'n/a'})"
        )
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = _parser(
        "serve",
        "Run Willow-as-a-service: a live controller ticked on the "
        "wall clock, fed by JSON-lines events over TCP through a "
        "bounded queue, with every accepted event recorded in a "
        "replayable audit log (see docs/service.md).",
    )
    parser.add_argument(
        "audit", type=str, metavar="AUDIT_FILE",
        help="audit log to write (JSONL; replay with "
             "'python -m repro.cli replay AUDIT_FILE')",
    )
    parser.add_argument(
        "--host", type=str, default="127.0.0.1",
        help="listen address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=0,
        help="listen port (default 0 = ephemeral, printed on start)",
    )
    parser.add_argument(
        "--no-listen", action="store_true",
        help="no TCP server; ingest only via the in-process API "
             "(embedding and tests)",
    )
    _add_run_flags(
        parser,
        ticks=(None, "stop after TICKS ticks (default: run until "
                     "SIGINT/SIGTERM)"),
        utilization=0.5,
        vms_per_server=(4, "initial VMs per server (0 = start empty; "
                           "default %(default)s)"),
        branching=None,
        seed=0,
        supply_factor=1.0,
    )
    parser.add_argument(
        "--tick-seconds", type=float, default=None, metavar="S",
        help="wall-clock seconds per control tick (default: the "
             "config's delta_d = 1 s)",
    )
    parser.add_argument(
        "--queue-bound", type=int, default=8192, metavar="N",
        help="max events pending between ticks; beyond it the gateway "
             "rejects with 429 + retry_after (default 8192)",
    )
    parser.add_argument(
        "--controller", type=str, default="scalar",
        choices=("scalar", "vectorized"),
        help="embedded controller: scalar accepts live fault events, "
             "vectorized is faster at large fleets (default scalar)",
    )
    parser.add_argument(
        "--outside", type=float, default=35.0, metavar="DEGC",
        help="outside air temperature for cooling derates",
    )
    parser.add_argument(
        "--fsync", action="store_true",
        help="fsync the audit log at every tick boundary (crash-"
             "durable, costs a disk round-trip per tick)",
    )
    parser.add_argument(
        "--load", type=int, default=None, metavar="N",
        help="self-load: drive N events through the TCP gateway from "
             "an in-process load generator (smoke runs / benchmarks)",
    )
    parser.add_argument(
        "--checkpoint-dir", type=str, default=None, metavar="DIR",
        help="write periodic hash-verified checkpoints of the live "
             "simulation into DIR (crash recovery: serve --recover)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="checkpoint cadence in ticks (default: the config's "
             "eta2 consolidation cadence)",
    )
    parser.add_argument(
        "--recover", action="store_true",
        help="crash recovery: restore the latest valid checkpoint from "
             "--checkpoint-dir (default AUDIT_FILE.ckpt), replay the "
             "audit tail, and continue the run appending to the same "
             "audit log; spec flags are taken from the audit meta, and "
             "--ticks means additional ticks",
    )
    return parser


@_command
def serve_main(argv: List[str]) -> int:
    args = build_serve_parser().parse_args(argv)
    _at_least(args, "ticks", 1)
    _require(
        args.tick_seconds is None or args.tick_seconds > 0,
        "--tick-seconds must be positive",
    )
    _at_least(args, "queue_bound", 1)
    _require(
        args.load is None or (args.load >= 1 and not args.no_listen),
        "--load needs a positive count and the TCP server "
        "(drop --no-listen)",
    )
    if args.checkpoint_every is not None:
        _at_least(args, "checkpoint_every", 1)
        _require(
            args.checkpoint_dir is not None or args.recover,
            "--checkpoint-every needs --checkpoint-dir",
        )
    _check_parent(args.audit, "audit path")
    branching = _branching(args.branching)

    import asyncio
    import signal

    from repro.checkpoint import CheckpointError, CheckpointStore
    from repro.metrics import summarize_run
    from repro.service import (
        AuditLog,
        IngestGateway,
        LiveRunner,
        LiveSimulation,
        ServiceSpec,
        generate_load,
    )

    checkpoint_dir = args.checkpoint_dir
    if args.recover:
        # The crashed run's spec lives in its audit meta; CLI spec
        # flags (seed, controller, ...) are not consulted.
        if checkpoint_dir is None:
            checkpoint_dir = f"{args.audit}.ckpt"
        from repro.service import AuditRecordError, recover_simulation

        with _usage_errors(
            "serve --recover",
            (FileNotFoundError, AuditRecordError, CheckpointError),
        ):
            recovery = recover_simulation(args.audit, checkpoint_dir)
        print(recovery.format(), flush=True)
        sim = recovery.sim
        max_ticks = sim.tick + args.ticks if args.ticks is not None else None
    else:
        with _usage_errors("serve"):
            spec = ServiceSpec(
                seed=args.seed,
                controller=args.controller,
                branching=branching,
                utilization=args.utilization,
                vms_per_server=args.vms_per_server,
                supply_factor=args.supply_factor,
                outside_temp=args.outside,
            )
        sim = LiveSimulation(spec)
        max_ticks = args.ticks
    _require(
        args.load is None or sim.n_vms,
        "--load needs an initial fleet (--vms-per-server > 0)",
    )
    gateway = IngestGateway(
        queue_bound=args.queue_bound, allow_faults=sim.allow_faults
    )
    audit = AuditLog(args.audit, fsync=args.fsync, append=args.recover)
    checkpoints = (
        CheckpointStore(checkpoint_dir, fsync=args.fsync)
        if checkpoint_dir is not None
        else None
    )
    runner = LiveRunner(
        sim,
        gateway,
        audit,
        tick_seconds=args.tick_seconds,
        max_ticks=max_ticks,
        checkpoints=checkpoints,
        checkpoint_every=args.checkpoint_every,
        write_meta=not args.recover,
    )

    async def run():
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, runner.request_stop)
            except (NotImplementedError, RuntimeError):
                signal.signal(signum, lambda *_: runner.request_stop())
        server = None
        load_task = None
        if not args.no_listen:
            server = await gateway.start_server(args.host, args.port)
            host, port = server.sockets[0].getsockname()[:2]
            print(f"serving on {host}:{port} (audit -> {args.audit})",
                  flush=True)
            if args.load is not None:
                load_task = asyncio.ensure_future(
                    generate_load(
                        host,
                        port,
                        sorted(sim.controller._vm_by_id),
                        total_events=args.load,
                        source="self-load",
                    )
                )
        report = await runner.run()
        if load_task is not None:
            load = await load_task
            print(
                f"self-load: offered {load.offered}, accepted "
                f"{load.accepted}, {load.rejected_full} backpressured "
                f"({load.accepted_per_sec:.0f} accepted events/s)"
            )
        if server is not None:
            server.close()
            await server.wait_closed()
        return report

    report = asyncio.run(run())
    print(report.format())
    print(summarize_run(sim.collector).format())
    return 0


def build_replay_parser() -> argparse.ArgumentParser:
    parser = _parser(
        "replay",
        "Re-execute a live run's audit log offline and verify "
        "bit-exact parity with the recorded decision digest.",
    )
    parser.add_argument(
        "file", type=str, metavar="AUDIT_FILE",
        help="audit log written by 'serve' (rotated segments found "
             "automatically)",
    )
    parser.add_argument(
        "--summary", action="store_true",
        help="also print the replayed run's metrics summary",
    )
    return parser


@_command
def replay_main(argv: List[str]) -> int:
    args = build_replay_parser().parse_args(argv)
    from repro.service import AuditRecordError, replay

    with _usage_errors("replay", (FileNotFoundError, AuditRecordError)):
        result = replay(args.file)
    print(result.format())
    if args.summary:
        from repro.metrics import summarize_run

        print(summarize_run(result.collector).format())
    return 1 if result.parity is False else 0


def _checkpointed_controller(meta: dict):
    """The batch controller a checkpoint's meta describes.

    ``checkpoint`` builds from the meta it writes and ``resume`` from
    the one it reads, through the one run recipe
    (:func:`repro.core.controller.build_willow`): the same tree,
    supply, placement and seed on both sides is what makes
    restore-onto-a-fresh-twin bit-exact.
    """
    from repro.core import WillowConfig, WillowController
    from repro.core.controller import build_willow
    from repro.core.vectorized import VectorizedWillowController
    from repro.power import constant_supply

    tree = _tree(meta.get("branching"))
    config = WillowConfig()
    with _usage_errors("--supply-factor"):
        supply = constant_supply(
            meta["supply_factor"] * len(tree.servers()) * config.circuit_limit
        )
    return build_willow(
        VectorizedWillowController if meta["vectorized"] else WillowController,
        tree=tree,
        config=config,
        supply=supply,
        target_utilization=meta["utilization"],
        seed=meta["seed"],
        vms_per_server=meta["vms_per_server"],
    )


def build_checkpoint_parser() -> argparse.ArgumentParser:
    parser = _parser(
        "checkpoint",
        "Run a batch Willow simulation while writing periodic "
        "hash-verified checkpoints; resume it bit-exactly with "
        "'python -m repro.cli resume DIR' (see docs/checkpointing.md).",
    )
    parser.add_argument(
        "dir", type=str, metavar="DIR",
        help="checkpoint directory (created if absent)",
    )
    _add_run_flags(
        parser, ticks=100, seed=0, utilization=0.5, branching=None,
        supply_factor=1.0, vms_per_server=4,
    )
    parser.add_argument(
        "--every", type=int, default=None, metavar="N",
        help="checkpoint cadence in ticks (default: the config's eta2 "
             "consolidation cadence)",
    )
    parser.add_argument(
        "--vectorized", action="store_true",
        help="use the array-based controller",
    )
    parser.add_argument(
        "--keep", type=int, default=None, metavar="N",
        help="retain only the newest N checkpoints (default: all)",
    )
    parser.add_argument(
        "--fsync", action="store_true",
        help="fsync every checkpoint (crash-durable)",
    )
    return parser


@_command
def checkpoint_main(argv: List[str]) -> int:
    args = build_checkpoint_parser().parse_args(argv)
    _at_least(args, "ticks", 1)
    _at_least(args, "every", 1)
    _check_utilization(args.utilization)
    _at_least(args, "vms_per_server", 1)
    branching = _branching(args.branching)

    from repro.checkpoint import CheckpointStore, Checkpointer
    from repro.metrics import summarize_run
    from repro.service.simulation import decision_digest

    with _usage_errors("--keep"):
        store = CheckpointStore(args.dir, fsync=args.fsync, keep=args.keep)
    # The meta rides inside every checkpoint header so `resume` can
    # rebuild the identical twin without any side-channel.
    meta = {
        "ticks": args.ticks,
        "seed": args.seed,
        "vectorized": args.vectorized,
        "utilization": args.utilization,
        "branching": list(branching) if branching else None,
        "supply_factor": args.supply_factor,
        "vms_per_server": args.vms_per_server,
    }
    controller = _checkpointed_controller(meta)
    checkpointer = Checkpointer(store, every=args.every, meta=meta)
    checkpointer.attach(controller)
    collector = controller.run(args.ticks)
    print(
        f"checkpointed run: {args.ticks} tick(s), seed {args.seed}, "
        f"{len(checkpointer.saved)} checkpoint(s) at ticks "
        f"{checkpointer.saved} -> {args.dir}"
    )
    print(f"decision digest: {decision_digest(collector)}")
    print(summarize_run(collector).format())
    return 0


def build_resume_parser() -> argparse.ArgumentParser:
    parser = _parser(
        "resume",
        "Resume a checkpointed batch run from its latest valid "
        "checkpoint (corrupt or other-version files are skipped and "
        "named) and run it to completion; the decision digest "
        "matches an uninterrupted run bit-exactly.",
    )
    parser.add_argument(
        "dir", type=str, metavar="DIR",
        help="checkpoint directory written by 'checkpoint'",
    )
    parser.add_argument(
        "--at", type=int, default=None, metavar="TICK",
        help="resume from the checkpoint at this exact tick instead of "
             "the latest valid one",
    )
    _add_run_flags(
        parser,
        ticks=(None, "total ticks to run to (default: the run length "
                     "recorded when the checkpoints were written)"),
    )
    return parser


@_command
def resume_main(argv: List[str]) -> int:
    args = build_resume_parser().parse_args(argv)
    from pathlib import Path

    from repro.checkpoint import (
        CheckpointCorruptError,
        CheckpointError,
        CheckpointStore,
        describe_skip,
    )
    from repro.metrics import summarize_run
    from repro.service.simulation import decision_digest

    _require(
        Path(args.dir).is_dir(),
        f"resume: {args.dir} is not a directory (run "
        f"'python -m repro.cli checkpoint {args.dir}' first?)",
    )
    store = CheckpointStore(args.dir)
    with _usage_errors(
        "resume", (FileNotFoundError, PermissionError, CheckpointError)
    ), _usage_errors("resume: corrupt checkpoint", CheckpointCorruptError):
        if args.at is not None:
            document = store.load(args.at)
        else:
            document = store.latest_valid()
    out = sys.stdout if document is not None else sys.stderr
    for path, error in store.skipped:
        print(f"resume: {describe_skip(path, error)}", file=out)
    _require(
        document is not None,
        f"resume: no valid checkpoint found in {args.dir}",
    )
    meta = document["meta"]
    required = ("ticks", "seed", "vectorized", "utilization",
                "supply_factor", "vms_per_server")
    _require(
        all(key in meta for key in required),
        f"resume: checkpoint at tick {document['tick']} has no "
        f"rebuild recipe in its meta (written by 'checkpoint'? "
        f"service checkpoints are resumed with 'serve --recover')",
    )
    total_ticks = args.ticks if args.ticks is not None else meta["ticks"]
    _require(
        total_ticks >= document["tick"],
        f"resume: --ticks {total_ticks} is before the checkpoint "
        f"at tick {document['tick']}",
    )
    controller = _checkpointed_controller(meta)
    with _usage_errors("resume", CheckpointError):
        controller.restore_state(document["state"])
    remaining = total_ticks - document["tick"]
    print(
        f"resumed from checkpoint at tick {document['tick']} "
        f"({document['path']}); running {remaining} more tick(s)"
    )
    collector = controller.run(remaining)
    print(f"decision digest: {decision_digest(collector)}")
    print(summarize_run(collector).format())
    return 0


def build_gym_parser() -> argparse.ArgumentParser:
    parser = _parser(
        "gym",
        "Train learned federation schedulers in the gym environment "
        "and score them against the shipped policies on one "
        "scenario (see docs/gym.md).",
    )
    parser.add_argument(
        "--sites", type=int, default=2, metavar="N",
        help="federation size (default 2)",
    )
    parser.add_argument(
        "--windows", type=int, default=23, metavar="W",
        help="decision windows per episode (default 23 = one solar day)",
    )
    parser.add_argument(
        "--horizon", type=int, default=4, metavar="K",
        help="forecast steps in the observation (default 4)",
    )
    _add_run_flags(
        parser,
        seed=(0, "scenario seed (default %(default)s)"),
        utilization=0.35,
    )
    parser.add_argument(
        "--agent-seed", type=int, default=0,
        help="agent RNG seed (default 0)",
    )
    parser.add_argument(
        "--iterations", type=int, default=2, metavar="I",
        help="CEM iterations (default 2)",
    )
    parser.add_argument(
        "--population", type=int, default=6, metavar="P",
        help="CEM population per iteration (default 6)",
    )
    parser.add_argument(
        "--episodes", type=int, default=4, metavar="E",
        help="bandit training episodes (default 4)",
    )
    parser.add_argument(
        "--battery", type=float, default=0.0, metavar="CAPACITY",
        help="per-site UPS capacity in W*ticks (default 0 = none)",
    )
    parser.add_argument(
        "--forecast", type=str, default="oracle", metavar="SPEC",
        help="forecast model behind the observations (default oracle)",
    )
    parser.add_argument(
        "--no-bandit", action="store_true",
        help="skip the policy-switching bandit rows",
    )
    return parser


@_command
def gym_main(argv: List[str]) -> int:
    args = build_gym_parser().parse_args(argv)
    _at_least(args, "sites", 1)
    _at_least(args, "windows", 1)
    _at_least(args, "horizon", 0)
    _at_least(args, "iterations", 1)
    _at_least(args, "population", 2)
    _at_least(args, "episodes", 1)
    _check_utilization(args.utilization)
    _at_least(args, "battery", 0)
    from repro.federation import resolve_forecast_model

    with _usage_errors("--forecast"):
        resolve_forecast_model(args.forecast)

    from repro.gym import GymConfig, compare

    config = GymConfig(
        n_sites=args.sites,
        windows=args.windows,
        horizon=args.horizon,
        target_utilization=args.utilization,
        battery_capacity=args.battery,
        forecast=args.forecast,
    )
    rows = compare(
        config,
        scenario_seed=args.seed,
        agent_seed=args.agent_seed,
        iterations=args.iterations,
        population=args.population,
        bandit_episodes=args.episodes,
        with_bandit=not args.no_bandit,
    )
    print(
        f"Gym schedulers: {args.sites} site(s), {args.windows} windows, "
        f"K={args.horizon}, scenario seed {args.seed}"
        + (f", forecast {args.forecast}" if args.forecast != "oracle" else "")
    )
    print(
        f"{'scheduler':>16}  {'dropped':>10}  {'WAN energy':>10}  "
        f"{'moves':>5}  {'violations':>10}  notes"
    )
    for name, row in rows.items():
        notes = ""
        if "theta" in row:
            notes = (
                f"theta=({row['theta'][0]:.2f}, {row['theta'][1]:.2f})"
            )
        if "arm" in row:
            notes = f"arm={row['arm']}"
        print(
            f"{name:>16}  {row['dropped']:>10.0f}  "
            f"{row['wan_energy']:>10.0f}  {row['moves']:>5}  "
            f"{row['violations']:>10.0f}  {notes}"
        )
    violations = sum(row["violations"] for row in rows.values())
    print(
        f"thermal safety: {'OK' if violations == 0 else 'VIOLATED'} "
        f"({violations:.0f} violation ticks across all schedulers)"
    )
    return 0


#: ``python -m repro.cli NAME ...`` runs ``SUBCOMMANDS[NAME]``; any
#: other first argument is a flag of the default run (:func:`run_main`).
SUBCOMMANDS = {
    "bench": bench_main,
    "degraded": degraded_main,
    "resilience": resilience_main,
    "federation": federation_main,
    "gym": gym_main,
    "trace": trace_main,
    "serve": serve_main,
    "replay": replay_main,
    "checkpoint": checkpoint_main,
    "resume": resume_main,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    return run_main(argv)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
