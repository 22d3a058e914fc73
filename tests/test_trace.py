"""Tests for the structured tick-trace observability layer.

The two contracts that matter:

1. tracing disabled (the default) is decision-bit-exact with tracing
   enabled, for all four controllers -- the tracer only *reads*;
2. an enabled trace is faithful: the budget path reconstructed from
   allocation records matches the budgets the controllers actually set.
"""

import json

import pytest

from repro.control_plane import ControlPlaneConfig, LinkProfile, run_distributed
from repro.core import run_willow
from repro.plant_faults import random_plant_schedule, run_resilient
from repro.topology import build_paper_simulation
from repro.trace import (
    NULL_TRACER,
    JsonlTraceWriter,
    MemoryTraceWriter,
    TraceReader,
    Tracer,
    classify_constraint,
    trace_segments,
    tracing,
)

TICKS = 30
SEED = 11


def _decisions(collector):
    """Everything a run decided, as plain comparable values."""
    return (
        [
            (s.time, s.server_id, s.power, s.temperature, s.budget, s.asleep)
            for s in collector.server_samples
        ],
        [
            (m.time, m.vm_id, m.src_id, m.dst_id, m.demand, m.cause)
            for m in collector.migrations
        ],
        [(d.time, d.node_id, d.vm_id, d.power) for d in collector.drops],
        [
            (d.time, d.node_id, d.vm_id, d.power)
            for d in collector.unmatched_deficits
        ],
        list(collector.imbalance),
    )


def _lossy_control_plane():
    return ControlPlaneConfig(
        default_link=LinkProfile(latency_ticks=1, drop_prob=0.2)
    )


def _fault_schedule(tree):
    return random_plant_schedule(
        tree,
        seed=SEED,
        horizon_ticks=TICKS,
        n_crashes=1,
        n_sensor_faults=1,
        n_circuit_trips=1,
    )


# ------------------------------------------------------------ bit-exactness
class TestTracingIsBitExact:
    """Enabled vs disabled tracing must not change a single decision."""

    def test_scalar(self):
        _, off = run_willow(n_ticks=TICKS, seed=SEED)
        _, on = run_willow(
            n_ticks=TICKS, seed=SEED, tracer=Tracer(MemoryTraceWriter())
        )
        assert _decisions(off) == _decisions(on)

    def test_vectorized(self):
        _, off = run_willow(n_ticks=TICKS, seed=SEED, vectorized=True)
        _, on = run_willow(
            n_ticks=TICKS,
            seed=SEED,
            vectorized=True,
            tracer=Tracer(MemoryTraceWriter()),
        )
        assert _decisions(off) == _decisions(on)

    def test_distributed_lossy(self):
        _, off = run_distributed(
            n_ticks=TICKS, seed=SEED, control_plane=_lossy_control_plane()
        )
        _, on = run_distributed(
            n_ticks=TICKS,
            seed=SEED,
            control_plane=_lossy_control_plane(),
            tracer=Tracer(MemoryTraceWriter()),
        )
        assert _decisions(off) == _decisions(on)

    def test_fault_tolerant(self):
        tree = build_paper_simulation()
        _, off = run_resilient(
            tree=tree,
            plant_faults=_fault_schedule(tree),
            n_ticks=TICKS,
            seed=SEED,
        )
        tree2 = build_paper_simulation()
        _, on = run_resilient(
            tree=tree2,
            plant_faults=_fault_schedule(tree2),
            n_ticks=TICKS,
            seed=SEED,
            tracer=Tracer(MemoryTraceWriter()),
        )
        assert _decisions(off) == _decisions(on)


# ------------------------------------------------------------- faithfulness
@pytest.fixture(scope="module", params=["scalar", "vectorized"])
def traced_run(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / f"{request.param}.jsonl"
    tracer = Tracer(JsonlTraceWriter(path))
    controller, collector = run_willow(
        n_ticks=TICKS,
        seed=SEED,
        vectorized=request.param == "vectorized",
        tracer=tracer,
    )
    tracer.close()
    return controller, collector, TraceReader(path)


def test_budget_path_matches_allocated_budgets(traced_run):
    """The leaf record of every budget path equals the budget the
    controller actually set, at every tick, for every server."""
    _, collector, reader = traced_run
    samples = {
        (s.time, s.server_id): s.budget for s in collector.server_samples
    }
    for tick in range(0, TICKS, 5):
        for server_id in reader.run.leaf_ids():
            path = reader.budget_path(server_id, tick)
            assert path, f"no budget path for {server_id}@{tick}"
            leaf = path[-1]
            assert leaf["node"] == server_id
            assert leaf["budget"] == pytest.approx(
                samples[(float(tick), server_id)], abs=1e-9
            )
            # The chain is parent-linked from the root grant down.
            for above, below in zip(path[1:], path[2:]):
                assert below["parent"] == above["node"]


def test_budget_path_sums_respect_parent_budget(traced_run):
    """Sibling allocations in any frame never exceed the divisible
    parent budget they were cut from."""
    _, _, reader = traced_run
    checked = 0
    for frame in reader.run.frames:
        by_parent = {}
        for record in frame.get("alloc", ()):
            by_parent.setdefault(record["parent"], []).append(record)
        for records in by_parent.values():
            total = sum(r["budget"] for r in records)
            assert total <= records[0]["parent_budget"] + 1e-6
            checked += 1
    assert checked > 0


def test_trace_frames_have_expected_sections(traced_run):
    _, collector, reader = traced_run
    frames = reader.run.frames
    assert len(frames) == TICKS
    assert all(f["type"] == "tick" for f in frames)
    # Demand is recorded every tick for every server.
    n_servers = len(reader.run.leaf_ids())
    assert all(len(f["demand"]) == n_servers for f in frames)
    # Allocations happen on the eta1 cadence (tick 0, eta1, 2*eta1...).
    alloc_ticks = [f["tick"] for f in frames if "alloc" in f]
    assert alloc_ticks[0] == 0
    assert len(alloc_ticks) >= TICKS // 8
    # Every tick carries the Eq. 9 imbalance mirror of the collector.
    assert [f["imbalance"] for f in frames] == pytest.approx(
        [w for _, w in collector.imbalance]
    )


def test_constraint_histogram_counts_every_alloc_record(traced_run):
    _, _, reader = traced_run
    counts = reader.constraint_histogram()
    total = sum(
        len(f.get("alloc", ())) for f in reader.run.frames
    )
    assert sum(counts.values()) == total > 0
    leaf_only = reader.constraint_histogram(level=0)
    assert sum(leaf_only.values()) < total


def test_fault_run_trace_records_event_edges(tmp_path):
    tree = build_paper_simulation()
    path = tmp_path / "faulty.jsonl"
    tracer = Tracer(JsonlTraceWriter(path))
    _, collector = run_resilient(
        tree=tree,
        plant_faults=_fault_schedule(tree),
        n_ticks=TICKS,
        seed=SEED,
        tracer=tracer,
    )
    tracer.close()
    reader = TraceReader(path)
    events = reader.events()
    assert len(events) == len(collector.plant_events)
    assert {e["kind"] for e in events} == {
        e.kind for e in collector.plant_events
    }
    # Each event frame matches the collector's recorded time.
    for trace_event, plant_event in zip(events, collector.plant_events):
        assert trace_event["t"] == plant_event.time
        assert trace_event["node"] == plant_event.node_id


def test_distributed_trace_marks_stale_directives(tmp_path):
    path = tmp_path / "lossy.jsonl"
    tracer = Tracer(JsonlTraceWriter(path))
    run_distributed(
        n_ticks=60,
        seed=SEED,
        control_plane=_lossy_control_plane(),
        tracer=tracer,
    )
    tracer.close()
    reader = TraceReader(path)
    allocs = [
        r for f in reader.run.frames for r in f.get("alloc", ())
    ]
    assert allocs
    # Under latency-1 links, directives cascade across tick boundaries:
    # some records carry the older tick their budget was computed at.
    assert any("source_tick" in r for r in allocs)
    # budget_path still resolves for every server.
    for server_id in reader.run.leaf_ids():
        assert reader.budget_path(server_id, reader.last_tick())


# ------------------------------------------------------------------ writers
def test_jsonl_writer_rotates_and_reader_spans_segments(tmp_path):
    path = tmp_path / "rot.jsonl"
    tracer = Tracer(JsonlTraceWriter(path, max_bytes=64 * 1024))
    run_willow(n_ticks=40, seed=SEED, tracer=tracer)
    tracer.close()
    segments = trace_segments(path)
    assert len(segments) > 1
    assert segments[-1] == path
    reader = TraceReader(path)
    assert len(reader.run.frames) == 40
    assert [f["tick"] for f in reader.run.frames] == list(range(40))
    assert reader.budget_path(reader.run.leaf_ids()[0], 39)


def test_jsonl_writer_is_line_delimited_json(tmp_path):
    path = tmp_path / "plain.jsonl"
    tracer = Tracer(JsonlTraceWriter(path, max_bytes=None))
    run_willow(n_ticks=5, seed=SEED, tracer=tracer)
    tracer.close()
    lines = path.read_text().splitlines()
    assert len(lines) == 6  # meta + 5 ticks
    meta = json.loads(lines[0])
    assert meta["type"] == "meta"
    assert {n["id"] for n in meta["nodes"] if n["leaf"]} == {
        s.node_id for s in build_paper_simulation().servers()
    }
    assert json.loads(lines[-1])["type"] == "tick"


def test_trace_segments_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        trace_segments(tmp_path / "absent.jsonl")


# ------------------------------------------------------------------- tracer
def test_null_tracer_is_disabled_and_inert():
    assert NULL_TRACER.enabled is False
    NULL_TRACER.write_meta(None, None)  # must not touch its arguments
    assert NULL_TRACER._frame is None


def test_records_outside_a_frame_are_dropped():
    writer = MemoryTraceWriter()
    tracer = Tracer(writer)
    tracer.record_drop(1, 2, 3.0)
    tracer.record_event("x", 1)
    tracer.flush()
    assert writer.frames == []


def test_classify_constraint():
    kw = dict(leaf=True, circuit_limit=450.0)
    assert classify_constraint(0.0, 10.0, 0.0, **kw) == "zero_cap"
    assert classify_constraint(450.0, 500.0, 450.0, **kw) == "circuit_rating"
    assert classify_constraint(300.0, 500.0, 300.0, **kw) == "thermal_cap"
    assert classify_constraint(300.0, 500.0, 300.0, leaf=False) == (
        "aggregate_cap"
    )
    assert classify_constraint(120.0, 100.0, 450.0, **kw) == "surplus_share"
    assert classify_constraint(100.0, 100.0, 450.0, **kw) == "demand_met"
    assert classify_constraint(80.0, 100.0, 450.0, **kw) == "sibling_share"


def test_collector_forwards_into_open_frame():
    from repro.core.events import Drop, PlantEvent
    from repro.metrics import MetricsCollector

    writer = MemoryTraceWriter()
    tracer = Tracer(writer)
    tracer._run = 0
    collector = MetricsCollector(tracer=tracer)
    tracer.begin_tick(0, 0.0)
    collector.record_drop(Drop(0.0, 5, 9, 12.0))
    collector.record_unmatched(Drop(0.0, 6, 10, 7.0))
    collector.record_plant_event(PlantEvent(0.0, "server_crash", 5))
    collector.record_imbalance(0.0, 4.5)
    tracer.flush()
    (frame,) = writer.frames
    assert frame["drops"] == [[5, 9, 12.0]]
    assert frame["unmatched"] == [[6, 10, 7.0]]
    assert frame["events"] == [
        {"kind": "server_crash", "node": 5, "detail": ""}
    ]
    assert frame["imbalance"] == 4.5


def test_ambient_tracing_context_manager(tmp_path):
    path = tmp_path / "ambient.jsonl"
    with tracing(path) as tracer:
        assert tracer.enabled
        run_willow(n_ticks=5, seed=SEED)  # no tracer kwarg: adopts ambient
    reader = TraceReader(path)
    assert len(reader.run.frames) == 5
    # Outside the block the ambient tracer is NULL again.
    _, collector = run_willow(n_ticks=2, seed=SEED)
    assert collector.tracer is NULL_TRACER


# ---------------------------------------------------------------------- CLI
def test_cli_trace_round_trip(tmp_path, capsys):
    from repro import cli

    trace_path = tmp_path / "run.trace"
    assert (
        cli.main(
            [
                "resilience",
                "--ticks", "40",
                "--seed", "7",
                "--crashes", "2",
                "--trips", "1",
                "--trace", str(trace_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert f"wrote trace to {trace_path}" in out

    # Overview mode.
    assert cli.main(["trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "FaultTolerantWillowController" in out
    assert "binding constraints" in out

    # Per-server causal explanation.
    reader = TraceReader(trace_path)
    server = reader.run.leaf_ids()[0]
    assert (
        cli.main(
            ["trace", str(trace_path), "--server", str(server), "--tick", "20"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "budget path (root -> server)" in out
    assert "datacenter" in out

    # Histogram and fault edges.
    assert cli.main(["trace", str(trace_path), "--histogram", "--events"]) == 0
    out = capsys.readouterr().out
    assert "fault edge(s):" in out
    assert "server_crash" in out


def test_cli_trace_rejects_missing_file(tmp_path, capsys):
    from repro import cli

    assert cli.main(["trace", str(tmp_path / "nope.jsonl")]) == 2
    assert "trace:" in capsys.readouterr().err


# ------------------------------------------------------ federated array sites
def _traced_federation(site_tracing=True):
    """A 2-site solar federation over vectorized site controllers,
    traced at the coordinator level and, with ``site_tracing``, at the
    site level too.

    Traced array sites tick as one-site segments in site-major order;
    without site tracing both sites tick fused in one segment.
    """
    from dataclasses import replace

    from repro.experiments.fig_federation import build_specs
    from repro.federation import build_federation

    specs = [replace(s, vectorized=True) for s in build_specs(2, seed=SEED)]
    fed_writer = MemoryTraceWriter()
    site_writer = MemoryTraceWriter()
    coordinator = build_federation(
        specs,
        n_ticks=TICKS,
        policy="proportional",
        tracer=Tracer(fed_writer),
        site_tracer=Tracer(site_writer) if site_tracing else None,
    )
    coordinator.run(TICKS)
    return coordinator, fed_writer.frames, site_writer.frames


def test_batched_federation_fused_tick_coordinator_frames_match():
    """Coordinator-level tracing alone leaves the fused array tick
    active; its rebalance decisions (grants, cross-site migrations)
    must trace identically to the unfused tick that site tracing
    forces (every site a one-site segment, in site-major order)."""
    fused, fused_frames, _ = _traced_federation(site_tracing=False)
    unfused, unfused_frames, site_frames = _traced_federation()
    assert [seg.global_idx for seg in fused.segments] == [[0, 1]]
    assert [seg.global_idx for seg in unfused.segments] == [[0], [1]]
    assert site_frames
    assert fused.cross_migrations
    assert fused_frames == unfused_frames


def test_federated_site_frames_are_faithful_to_budgets():
    """Budget-path faithfulness, federated: every leaf allocation
    record in a traced array site's tick frame must carry the budget
    that site's controller actually set (cross-checked against the
    collector's per-tick server samples)."""
    coordinator, _, site_frames = _traced_federation()
    tick_frames = [f for f in site_frames if f.get("type") == "tick"]
    n_sites = len(coordinator.sites)
    assert tick_frames, "site tracer recorded no tick frames"
    # Sites tick in order, so frames interleave site0, site1, ... per tick.
    checked = 0
    for position, frame in enumerate(tick_frames):
        site = coordinator.sites[position % n_sites]
        recorded = {
            s.server_id: s.budget
            for s in site.controller.collector.server_samples
            if s.time == frame["t"]
        }
        leaf_ids = set(site.controller.servers.keys())
        for record in frame.get("alloc", ()):
            if record["node"] not in leaf_ids:
                continue
            assert record["node"] in recorded
            assert record["budget"] == recorded[record["node"]]
            checked += 1
    assert checked > 0, "no leaf allocation records to check"
