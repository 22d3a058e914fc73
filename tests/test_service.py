"""Tests for Willow-as-a-service: ingest, live ticking, replay parity.

The two contracts the subsystem stands on are tested end to end here:

* **Backpressure** -- the pending queue is bounded; a burst of 10x the
  bound gets exactly ``bound`` acceptances and 429-style rejections
  with a ``retry_after`` hint for the rest, per-source accounted.
* **Replayability** -- a live run's audit log, re-executed offline,
  reproduces the controller's decisions bit-exactly (equal decision
  digests), including under arrivals, departures, supply steps and
  plant-fault edges, for both embedded controllers.

Plus graceful shutdown (in-flight events drained, ``end`` record
written, exit 0; SIGINT mid-run never corrupts the JSONL) and the
concurrency/durability contract of the shared JSONL writer.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.service import (
    AuditLog,
    AuditRecordError,
    EventValidationError,
    IngestGateway,
    LiveRunner,
    LiveSimulation,
    MutableSupply,
    ServiceSpec,
    decision_digest,
    read_audit,
    replay,
    validate_event,
)
from repro.trace.writer import JsonlTraceWriter, trace_segments

REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------- validation
@pytest.mark.parametrize(
    "event",
    [
        {"type": "vm_arrival"},
        {"type": "vm_arrival", "vm_id": 7, "host": "server-3", "demand": 10.5},
        {"type": "vm_arrival", "app": "app-2", "source": "tester"},
        {"type": "vm_arrival", "app": {"name": "x", "mean_power": 9.0}},
        {"type": "vm_departure", "vm_id": 0},
        {"type": "demand_sample", "vm_id": 3, "demand": 0.0},
        {"type": "supply_update", "budget": 1234.5},
        {"type": "fault", "kind": "server_crash", "server": "server-1"},
        {"type": "fault", "kind": "server_restart", "server": 5},
        {"type": "fault", "kind": "circuit_trip", "node": 1, "ticks": 4},
        {"type": "fault", "kind": "circuit_restore", "node": "dc"},
        {"type": "fault", "kind": "cooling_derate", "derate": 0.5},
        {"type": "fault", "kind": "cooling_restore"},
    ],
)
def test_valid_events_accepted(event):
    normalized = validate_event(event)
    assert normalized["type"] == event["type"]


@pytest.mark.parametrize(
    "event",
    [
        "not a dict",
        {"type": "nope"},
        {"type": "vm_arrival", "bogus": 1},
        {"type": "vm_arrival", "vm_id": -1},
        {"type": "vm_arrival", "demand": float("nan")},
        {"type": "vm_arrival", "app": "no-such-app"},
        {"type": "vm_arrival", "app": {"mean_power": 3.0}},
        {"type": "vm_departure"},
        {"type": "demand_sample", "vm_id": 1},
        {"type": "demand_sample", "vm_id": 1, "demand": -2.0},
        {"type": "demand_sample", "vm_id": True, "demand": 1.0},
        {"type": "supply_update"},
        {"type": "supply_update", "budget": float("inf")},
        {"type": "fault", "kind": "nope"},
        {"type": "fault", "kind": "server_crash"},
        {"type": "fault", "kind": "circuit_trip", "node": 1, "ticks": 0},
        {"type": "fault", "kind": "cooling_derate", "derate": 1.5},
        {"type": "demand_sample", "vm_id": 1, "demand": 2.0, "source": ""},
    ],
)
def test_invalid_events_rejected(event):
    with pytest.raises(EventValidationError):
        validate_event(event)


def test_fault_events_need_scalar_controller():
    event = {"type": "fault", "kind": "server_crash", "server": "server-1"}
    validate_event(event, allow_faults=True)
    with pytest.raises(EventValidationError, match="vectorized"):
        validate_event(event, allow_faults=False)


def test_spec_meta_round_trip():
    spec = ServiceSpec(
        seed=3, controller="vectorized", branching=(3, 3),
        utilization=0.4, vms_per_server=2, supply_factor=0.8,
    )
    assert ServiceSpec.from_meta(spec.to_meta()) == spec
    # JSON round-trip too: the meta record travels through the audit log.
    assert ServiceSpec.from_meta(json.loads(json.dumps(spec.to_meta()))) == spec


def test_mutable_supply():
    supply = MutableSupply(100.0)
    assert supply.at(0.0) == supply.at(99.0) == 100.0
    supply.set(40.0)
    assert supply.at(5.0) == 40.0
    with pytest.raises(ValueError):
        MutableSupply(-1.0)


# -------------------------------------------------------------- backpressure
def test_burst_10x_queue_bound_backpressured():
    bound = 50
    gateway = IngestGateway(queue_bound=bound)
    gateway.next_tick_eta = gateway._clock() + 0.25
    responses = [
        gateway.submit(
            {"type": "demand_sample", "vm_id": i, "demand": 1.0},
            source="burst",
        )
        for i in range(10 * bound)
    ]
    accepted = [r for r in responses if r["status"] == "accepted"]
    rejected = [r for r in responses if r["status"] == "rejected"]
    assert len(accepted) == bound
    assert len(rejected) == 9 * bound
    assert all(r["code"] == 429 for r in rejected)
    assert all(0.0 <= r["retry_after"] <= 0.25 for r in rejected)
    assert gateway.pending_count() == bound
    # Per-source accounting saw every outcome.
    stats = gateway.stats()
    assert stats["sources"]["burst"]["accepted"] == bound
    assert stats["sources"]["burst"]["rejected_full"] == 9 * bound
    assert stats["sources"]["burst"]["accept_rate_per_sec"] > 0
    # Draining frees the whole bound again.
    assert len(gateway.drain()) == bound
    assert gateway.submit(
        {"type": "supply_update", "budget": 1.0}
    )["status"] == "accepted"


def test_invalid_events_counted_per_source():
    gateway = IngestGateway(queue_bound=4)
    response = gateway.submit({"type": "nope"}, source="fuzz")
    assert response["code"] == 400
    assert gateway.rejected_invalid == 1
    assert gateway.stats()["sources"]["fuzz"]["rejected_invalid"] == 1


def test_retry_after_without_worker_uses_default():
    gateway = IngestGateway(queue_bound=1)
    gateway.submit({"type": "supply_update", "budget": 1.0})
    rejected = gateway.submit({"type": "supply_update", "budget": 2.0})
    assert rejected["retry_after"] == gateway.default_retry_after


# ------------------------------------------------------------- event mapping
def _sim(controller="scalar", **kwargs):
    return LiveSimulation(ServiceSpec(seed=1, controller=controller, **kwargs))


def test_arrival_departure_demand_mapping():
    sim = _sim()
    n0 = sim.n_vms
    result = sim.apply({"type": "vm_arrival", "demand": 25.0})
    assert result.applied
    assert sim.n_vms == n0 + 1
    new_id = sim._next_vm_id - 1
    vm = sim.controller._vm_by_id[new_id]
    assert vm.current_demand == 25.0
    assert vm.vm_id in sim.controller.servers[vm.host_id].vms

    assert sim.apply(
        {"type": "vm_arrival", "vm_id": new_id}
    ).reason == "vm_id_taken"
    assert sim.apply(
        {"type": "vm_arrival", "host": "no-such-node"}
    ).reason == "unknown_host"

    assert sim.apply(
        {"type": "demand_sample", "vm_id": new_id, "demand": 70.5}
    ).applied
    assert vm.current_demand == 70.5
    assert sim.apply(
        {"type": "demand_sample", "vm_id": 10_000, "demand": 1.0}
    ).reason == "unknown_vm"

    assert sim.apply({"type": "vm_departure", "vm_id": new_id}).applied
    assert sim.n_vms == n0
    assert sim.apply(
        {"type": "vm_departure", "vm_id": new_id}
    ).reason == "unknown_vm"
    assert sim.applied["vm_arrival"] == 1
    assert sim.ignored["vm_departure:unknown_vm"] == 1


def test_explicit_host_by_name_and_id():
    sim = _sim()
    by_name = sim.apply({"type": "vm_arrival", "host": "server-4"})
    assert by_name.applied
    leaf_id = sim.tree.by_name("server-4").node_id
    by_id = sim.apply({"type": "vm_arrival", "host": leaf_id})
    assert by_id.applied
    host = sim.controller.servers[leaf_id]
    new_ids = sorted(host.vms)[-2:]
    assert all(sim.controller._vm_by_id[i].host_id == leaf_id for i in new_ids)


def test_supply_update_changes_root_budget():
    sim = _sim()
    assert sim.apply({"type": "supply_update", "budget": 123.0}).applied
    assert sim.supply.at(sim.tick) == 123.0


def test_fault_mapping_crash_and_restart():
    sim = _sim()
    server_id = sim.tree.by_name("server-1").node_id
    assert sim.apply(
        {"type": "fault", "kind": "server_restart", "server": "server-1"}
    ).reason == "not_crashed"
    assert sim.apply(
        {"type": "fault", "kind": "server_crash", "server": "server-1"}
    ).applied
    assert sim.controller.plant_faults.is_crashed(server_id, sim.tick)
    assert sim.apply(
        {"type": "fault", "kind": "server_crash", "server": "server-1"}
    ).reason == "already_crashed"
    sim.step()
    sim.step()
    assert sim.apply(
        {"type": "fault", "kind": "server_restart", "server": "server-1"}
    ).applied
    assert not sim.controller.plant_faults.is_crashed(server_id, sim.tick)


def test_fault_mapping_trip_and_cooling():
    sim = _sim()
    assert sim.apply(
        {"type": "fault", "kind": "circuit_trip", "node": 1, "ticks": 2}
    ).applied
    assert 1 in sim.controller.plant_faults.tripped_roots(sim.tick)
    assert sim.apply(
        {"type": "fault", "kind": "cooling_derate", "derate": 0.6}
    ).applied
    sim.step()
    assert sim.apply(
        {"type": "fault", "kind": "cooling_restore"}
    ).applied


def test_vectorized_sim_rejects_faults_as_noop():
    sim = _sim(controller="vectorized")
    result = sim.apply(
        {"type": "fault", "kind": "server_crash", "server": "server-1"}
    )
    assert not result.applied
    assert result.reason == "faults_unsupported"


@pytest.mark.parametrize(
    "events",
    [
        # A hot arrival overloads its host: the next tick migrates.
        [{"type": "vm_arrival", "host": "server-2", "demand": 300.0}],
        # A departure shrinks the placement; a demand spike elsewhere
        # forces the migrating tick.
        [
            {"type": "vm_departure", "vm_id": 3},
            {"type": "demand_sample", "vm_id": 10, "demand": 300.0},
        ],
    ],
    ids=["vm_arrival", "vm_departure"],
)
def test_vectorized_sim_migrates_after_churn_like_scalar(events):
    """Live churn changes the placement's length and order; the
    vectorized sim's next migrating tick must still decide exactly as
    the scalar sim does."""
    collectors = []
    for controller in ("scalar", "vectorized"):
        sim = _sim(controller=controller)
        sim.step()
        for event in events:
            assert sim.apply(event).applied
        for _ in range(4):
            sim.step()
        collectors.append(sim.collector)
    scalar, vector = collectors
    assert scalar.migrations, "the churn must force a migrating tick"
    key = lambda m: (m.time, m.vm_id, m.src_id, m.dst_id, m.cause, m.demand)
    assert [key(m) for m in vector.migrations] == [
        key(m) for m in scalar.migrations
    ]
    drop = lambda d: (d.time, d.node_id, d.vm_id, d.power)
    assert [drop(d) for d in vector.drops] == [drop(d) for d in scalar.drops]
    raw = lambda s: (s.time, s.server_id, s.demand)
    assert [raw(s) for s in vector.server_samples] == [
        raw(s) for s in scalar.server_samples
    ]


def test_internal_errors_degrade_to_counted_noop():
    sim = _sim()
    # A validated-shape event with a hostile payload must never raise
    # out of apply() -- live and replay both see the same no-op.
    result = sim.apply({"type": "demand_sample"})
    assert not result.applied
    assert result.reason == "internal_error"
    assert sim.ignored["demand_sample:internal_error"] == 1


# ------------------------------------------------------- live vs replay
def _drive_live(tmp_path, controller, feeder, *, ticks=10, name="audit.jsonl"):
    """Run a live runner with a feeder coroutine; return (path, report)."""
    path = tmp_path / name
    sim = LiveSimulation(ServiceSpec(seed=2, controller=controller))
    gateway = IngestGateway(
        queue_bound=256, allow_faults=sim.allow_faults
    )
    runner = LiveRunner(
        sim, gateway, AuditLog(path), tick_seconds=0.02, max_ticks=ticks
    )

    async def drive():
        report, _ = await asyncio.gather(runner.run(), feeder(gateway, runner))
        return report

    return path, asyncio.run(drive())


async def _mixed_feed(gateway, runner):
    await asyncio.sleep(0.005)
    for i, event in enumerate(
        [
            {"type": "demand_sample", "vm_id": 0, "demand": 90.0},
            {"type": "vm_arrival", "demand": 42.0, "app": "app-2"},
            {"type": "supply_update", "budget": 2500.0},
            {"type": "vm_departure", "vm_id": 3},
            {"type": "demand_sample", "vm_id": 1, "demand": 0.0},
            {"type": "vm_arrival", "host": "server-2", "demand": 12.0},
            {"type": "supply_update", "budget": 5200.0},
            {"type": "vm_departure", "vm_id": 999},  # no-op, still audited
        ]
    ):
        response = gateway.submit(event, source="test")
        assert response["status"] == "accepted", response
        if i % 3 == 2:
            await asyncio.sleep(0.03)


async def _fault_feed(gateway, runner):
    await asyncio.sleep(0.005)
    for event in [
        {"type": "fault", "kind": "server_crash", "server": "server-1"},
        {"type": "fault", "kind": "cooling_derate", "derate": 0.7,
         "ramp_ticks": 1},
        {"type": "demand_sample", "vm_id": 2, "demand": 130.0},
    ]:
        assert gateway.submit(event)["status"] == "accepted"
    await asyncio.sleep(0.06)
    assert gateway.submit(
        {"type": "fault", "kind": "server_restart", "server": "server-1"}
    )["status"] == "accepted"


@pytest.mark.parametrize("controller", ["scalar", "vectorized"])
def test_live_replay_bit_exact(tmp_path, controller):
    path, report = _drive_live(tmp_path, controller, _mixed_feed)
    assert report.accepted == 8
    result = replay(path)
    assert result.parity is True
    assert result.digest == report.digest
    assert result.ticks == report.ticks
    assert result.apply_mismatches == 0
    assert result.events_ignored == 1  # the vm_departure of 999


def test_live_replay_bit_exact_with_faults(tmp_path):
    path, report = _drive_live(tmp_path, "scalar", _fault_feed)
    assert report.applied.get("fault", 0) >= 3
    result = replay(path)
    assert result.parity is True
    assert result.digest == report.digest
    # The fault edges made it into the decision tables on both sides.
    assert result.collector.plant_events


def test_live_run_without_events_matches_replay(tmp_path):
    async def silent(gateway, runner):
        return None

    path, report = _drive_live(tmp_path, "scalar", silent, ticks=5)
    result = replay(path)
    assert result.parity is True
    assert result.ticks == 5


# --------------------------------------------------------- graceful shutdown
def test_graceful_stop_drains_inflight_events(tmp_path):
    path = tmp_path / "audit.jsonl"
    sim = LiveSimulation(ServiceSpec(seed=0))
    gateway = IngestGateway(queue_bound=64)
    runner = LiveRunner(
        sim, gateway, AuditLog(path), tick_seconds=5.0  # never fires on its own
    )

    async def drive():
        async def stopper():
            await asyncio.sleep(0.01)
            for i in range(5):
                gateway.submit(
                    {"type": "demand_sample", "vm_id": i, "demand": 33.0}
                )
            runner.request_stop()

        report, _ = await asyncio.gather(runner.run(), stopper())
        return report

    report = asyncio.run(drive())
    assert report.stopped_early
    assert report.ticks == 1  # exactly the final drain tick
    assert report.applied["demand_sample"] == 5
    document = read_audit(path)
    assert document["end"] is not None
    assert document["end"]["digest"] == report.digest
    assert len(document["events"]) == 5
    assert replay(path).parity is True


def test_sigint_subprocess_exits_zero_with_parseable_audit(tmp_path):
    audit = tmp_path / "audit.jsonl"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", str(audit),
            "--tick-seconds", "0.05",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        line = process.stdout.readline()
        assert "serving on" in line
        time.sleep(0.4)  # let a few ticks land, then interrupt mid-run
        process.send_signal(signal.SIGINT)
        out, err = process.communicate(timeout=15)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, err
    assert "decision digest:" in out
    # Every line of the audit log is complete, parseable JSON.
    for segment in trace_segments(audit):
        for raw in segment.read_text().splitlines():
            json.loads(raw)
    document = read_audit(audit)
    assert document["truncated_lines"] == 0
    assert document["end"] is not None
    assert replay(audit).parity is True


# ----------------------------------------------------------------- audit log
def test_read_audit_tolerates_truncated_tail(tmp_path):
    path = tmp_path / "audit.jsonl"
    log = AuditLog(path)
    log.write_meta(ServiceSpec().to_meta())
    log.write_event(0, 1, "x", {"type": "supply_update", "budget": 1.0},
                    applied=True)
    log.close()
    with path.open("a") as handle:
        handle.write('{"kind": "event", "tick": 1, "seq"')  # hard kill
    document = read_audit(path)
    assert document["truncated_lines"] == 1
    assert len(document["events"]) == 1


def test_read_audit_tolerates_torn_line_in_middle_segment(tmp_path):
    # A crash + append-mode recovery leaves the torn line in a segment
    # that later rotation pushes into the *middle* of the read order;
    # the reader must tolerate it anywhere, not just at the very end.
    path = tmp_path / "audit.jsonl"
    log = AuditLog(path, max_bytes=1)  # rotate after every record
    log.write_meta(ServiceSpec().to_meta())
    log.write_event(0, 1, "x", {"type": "supply_update", "budget": 1.0},
                    applied=True)
    log.write_event(1, 2, "x", {"type": "supply_update", "budget": 2.0},
                    applied=True)
    log.close()
    segments = trace_segments(path)
    assert len(segments) >= 3
    middle = segments[1]
    with middle.open("a") as handle:
        handle.write('{"kind": "event", "tick": 0, "se')  # torn mid-rotation
    document = read_audit(path)
    assert document["truncated_lines"] == 1
    assert len(document["events"]) == 2


def test_trace_reader_tolerates_torn_line_in_middle_segment(tmp_path):
    from repro.trace.query import TraceReader

    path = tmp_path / "run.trace"
    writer = JsonlTraceWriter(path, max_bytes=1)  # rotate per frame
    writer.write_frame({"type": "meta", "controller": "t", "nodes": []})
    writer.write_frame({"tick": 0, "t": 0.0})
    writer.write_frame({"tick": 1, "t": 1.0})
    writer.close()
    segments = trace_segments(path)
    assert len(segments) >= 3
    with segments[1].open("a") as handle:
        handle.write('{"tick": 99, "t"')  # torn line mid-rotation
    reader = TraceReader(path)
    assert reader.skipped_lines == 1
    assert [frame["tick"] for frame in reader.run.frames] == [0, 1]


def test_read_audit_requires_meta(tmp_path):
    path = tmp_path / "audit.jsonl"
    path.write_text('{"kind": "event", "tick": 0, "seq": 1}\n')
    with pytest.raises(AuditRecordError, match="meta"):
        read_audit(path)


def test_replay_detects_digest_mismatch(tmp_path, capsys):
    path = tmp_path / "audit.jsonl"
    log = AuditLog(path)
    log.write_meta(ServiceSpec().to_meta())
    log.write_end(ticks=2, accepted=0, digest="not-the-real-digest")
    log.close()
    result = replay(path)
    assert result.parity is False
    assert main(["replay", str(path)]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_audit_rotation_segments_replay(tmp_path):
    path = tmp_path / "audit.jsonl"
    log = AuditLog(path, max_bytes=512)  # force several rotations
    log.write_meta(ServiceSpec(vms_per_server=0).to_meta(), tick_seconds=0.01)
    sim = LiveSimulation(ServiceSpec(vms_per_server=0))
    for tick in range(6):
        event = {"type": "supply_update", "budget": 100.0 + tick}
        result = sim.apply(event)
        log.write_event(tick, tick + 1, "t", event, applied=result.applied)
        sim.step()
    collector = sim.finish()
    log.write_end(ticks=6, accepted=6, digest=decision_digest(collector))
    log.close()
    assert len(trace_segments(path)) > 1
    assert replay(path).parity is True


# --------------------------------------------------- JSONL writer append mode
def test_jsonl_writer_append_truncates_torn_tail(tmp_path):
    path = tmp_path / "log.jsonl"
    writer = JsonlTraceWriter(path)
    writer.write_frame({"i": 0})
    writer.write_frame({"i": 1})
    writer.close()
    with path.open("a") as handle:
        handle.write('{"i": 2, "torn')  # hard kill mid-write
    resumed = JsonlTraceWriter(path, append=True)
    resumed.write_frame({"i": 3})
    resumed.close()
    frames = [json.loads(raw) for raw in path.read_text().splitlines()]
    assert frames == [{"i": 0}, {"i": 1}, {"i": 3}]


def test_jsonl_writer_append_continues_rotation_numbering(tmp_path):
    path = tmp_path / "log.jsonl"
    writer = JsonlTraceWriter(path, max_bytes=1)  # rotate per frame
    writer.write_frame({"i": 0})
    writer.write_frame({"i": 1})
    writer.close()
    before = len(trace_segments(path))
    resumed = JsonlTraceWriter(path, max_bytes=1, append=True)
    resumed.write_frame({"i": 2})
    resumed.write_frame({"i": 3})
    resumed.close()
    segments = trace_segments(path)
    assert len(segments) > before
    frames = [
        json.loads(raw)
        for segment in segments
        for raw in segment.read_text().splitlines()
    ]
    assert [frame["i"] for frame in frames] == [0, 1, 2, 3]


def test_jsonl_writer_append_resumes_byte_counter(tmp_path):
    path = tmp_path / "log.jsonl"
    writer = JsonlTraceWriter(path, max_bytes=64)
    writer.write_frame({"pad": "x" * 40})  # 51 bytes: below the cap
    writer.close()
    resumed = JsonlTraceWriter(path, max_bytes=64, append=True)
    assert resumed._written == path.stat().st_size
    resumed.write_frame({"pad": "y" * 40})  # pushes past the cap -> rotate
    resumed.close()
    assert len(trace_segments(path)) == 2


def test_jsonl_writer_append_missing_file_starts_fresh(tmp_path):
    writer = JsonlTraceWriter(tmp_path / "new.jsonl", append=True)
    writer.write_frame({"i": 0})
    writer.close()
    assert json.loads((tmp_path / "new.jsonl").read_text()) == {"i": 0}


# ------------------------------------------------- JSONL writer concurrency
def test_jsonl_writer_concurrent_append_no_interleaving(tmp_path):
    path = tmp_path / "trace.jsonl"
    writer = JsonlTraceWriter(path, max_bytes=4096)  # rotates under load
    n_threads, per_thread = 8, 200

    def pound(worker):
        for i in range(per_thread):
            writer.write_frame({"w": worker, "i": i, "pad": "x" * 40})

    threads = [
        threading.Thread(target=pound, args=(w,)) for w in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    writer.close()
    frames = []
    for segment in trace_segments(path):
        for raw in segment.read_text().splitlines():
            frames.append(json.loads(raw))  # every line parses
    assert len(frames) == n_threads * per_thread
    seen = {(f["w"], f["i"]) for f in frames}
    assert len(seen) == n_threads * per_thread  # nothing lost or mangled


def test_jsonl_writer_fsync_flag(tmp_path, monkeypatch):
    calls = []
    real_fsync = os.fsync
    monkeypatch.setattr(
        os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))
    )
    writer = JsonlTraceWriter(tmp_path / "t.jsonl", fsync=True)
    writer.write_frame({"a": 1})
    writer.flush()
    writer.close()
    assert calls  # flush and close both hit the disk

    calls.clear()
    writer = JsonlTraceWriter(tmp_path / "u.jsonl")
    writer.write_frame({"a": 1})
    writer.flush()
    writer.close()
    assert not calls  # default stays cheap


# ----------------------------------------------------------------------- CLI
def test_cli_serve_and_replay_round_trip(tmp_path, capsys):
    audit = tmp_path / "audit.jsonl"
    assert main([
        "serve", str(audit), "--ticks", "3", "--tick-seconds", "0.02",
        "--load", "600", "--queue-bound", "4096", "--seed", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert "serving on 127.0.0.1:" in out
    assert "self-load: offered 600" in out
    assert "decision digest:" in out
    assert main(["replay", str(audit)]) == 0
    assert "replay parity: OK" in capsys.readouterr().out


def test_cli_serve_no_listen(tmp_path, capsys):
    audit = tmp_path / "audit.jsonl"
    assert main([
        "serve", str(audit), "--ticks", "2", "--tick-seconds", "0.01",
        "--no-listen", "--controller", "vectorized",
    ]) == 0
    assert "serving on" not in capsys.readouterr().out
    assert read_audit(audit)["meta"]["spec"]["controller"] == "vectorized"


def test_cli_serve_missing_parent_dir_is_clear_error(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "audit.jsonl"
    assert main(["serve", str(target), "--ticks", "1"]) == 2
    err = capsys.readouterr().err
    assert "does not exist" in err
    assert "Traceback" not in err


def test_cli_bench_profile_missing_parent_dir_is_clear_error(tmp_path, capsys):
    target = tmp_path / "missing" / "bench.pstats"
    assert main(["bench", "--quick", "--profile", str(target)]) == 2
    err = capsys.readouterr().err
    assert "does not exist" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "a.jsonl", "--ticks", "0"],
        ["serve", "a.jsonl", "--tick-seconds", "0"],
        ["serve", "a.jsonl", "--queue-bound", "0"],
        ["serve", "a.jsonl", "--load", "5", "--no-listen"],
        ["serve", "a.jsonl", "--branching", "3,x"],
        ["serve", "a.jsonl", "--utilization", "2.0"],
    ],
)
def test_cli_serve_invalid_arguments_rejected(argv, capsys):
    assert main(argv) == 2


def test_cli_replay_missing_file(tmp_path, capsys):
    assert main(["replay", str(tmp_path / "nope.jsonl")]) == 2
    assert "replay:" in capsys.readouterr().err
