"""Crash-safe checkpoint/restore: format, store, and bit-exact resume.

The resume contract gets the same treatment as the other equivalence
contracts (vectorized, control-plane): restore a snapshot onto a
freshly built twin, run the remaining ticks, and require the decision
digest -- sha256 over every decision-bearing collector table -- to be
bit-identical to the uninterrupted run.  That is checked for all four
resumable layers (scalar, vectorized, fault-tolerant, federated, fused
array sites included), for the live service (snapshot + audit-tail
replay), and property-based over random configurations and snapshot
ticks.
"""

import copy
import dataclasses
import hashlib
import io
import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointStore,
    Checkpointer,
    describe_skip,
    read_checkpoint,
    read_header,
    write_checkpoint,
)
from repro.cli import main
from repro.core import WillowConfig, WillowController
from repro.core.fleet import LaneVM
from repro.core.vectorized import VectorizedWillowController
from repro.power import constant_supply
from repro.sim import RandomStreams
from repro.service.simulation import (
    LiveSimulation,
    ServiceSpec,
    decision_digest,
)
from repro.topology import build_paper_simulation
from repro.workload import (
    SIMULATION_APPS,
    random_placement,
    scale_for_target_utilization,
)
from repro.workload.vm import VM

REPO_ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------------ builders
def build_controller(
    seed=3, *, vectorized=False, utilization=0.5, supply_factor=1.0,
    n_servers=18,
):
    tree = build_paper_simulation()
    config = WillowConfig()
    streams = RandomStreams(seed)
    placement = random_placement(
        [s.node_id for s in tree.servers()],
        SIMULATION_APPS,
        streams["placement"],
    )
    scale_for_target_utilization(
        placement, config.server_model.slope, utilization
    )
    supply = constant_supply(supply_factor * n_servers * config.circuit_limit)
    cls = VectorizedWillowController if vectorized else WillowController
    return cls(tree, config, supply, placement, seed=seed)


def site_digests(coordinator):
    """Per-site decision digests of a federation."""
    return [
        decision_digest(site.controller.collector)
        for site in coordinator.sites
    ]


def resume_digest(build, snapshot_tick, total_ticks):
    """Digest of: run to ``snapshot_tick``, snapshot, restore a twin,
    run the rest.  Compare against the uninterrupted run's digest."""
    first = build()
    first.run(snapshot_tick)
    state = copy.deepcopy(first.snapshot_state())
    twin = build()
    twin.restore_state(state)
    twin.run(total_ticks - snapshot_tick)
    return decision_digest(twin.collector)


# ------------------------------------------------------------- file format
def test_checkpoint_file_round_trip(tmp_path):
    path = tmp_path / "one.wck"
    state = {"tick": 7, "values": [1.5, 2.25], "nested": {"a": (1, 2)}}
    header = write_checkpoint(
        path, kind="test", tick=7, state=state, meta={"note": "hi"}
    )
    assert header["payload_bytes"] > 0
    document = read_checkpoint(path)
    assert document["kind"] == "test"
    assert document["tick"] == 7
    assert document["meta"] == {"note": "hi"}
    assert document["state"] == state
    assert read_header(path)["payload_sha256"] == header["payload_sha256"]
    assert not list(tmp_path.glob("*.tmp"))  # atomic write left no temp


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.wck"
    path.write_bytes(b"not a checkpoint at all\n")
    with pytest.raises(CheckpointCorruptError, match="magic"):
        read_checkpoint(path)


def test_checkpoint_flipped_payload_byte_detected(tmp_path):
    path = tmp_path / "flip.wck"
    write_checkpoint(path, kind="t", tick=1, state={"x": list(range(100))})
    data = bytearray(path.read_bytes())
    data[-3] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointCorruptError, match="hash mismatch"):
        read_checkpoint(path)


def test_checkpoint_torn_payload_detected(tmp_path):
    path = tmp_path / "torn.wck"
    write_checkpoint(path, kind="t", tick=1, state={"x": list(range(100))})
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 20])  # simulate a torn write
    with pytest.raises(CheckpointCorruptError, match="torn"):
        read_checkpoint(path)


def test_checkpoint_trailing_bytes_detected(tmp_path):
    path = tmp_path / "extra.wck"
    write_checkpoint(path, kind="t", tick=1, state={})
    with path.open("ab") as handle:
        handle.write(b"junk")
    with pytest.raises(CheckpointCorruptError, match="trailing"):
        read_checkpoint(path)


def test_checkpoint_torn_header_detected(tmp_path):
    path = tmp_path / "hdr.wck"
    write_checkpoint(path, kind="t", tick=1, state={})
    data = path.read_bytes()
    # Cut inside the header line (after the magic, before its newline).
    magic_end = data.index(b"\n") + 1
    path.write_bytes(data[: magic_end + 10])
    with pytest.raises(CheckpointCorruptError):
        read_checkpoint(path)


def test_checkpoint_never_unpickles_on_hash_mismatch(tmp_path):
    # A corrupted payload must be rejected by hash before pickle ever
    # sees the bytes (unpickling attacker-controlled data is the risk).
    path = tmp_path / "evil.wck"
    write_checkpoint(path, kind="t", tick=1, state={"x": 1})
    header = read_header(path)
    data = path.read_bytes()
    payload_start = len(data) - header["payload_bytes"]
    evil = data[:payload_start] + b"\x80" * header["payload_bytes"]
    path.write_bytes(evil)
    with pytest.raises(CheckpointCorruptError, match="hash mismatch"):
        read_checkpoint(path)


# ------------------------------------------------------------------- store
def test_store_save_load_and_ticks(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt")
    for tick in (7, 14, 21):
        store.save(kind="t", tick=tick, state={"tick": tick})
    assert store.ticks() == [7, 14, 21]
    assert store.load(14)["state"] == {"tick": 14}
    document = store.latest_valid()
    assert document["tick"] == 21
    assert document["skipped"] == []


def test_store_latest_valid_skips_corrupt_newest(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt")
    for tick in (7, 14):
        store.save(kind="t", tick=tick, state={"tick": tick})
    newest = store.path_for(14)
    data = bytearray(newest.read_bytes())
    data[-1] ^= 0xFF
    newest.write_bytes(bytes(data))
    document = store.latest_valid()
    assert document["tick"] == 7
    assert len(document["skipped"]) == 1
    assert document["skipped"][0][0] == newest


def test_store_latest_valid_none_when_all_corrupt(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt")
    store.save(kind="t", tick=7, state={})
    store.path_for(7).write_bytes(b"garbage")
    assert store.latest_valid() is None
    # The skip list survives a scan that finds nothing.
    [(path, error)] = store.skipped
    assert path == store.path_for(7)
    assert describe_skip(path, error).startswith(
        f"skipped corrupt checkpoint {path}: not a willow checkpoint"
    )
    assert CheckpointStore(tmp_path / "absent").latest_valid() is None


def test_store_latest_valid_skips_renamed_tick_mismatch(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt")
    store.save(kind="t", tick=5, state={})
    store.path_for(5).rename(store.path_for(9))
    assert store.latest_valid() is None  # header tick 5 != filename 9


#: Set when a payload is unpickled; a version-1 file must never get there.
_UNPICKLED = []


def _tripwire():
    _UNPICKLED.append(True)


class _Tripwire:
    def __reduce__(self):
        return (_tripwire, ())


def _write_version_1(path, tick):
    """A file as the version-1 writer laid it out: same magic line,
    ``"version": 1`` in the header, a payload whose hash verifies."""
    payload = pickle.dumps(_Tripwire())
    header = {
        "version": 1, "kind": "controller", "tick": tick,
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(), "meta": {},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(
        b"willow-checkpoint 1\n"
        + json.dumps(header, sort_keys=True).encode()
        + b"\n"
        + payload
    )


VERSION_1_REASON = (
    "unsupported checkpoint version 1 "
    f"(this build reads version {CHECKPOINT_VERSION})"
)


def test_version_1_checkpoint_refused_unread(tmp_path):
    assert CHECKPOINT_VERSION == 2
    path = tmp_path / "old.wck"
    _write_version_1(path, tick=7)
    with pytest.raises(CheckpointError) as info:
        read_checkpoint(path)
    assert str(info.value) == VERSION_1_REASON
    assert not isinstance(info.value, CheckpointCorruptError)
    assert not _UNPICKLED


def test_store_latest_valid_skips_version_1(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt")
    store.save(kind="t", tick=7, state={"tick": 7})
    _write_version_1(store.path_for(14), tick=14)
    document = store.latest_valid()
    assert document["tick"] == 7
    [(path, error)] = document["skipped"]
    assert path == store.path_for(14)
    assert describe_skip(path, error) == (
        f"skipped checkpoint {path}: {VERSION_1_REASON}"
    )
    store.path_for(7).unlink()
    assert store.latest_valid() is None
    assert [path for path, _ in store.skipped] == [store.path_for(14)]
    assert not _UNPICKLED


def test_store_prunes_to_keep(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt", keep=2)
    for tick in (1, 2, 3, 4):
        store.save(kind="t", tick=tick, state={})
    assert store.ticks() == [3, 4]


def test_store_max_tick_filter(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt")
    for tick in (7, 14, 21):
        store.save(kind="t", tick=tick, state={"tick": tick})
    assert store.latest_valid(max_tick=15)["tick"] == 14


# -------------------------------------------------- controller-layer resume
@pytest.mark.parametrize("vectorized", [False, True])
def test_resume_equals_straight_run(vectorized):
    def build():
        return build_controller(seed=3, vectorized=vectorized)

    reference = build()
    reference.run(30)
    expected = decision_digest(reference.collector)
    for snapshot_tick in (1, 13, 21):
        assert resume_digest(build, snapshot_tick, 30) == expected


# ------------------------------------------------------- bound VM payloads
def _bound_and_plain():
    """A vectorized controller's bound home VMs after a few ticks, and
    plain VMs with the same fields."""
    controller = build_controller(seed=3, vectorized=True)
    controller.run(5)
    bound = controller.placement.vms
    assert all(isinstance(vm, LaneVM) for vm in bound)
    plain = [
        VM(
            vm_id=vm.vm_id,
            app=vm.app,
            host_id=vm.host_id,
            current_demand=vm.current_demand,
            state=vm.state,
            host_history=list(vm.host_history),
            last_migration_time=vm.last_migration_time,
        )
        for vm in bound
    ]
    assert any(vm.current_demand for vm in plain)
    return bound, plain


@pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
def test_bound_vms_pickle_as_plain_vms(protocol):
    """A bound VM pickles to the same bytes as a plain VM with the same
    fields -- alone and shared, as a snapshot holds them -- so
    checkpoint payloads do not change."""
    bound, plain = _bound_and_plain()
    for b, p in zip(bound, plain):
        assert pickle.dumps(b, protocol=protocol) == pickle.dumps(
            p, protocol=protocol
        )
    shared = lambda vms: {"vms": vms, "by_id": {vm.vm_id: vm for vm in vms}}
    assert pickle.dumps(shared(bound), protocol=protocol) == pickle.dumps(
        shared(plain), protocol=protocol
    )
    restored = pickle.loads(pickle.dumps(bound[0], protocol=protocol))
    assert type(restored) is VM
    assert restored == plain[0]


def test_bound_vms_compare_copy_and_print_as_plain():
    bound, plain = _bound_and_plain()
    assert bound == plain
    assert [repr(vm) for vm in bound] == [repr(vm) for vm in plain]
    for copier in (copy.copy, copy.deepcopy):
        clone = copier(bound[0])
        assert type(clone) is VM
        assert clone == plain[0]
    assert type(copy.deepcopy(bound)[1]) is VM
    assert type(bound[0].current_demand) is float


def test_checkpointer_cadence_and_resume(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt")
    controller = build_controller(seed=5)
    checkpointer = Checkpointer(store).attach(controller)
    controller.run(30)
    eta2 = controller.config.eta2
    assert checkpointer.saved == [7, 14, 21, 28]
    assert checkpointer.every == eta2
    expected = decision_digest(controller.collector)
    for tick in store.ticks():
        twin = build_controller(seed=5)
        twin.restore_state(store.load(tick)["state"])
        twin.run(30 - tick)
        assert decision_digest(twin.collector) == expected


def test_checkpointer_custom_cadence(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt")
    controller = build_controller(seed=1)
    checkpointer = Checkpointer(store, every=5).attach(controller)
    controller.run(12)
    assert checkpointer.saved == [5, 10]


def test_fault_tolerant_resume_bit_exact():
    from repro.plant_faults import (
        FaultTolerantWillowController,
        random_plant_schedule,
    )

    tree = build_paper_simulation()
    config = WillowConfig()
    schedule = random_plant_schedule(
        tree, seed=7, horizon_ticks=30, n_crashes=2, n_sensor_faults=2,
        n_cooling_events=1, n_circuit_trips=1,
    )

    def build():
        streams = RandomStreams(7)
        placement = random_placement(
            [s.node_id for s in tree.servers()],
            SIMULATION_APPS,
            streams["placement"],
        )
        scale_for_target_utilization(
            placement, config.server_model.slope, 0.55
        )
        supply = constant_supply(18 * config.circuit_limit)
        return FaultTolerantWillowController(
            tree, config, supply, placement, plant_faults=schedule, seed=7
        )

    reference = build()
    reference.run(30)
    expected = decision_digest(reference.collector)
    assert reference.collector.plant_events  # the faults actually fired
    for snapshot_tick in (8, 17):
        assert resume_digest(build, snapshot_tick, 30) == expected


def test_federation_resume_bit_exact():
    from repro.federation import SiteSpec, build_federation
    from repro.power import renewable_supply
    from repro.power.battery import Battery

    n_ticks = 24

    def build():
        specs = [
            SiteSpec(
                name="west",
                supply=renewable_supply(6000.0, day_length=32.0),
                seed=1,
                battery=Battery(500.0, 100.0),
            ),
            SiteSpec(
                name="east",
                supply=renewable_supply(6000.0, day_length=32.0, phase=0.5),
                seed=2,
                vectorized=True,
            ),
        ]
        return build_federation(specs, n_ticks=n_ticks, policy="proportional")

    reference = build()
    reference.run(n_ticks)
    expected = site_digests(reference)
    assert reference.cross_migrations  # load actually shifted cross-site

    first = build()
    first.run(10)
    state = copy.deepcopy(first.snapshot_state())
    twin = build()
    twin.restore_state(state)
    twin.run(n_ticks - 10)
    assert site_digests(twin) == expected
    assert len(twin.cross_migrations) == len(reference.cross_migrations)


def _federation_checkpointer_run(tmp_path, vectorized):
    """Checkpoint a 2-site federation through its ``on_tick`` hook,
    then resume the last checkpoint to the straight run's digests."""
    from repro.federation import SiteSpec, build_federation

    def build():
        return build_federation(
            [SiteSpec(name="a", seed=1), SiteSpec(name="b", seed=2)],
            n_ticks=15,
            vectorized=vectorized,
        )

    store = CheckpointStore(tmp_path / "fed")
    coordinator = build()
    assert bool(coordinator.segments) == vectorized
    checkpointer = Checkpointer(store).attach(coordinator)
    coordinator.run(15)
    assert checkpointer.saved == [7, 14]
    assert store.load(14)["state"]["tick"] == 14
    twin = build()
    twin.restore_state(store.load(14)["state"])
    twin.run(1)
    assert site_digests(twin) == site_digests(coordinator)


def test_federation_checkpointer_hook(tmp_path):
    _federation_checkpointer_run(tmp_path, vectorized=False)


def test_federation_checkpointer_hook_fused(tmp_path):
    """The fused array sites run the coordinator's hooks too."""
    _federation_checkpointer_run(tmp_path, vectorized=True)


# ---------------------------------------------------- collector tables
def _table_rich_controller(kind):
    """A run under a tight supply that fills every record table:
    migrations, drops, unmatched deficits, messages, and plant events
    for the fault-tolerant controller."""
    if kind != "fault_tolerant":
        return build_controller(
            3, vectorized=kind == "vectorized", utilization=0.8,
            supply_factor=0.6,
        )
    from repro.plant_faults import (
        FaultTolerantWillowController,
        random_plant_schedule,
    )

    tree = build_paper_simulation()
    config = WillowConfig()
    schedule = random_plant_schedule(
        tree, seed=7, horizon_ticks=30, n_crashes=2, n_sensor_faults=2,
        n_cooling_events=1, n_circuit_trips=1,
    )
    placement = random_placement(
        [s.node_id for s in tree.servers()],
        SIMULATION_APPS,
        RandomStreams(7)["placement"],
    )
    scale_for_target_utilization(placement, config.server_model.slope, 0.8)
    supply = constant_supply(0.6 * 18 * config.circuit_limit)
    return FaultTolerantWillowController(
        tree, config, supply, placement, plant_faults=schedule, seed=7
    )


def _list_fields(collector):
    names = list(collector.tables())
    assert len(names) == 8, names
    return names


def _row_types(rows):
    """Type of every row and of every value in it."""
    types = []
    for row in rows:
        values = row
        if not isinstance(row, tuple):
            values = [getattr(row, f.name) for f in dataclasses.fields(row)]
        types.append((type(row), tuple(type(value) for value in values)))
    return types


TABLE_KINDS = ["scalar", "vectorized", "fault_tolerant"]


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_collector_tables_round_trip_through_checkpoint(tmp_path, kind):
    controller = _table_rich_controller(kind)
    collector = controller.run(30)
    assert collector.migrations and collector.drops
    assert collector.unmatched_deficits and collector.messages
    assert bool(collector.plant_events) == (kind == "fault_tolerant")
    path = tmp_path / "tables.wck"
    write_checkpoint(
        path, kind="controller", tick=30, state=controller.snapshot_state()
    )
    twin = _table_rich_controller(kind)
    lists = {
        name: getattr(twin.collector, name) for name in _list_fields(collector)
    }
    twin.restore_state(read_checkpoint(path)["state"])
    for name, rows in lists.items():
        assert getattr(twin.collector, name) is rows, name  # identity kept
        original = getattr(collector, name)
        assert rows == original, name
        assert _row_types(rows) == _row_types(original), name
    assert decision_digest(twin.collector) == decision_digest(collector)


class _RecordCounter(pickle.Pickler):
    """Counts the collector record objects a pickle serializes."""

    def __init__(self, record_types):
        super().__init__(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL)
        self.record_types = record_types
        self.count = 0

    def reducer_override(self, obj):
        if isinstance(obj, self.record_types):
            self.count += 1
        return NotImplemented


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_snapshot_pickles_tables_as_columns(kind):
    controller = _table_rich_controller(kind)
    collector = controller.run(30)
    record_types = tuple(
        {
            type(row)
            for name in _list_fields(collector)
            for row in getattr(collector, name)
        }
        - {tuple}
    )
    assert {t.__name__ for t in record_types} >= {
        "ServerSample", "SwitchSample", "Migration", "Drop", "ControlMessage",
    }
    pickler = _RecordCounter(record_types)
    pickler.dump(controller.snapshot_state())
    assert pickler.count == 0


def test_restore_refuses_changed_record_fields():
    controller = build_controller()
    controller.run(5)
    state = controller.snapshot_state()
    state["collector"]["drops"]["fields"] = ("time", "node_id", "vm", "power")
    with pytest.raises(CheckpointError, match="snapshot table drops") as info:
        build_controller().restore_state(state)
    assert "\n" not in str(info.value)


# ------------------------------------------------------------------- gates
def test_distributed_controller_refuses_checkpointing():
    from repro.control_plane.controller import DistributedWillowController

    tree = build_paper_simulation()
    config = WillowConfig()
    streams = RandomStreams(0)
    placement = random_placement(
        [s.node_id for s in tree.servers()],
        SIMULATION_APPS,
        streams["placement"],
    )
    controller = DistributedWillowController(
        tree, config, constant_supply(8100.0), placement, seed=0
    )
    with pytest.raises(CheckpointError, match="Distributed"):
        controller.snapshot_state()


def test_device_classes_gate():
    from repro.devices import STANDARD_DEVICES

    tree = build_paper_simulation()
    config = WillowConfig(device_classes=STANDARD_DEVICES)
    streams = RandomStreams(0)
    placement = random_placement(
        [s.node_id for s in tree.servers()],
        SIMULATION_APPS,
        streams["placement"],
    )
    controller = WillowController(
        tree, config, constant_supply(8100.0), placement, seed=0
    )
    with pytest.raises(CheckpointError, match="device"):
        controller.snapshot_state()


# ------------------------------------------- property-based (random configs)
resume_cases = st.tuples(
    st.integers(0, 10_000),  # seed
    st.floats(0.2, 0.9),  # utilization
    st.floats(0.4, 1.2),  # supply factor
    st.integers(1, 19),  # snapshot tick
    st.booleans(),  # vectorized
)


@settings(max_examples=10, deadline=None)
@given(case=resume_cases)
def test_resume_bit_exact_for_any_configuration(case):
    seed, utilization, supply_factor, snapshot_tick, vectorized = case
    total = 20

    def build():
        return build_controller(
            seed=seed,
            vectorized=vectorized,
            utilization=utilization,
            supply_factor=supply_factor,
        )

    reference = build()
    reference.run(total)
    expected = decision_digest(reference.collector)
    assert resume_digest(build, snapshot_tick, total) == expected


fused_resume_cases = st.tuples(
    st.integers(0, 10_000),  # seed
    st.floats(0.35, 0.5),  # utilization
    st.integers(1, 35),  # snapshot tick
)


@settings(max_examples=10, deadline=None)
@given(case=fused_resume_cases)
def test_fused_federation_resume_bit_exact_for_any_configuration(case):
    """Three fused array sites on anti-correlated solar, so VMs cross
    sites in both directions (and guests of a later site are served a
    tick stale): resuming a snapshot at any tick reproduces every
    site's decisions and the cross-site moves."""
    from repro.federation import SiteSpec, build_federation
    from repro.power import renewable_supply

    seed, utilization, snapshot_tick = case
    total = 36

    def build():
        specs = [
            SiteSpec(
                name=f"site{i}",
                supply=renewable_supply(
                    5200.0,
                    base_fraction=0.3,
                    day_length=24.0,
                    cloud_noise=0.0,
                    phase=i / 3,
                ),
                seed=seed + i,
                target_utilization=utilization,
            )
            for i in range(3)
        ]
        return build_federation(
            specs, n_ticks=total, policy="proportional", vectorized=True
        )

    reference = build()
    assert [seg.global_idx for seg in reference.segments] == [[0, 1, 2]]
    reference.run(total)
    assert reference.cross_migrations

    first = build()
    first.run(snapshot_tick)
    state = copy.deepcopy(first.snapshot_state())
    twin = build()
    twin.restore_state(state)
    twin.run(total - snapshot_tick)
    assert site_digests(twin) == site_digests(reference)
    assert len(twin.cross_migrations) == len(reference.cross_migrations)


# ----------------------------------------------------------- live service
SPEC = ServiceSpec(seed=11, controller="scalar", utilization=0.55)


def _events_for(tick):
    events = []
    if tick % 3 == 0:
        events.append(
            {"type": "demand_sample", "vm_id": tick % 40,
             "demand": 120.0 + tick}
        )
    if tick == 5:
        events.append({"type": "vm_arrival", "app": None, "demand": 150.0})
    if tick == 9:
        events.append({"type": "supply_update", "budget": 5200.0})
    if tick == 12:
        events.append(
            {"type": "fault", "kind": "server_crash", "server": 3,
             "ticks": 6}
        )
    return events


def _run_reference(total=24):
    sim = LiveSimulation(SPEC)
    for tick in range(total):
        for event in _events_for(tick):
            sim.apply(event)
        sim.step()
    return decision_digest(sim.finish())


def test_live_simulation_snapshot_restore_bit_exact():
    total = 24
    expected = _run_reference(total)
    sim = LiveSimulation(SPEC)
    snapshot = None
    for tick in range(total):
        for event in _events_for(tick):
            sim.apply(event)
        sim.step()
        if sim.tick == 14:
            snapshot = copy.deepcopy(sim.snapshot_state())
    twin = LiveSimulation(SPEC)
    twin.restore_state(snapshot)
    assert twin.tick == 14
    for tick in range(14, total):
        for event in _events_for(tick):
            twin.apply(event)
        twin.step()
    assert decision_digest(twin.finish()) == expected


def test_live_snapshot_rejects_foreign_spec():
    sim = LiveSimulation(SPEC)
    sim.step()
    state = sim.snapshot_state()
    other = LiveSimulation(ServiceSpec(seed=99))
    with pytest.raises(CheckpointError, match="different service spec"):
        other.restore_state(state)


def _write_crashed_run(tmp_path, *, crash_tick=17, every=7):
    """Simulate a live run that died at ``crash_tick`` mid-write."""
    from repro.service.audit import AuditLog

    audit_path = tmp_path / "audit.jsonl"
    ckpt_dir = tmp_path / "ckpt"
    audit = AuditLog(audit_path)
    audit.write_meta(SPEC.to_meta(), tick_seconds=0.1)
    store = CheckpointStore(ckpt_dir)
    sim = LiveSimulation(SPEC)
    seq = 0
    for tick in range(crash_tick):
        for event in _events_for(tick):
            result = sim.apply(event)
            audit.write_event(
                tick, seq, "test", event,
                applied=result.applied, reason=result.reason,
            )
            seq += 1
        sim.step()
        audit.flush()
        if sim.tick % every == 0:
            store.save(
                kind="service", tick=sim.tick, state=sim.snapshot_state()
            )
    audit._writer._handle.close()  # hard kill: no end record
    with audit_path.open("a") as handle:
        handle.write('{"kind":"event","tick":17,"se')  # torn final line
    return audit_path, ckpt_dir


def test_recover_simulation_checkpoint_plus_tail(tmp_path):
    from repro.service.recover import recover_simulation

    audit_path, ckpt_dir = _write_crashed_run(tmp_path)
    recovery = recover_simulation(audit_path, ckpt_dir)
    assert recovery.restored_tick == 14
    assert recovery.truncated_lines == 1
    assert recovery.apply_mismatches == 0
    assert recovery.sim.tick >= recovery.restored_tick
    # Continue to the reference horizon: bit-exact with never-crashed.
    sim = recovery.sim
    for tick in range(sim.tick, 24):
        for event in _events_for(tick):
            sim.apply(event)
        sim.step()
    assert decision_digest(sim.finish()) == _run_reference(24)


def test_recover_simulation_skips_corrupt_newest(tmp_path):
    from repro.service.recover import recover_simulation

    audit_path, ckpt_dir = _write_crashed_run(tmp_path)
    newest = sorted(ckpt_dir.glob("checkpoint-*.wck"))[-1]
    data = bytearray(newest.read_bytes())
    data[-10] ^= 0xFF
    newest.write_bytes(bytes(data))
    recovery = recover_simulation(audit_path, ckpt_dir)
    assert recovery.restored_tick == 7
    assert len(recovery.skipped_checkpoints) == 1
    sim = recovery.sim
    for tick in range(sim.tick, 24):
        for event in _events_for(tick):
            sim.apply(event)
        sim.step()
    assert decision_digest(sim.finish()) == _run_reference(24)


def test_recover_simulation_names_skips_when_none_valid(tmp_path):
    from repro.service.recover import recover_simulation

    audit_path, ckpt_dir = _write_crashed_run(tmp_path)
    corrupt, old = sorted(ckpt_dir.glob("checkpoint-*.wck"))[::-1]
    data = bytearray(corrupt.read_bytes())
    data[-10] ^= 0xFF
    corrupt.write_bytes(bytes(data))
    _write_version_1(old, tick=7)
    recovery = recover_simulation(audit_path, ckpt_dir)
    assert recovery.restored_tick == 0
    assert recovery.checkpoint_path is None
    assert [path for path, _ in recovery.skipped_checkpoints] == [
        str(corrupt), str(old),
    ]
    lines = recovery.format().splitlines()
    assert lines[0] == "no usable checkpoint; replaying the full audit log"
    assert lines[1].startswith(
        f"skipped corrupt checkpoint {corrupt}: checkpoint hash mismatch"
    )
    assert lines[2] == f"skipped checkpoint {old}: {VERSION_1_REASON}"
    assert not _UNPICKLED
    sim = recovery.sim
    for tick in range(sim.tick, 24):
        for event in _events_for(tick):
            sim.apply(event)
        sim.step()
    assert decision_digest(sim.finish()) == _run_reference(24)


def test_recover_simulation_without_checkpoints_full_replay(tmp_path):
    from repro.service.recover import recover_simulation

    audit_path, _ = _write_crashed_run(tmp_path)
    recovery = recover_simulation(audit_path, tmp_path / "empty")
    assert recovery.restored_tick == 0
    assert recovery.checkpoint_path is None
    sim = recovery.sim
    for tick in range(sim.tick, 24):
        for event in _events_for(tick):
            sim.apply(event)
        sim.step()
    assert decision_digest(sim.finish()) == _run_reference(24)


# ---------------------------------------------------- kill -9 crash harness
def test_kill9_recovery_replay_parity(tmp_path):
    """The full crash drill: kill -9 a live checkpointed run mid-tick,
    corrupt the newest checkpoint, recover, and require the combined
    audit log to replay bit-exactly against the recovered digest."""
    audit = tmp_path / "audit.jsonl"
    ckpt = tmp_path / "audit.jsonl.ckpt"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", str(audit),
            "--ticks", "500", "--tick-seconds", "0.05", "--seed", "3",
            "--load", "4000",
            "--checkpoint-dir", str(ckpt), "--checkpoint-every", "4",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if len(list(ckpt.glob("checkpoint-*.wck"))) >= 3:
                break
            time.sleep(0.1)
        else:
            pytest.fail("no checkpoints appeared within 60s")
    finally:
        process.kill()  # SIGKILL: no graceful drain, no end record
        process.communicate()

    newest = sorted(ckpt.glob("checkpoint-*.wck"))[-1]
    data = bytearray(newest.read_bytes())
    data[400] ^= 0xFF
    newest.write_bytes(bytes(data))

    recovered = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "serve", str(audit),
            "--recover", "--no-listen", "--ticks", "6",
            "--tick-seconds", "0.02",
        ],
        capture_output=True,
        env=env,
        text=True,
        timeout=120,
    )
    assert recovered.returncode == 0, recovered.stderr
    assert "restored checkpoint at tick" in recovered.stdout
    assert "skipped corrupt checkpoint" in recovered.stdout

    replayed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "replay", str(audit)],
        capture_output=True,
        env=env,
        text=True,
        timeout=120,
    )
    assert replayed.returncode == 0, replayed.stderr
    assert "replay parity: OK" in replayed.stdout


# ------------------------------------------------------------ CLI round trip
def test_cli_checkpoint_resume_round_trip(tmp_path, capsys):
    ckpt = tmp_path / "run.ckpt"
    assert main(["checkpoint", str(ckpt), "--ticks", "20", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    digest = next(
        line for line in first.splitlines() if "decision digest" in line
    )
    assert main(["resume", str(ckpt)]) == 0
    second = capsys.readouterr().out
    assert digest in second
    assert "resumed from checkpoint at tick 14" in second


def test_cli_checkpoint_resume_vectorized(tmp_path, capsys):
    ckpt = tmp_path / "runv.ckpt"
    assert main(
        ["checkpoint", str(ckpt), "--ticks", "16", "--seed", "4",
         "--vectorized"]
    ) == 0
    digest = next(
        line for line in capsys.readouterr().out.splitlines()
        if "decision digest" in line
    )
    assert main(["resume", str(ckpt), "--at", "7"]) == 0
    assert digest in capsys.readouterr().out


def test_cli_resume_skips_corrupt_and_matches(tmp_path, capsys):
    ckpt = tmp_path / "run.ckpt"
    assert main(["checkpoint", str(ckpt), "--ticks", "20", "--seed", "2"]) == 0
    digest = next(
        line for line in capsys.readouterr().out.splitlines()
        if "decision digest" in line
    )
    newest = sorted(ckpt.glob("checkpoint-*.wck"))[-1]
    data = bytearray(newest.read_bytes())
    data[50] ^= 0xFF
    newest.write_bytes(bytes(data))
    assert main(["resume", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert "skipped corrupt checkpoint" in out
    assert digest in out


def test_cli_resume_missing_dir_exit_2(tmp_path, capsys):
    assert main(["resume", str(tmp_path / "nope")]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_cli_resume_missing_tick_exit_2(tmp_path, capsys):
    ckpt = tmp_path / "run.ckpt"
    assert main(["checkpoint", str(ckpt), "--ticks", "8"]) == 0
    capsys.readouterr()
    assert main(["resume", str(ckpt), "--at", "999"]) == 2
    assert "no checkpoint for tick 999" in capsys.readouterr().err


def test_cli_resume_all_corrupt_exit_2(tmp_path, capsys):
    ckpt = tmp_path / "run.ckpt"
    assert main(["checkpoint", str(ckpt), "--ticks", "8"]) == 0
    capsys.readouterr()
    for path in ckpt.glob("checkpoint-*.wck"):
        path.write_bytes(b"garbage")
    assert main(["resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "no valid checkpoint" in err
    for path in ckpt.glob("checkpoint-*.wck"):
        assert f"resume: skipped corrupt checkpoint {path}: not a" in err


def test_cli_resume_version_1_exit_2(tmp_path, capsys):
    ckpt = tmp_path / "run.ckpt"
    _write_version_1(ckpt / "checkpoint-0000000007.wck", tick=7)
    assert main(["resume", str(ckpt), "--at", "7"]) == 2
    assert capsys.readouterr().err == f"resume: {VERSION_1_REASON}\n"
    assert main(["resume", str(ckpt)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"resume: skipped checkpoint {ckpt / 'checkpoint-0000000007.wck'}: "
        f"{VERSION_1_REASON}",
        f"resume: no valid checkpoint found in {ckpt}",
    ]
    assert not _UNPICKLED


def test_cli_resume_corrupt_at_exit_2(tmp_path, capsys):
    ckpt = tmp_path / "run.ckpt"
    assert main(["checkpoint", str(ckpt), "--ticks", "8"]) == 0
    capsys.readouterr()
    tick = int(sorted(ckpt.glob("checkpoint-*.wck"))[0].stem.split("-")[1])
    sorted(ckpt.glob("checkpoint-*.wck"))[0].write_bytes(b"garbage")
    assert main(["resume", str(ckpt), "--at", str(tick)]) == 2
    err = capsys.readouterr().err
    assert "resume:" in err and "Traceback" not in err


def test_cli_resume_ticks_before_checkpoint_exit_2(tmp_path, capsys):
    ckpt = tmp_path / "run.ckpt"
    assert main(["checkpoint", str(ckpt), "--ticks", "20"]) == 0
    capsys.readouterr()
    assert main(["resume", str(ckpt), "--ticks", "3"]) == 2
    assert "before the checkpoint" in capsys.readouterr().err


def test_cli_resume_rejects_service_checkpoints(tmp_path, capsys):
    store = CheckpointStore(tmp_path / "svc")
    sim = LiveSimulation(ServiceSpec(seed=1))
    sim.step()
    store.save(kind="service", tick=1, state=sim.snapshot_state())
    assert main(["resume", str(tmp_path / "svc")]) == 2
    assert "serve --recover" in capsys.readouterr().err


def test_cli_checkpoint_invalid_args_exit_2(capsys):
    assert main(["checkpoint", "d", "--ticks", "0"]) == 2
    assert main(["checkpoint", "d", "--every", "0"]) == 2
    assert main(["checkpoint", "d", "--utilization", "2.0"]) == 2
    assert main(["checkpoint", "d", "--branching", "a,b"]) == 2
    capsys.readouterr()


def test_cli_serve_checkpoint_flags_validated(tmp_path, capsys):
    audit = tmp_path / "a.jsonl"
    assert main(["serve", str(audit), "--checkpoint-every", "0"]) == 2
    assert "--checkpoint-every" in capsys.readouterr().err
    assert main(["serve", str(audit), "--checkpoint-every", "4"]) == 2
    assert "needs --checkpoint-dir" in capsys.readouterr().err


def test_cli_serve_recover_missing_audit_exit_2(tmp_path, capsys):
    assert main(
        ["serve", str(tmp_path / "absent.jsonl"), "--recover", "--no-listen"]
    ) == 2
    assert "serve --recover:" in capsys.readouterr().err
