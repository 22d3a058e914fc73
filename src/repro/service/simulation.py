"""The embedded live controller: deterministic event application.

A :class:`LiveSimulation` wraps one Willow controller so that the only
inputs that can change its decisions are (a) the :class:`ServiceSpec`
it was built from and (b) the sequence of ``(tick, event)`` pairs fed
through :meth:`apply`.  Both live mode (:class:`repro.service.runner
.LiveRunner`) and offline replay (:func:`repro.service.replay.replay`)
drive *this* class, which is what makes a live run bit-exactly
replayable from its audit log: wall-clock time only decides *which
tick* an event lands on, and the audit log records that decision.

Determinism rules enforced here:

* demand is zero-order held -- :class:`EventDrivenDemandSource` never
  draws randomness; ``demand_sample`` events are the only demand input;
* the root supply is a :class:`MutableSupply` stepped by
  ``supply_update`` events at tick boundaries only;
* state-dependent event resolution (unknown vm_id, occupied vm_id,
  unknown host) degrades to a *counted no-op*, never an error, so live
  and replay take identical paths through identical states;
* auto-placement of arrivals picks the least-loaded awake server with
  the lowest node id -- a pure function of controller state.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.core.config import WillowConfig
from repro.core.controller import seeded_placement
from repro.metrics.collector import MetricsCollector
from repro.service.events import OPEN_END_TICK, app_from_spec
from repro.workload.generator import PlacementPlan
from repro.workload.vm import VM

__all__ = [
    "ServiceSpec",
    "EventDrivenDemandSource",
    "MutableSupply",
    "ApplyResult",
    "LiveSimulation",
    "decision_digest",
]

_CONTROLLERS = ("scalar", "vectorized")


@dataclass(frozen=True)
class ServiceSpec:
    """Everything needed to rebuild a live run's initial conditions.

    Serialized into the audit log's meta record; ``from_meta`` must
    round-trip ``to_meta`` exactly (the replay contract hangs on it).
    """

    seed: int = 0
    controller: str = "scalar"  # "scalar" (fault-tolerant) | "vectorized"
    branching: Optional[tuple] = None  # None = the paper's 18-server tree
    utilization: float = 0.5
    vms_per_server: int = 4
    supply_factor: float = 1.0
    outside_temp: float = 35.0

    def __post_init__(self) -> None:
        if self.controller not in _CONTROLLERS:
            raise ValueError(
                f"controller must be one of {_CONTROLLERS}, "
                f"got {self.controller!r}"
            )
        if self.vms_per_server < 0:
            raise ValueError("vms_per_server must be >= 0")
        if self.vms_per_server and not 0.0 < self.utilization <= 1.0:
            raise ValueError("utilization must be in (0, 1]")
        if self.supply_factor <= 0:
            raise ValueError("supply_factor must be positive")
        if not math.isfinite(self.outside_temp):
            raise ValueError(
                f"outside_temp must be finite, got {self.outside_temp}"
            )

    def to_meta(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        if payload["branching"] is not None:
            payload["branching"] = list(payload["branching"])
        return payload

    @classmethod
    def from_meta(cls, payload: Mapping[str, Any]) -> "ServiceSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in payload.items() if k in known}
        if kwargs.get("branching") is not None:
            kwargs["branching"] = tuple(int(b) for b in kwargs["branching"])
        return cls(**kwargs)


class EventDrivenDemandSource:
    """Zero-order-hold demand: only ``demand_sample`` events change it.

    The controller calls :meth:`sample_tick` once per tick; VM demands
    were already written at the tick boundary by
    :meth:`LiveSimulation.apply`, so there is nothing to draw -- which
    is exactly what keeps live runs replayable.
    """

    def sample_tick(self) -> Dict[int, float]:
        return {}

    # Checkpointing: a zero-order hold has no state of its own (VM
    # demands live on the VM objects, captured by the controller).
    def state_dict(self) -> Dict[str, Any]:
        return {}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        pass


class MutableSupply:
    """A root supply stepped by ``supply_update`` events.

    Quacks like :class:`repro.power.supply.SupplyTrace` for the one
    method controllers use (``at``); mutation happens only at tick
    boundaries, so every allocation within a tick sees one value.
    """

    def __init__(self, initial_budget: float):
        if initial_budget < 0:
            raise ValueError("initial budget must be >= 0")
        self._budget = float(initial_budget)

    def at(self, time: float) -> float:
        return self._budget

    def set(self, budget: float) -> None:
        self._budget = float(budget)

    @property
    def current(self) -> float:
        return self._budget


@dataclass(frozen=True)
class ApplyResult:
    """What one event did: applied, or ignored with a reason slug."""

    applied: bool
    reason: str = ""
    detail: str = ""


class LiveSimulation:
    """One embedded controller plus the event-to-primitive mapping."""

    def __init__(self, spec: ServiceSpec):
        from repro.topology.builders import build_balanced, build_paper_simulation

        self.spec = spec
        self.config = WillowConfig()
        self.tree = (
            build_balanced(list(spec.branching))
            if spec.branching
            else build_paper_simulation()
        )
        self.supply = MutableSupply(
            spec.supply_factor
            * len(self.tree.servers())
            * self.config.circuit_limit
        )
        if spec.vms_per_server:
            placement = seeded_placement(
                self.tree,
                self.config,
                seed=spec.seed,
                target_utilization=spec.utilization,
                vms_per_server=spec.vms_per_server,
            )
            # Live demand arrives in absolute watts; seed each VM's
            # zero-order hold at its scaled mean so the fleet starts at
            # the target utilization instead of idling at the floor.
            for vm in placement.vms:
                vm.current_demand = vm.app.mean_power * placement.scale
        else:
            placement = PlacementPlan(vms=[], scale=1.0)

        if spec.controller == "vectorized":
            from repro.core.vectorized import VectorizedWillowController

            self.controller = VectorizedWillowController(
                self.tree,
                self.config,
                self.supply,
                placement,
                demand_source=EventDrivenDemandSource(),
                seed=spec.seed,
            )
        else:
            from repro.plant_faults import (
                FaultTolerantWillowController,
                PlantFaultSchedule,
            )

            # The fault-tolerant controller with an empty schedule is
            # bit-exact with the plain scalar controller, and gives
            # live ``fault`` events a place to land.
            self.controller = FaultTolerantWillowController(
                self.tree,
                self.config,
                self.supply,
                placement,
                demand_source=EventDrivenDemandSource(),
                plant_faults=PlantFaultSchedule(),
                outside_temp=spec.outside_temp,
                seed=spec.seed,
            )
        self.placement = placement
        self._next_vm_id = 1 + max(
            (vm.vm_id for vm in placement.vms), default=-1
        )
        self.tick = 0
        self.applied: Dict[str, int] = {}
        self.ignored: Dict[str, int] = {}

    # ------------------------------------------------------------ accessors
    @property
    def collector(self) -> MetricsCollector:
        return self.controller.collector

    @property
    def allow_faults(self) -> bool:
        """Fault events need the scalar (fault-tolerant) controller."""
        return self.spec.controller == "scalar"

    @property
    def n_vms(self) -> int:
        return len(self.controller._vm_by_id)

    # -------------------------------------------------------------- events
    def apply(self, event: Mapping[str, Any]) -> ApplyResult:
        """Map one validated event onto the controller, deterministically.

        Must be called at a tick boundary (between :meth:`step` calls).
        Unknown references produce a counted no-op -- see the module
        docstring for why that is load-bearing for replayability.
        """
        etype = event["type"]
        try:
            handler = getattr(self, f"_apply_{etype}")
            result = handler(event)
        except Exception as error:  # defensive: keep live == replay
            result = ApplyResult(False, "internal_error", repr(error))
        key = etype if result.applied else f"{etype}:{result.reason}"
        bucket = self.applied if result.applied else self.ignored
        bucket[key] = bucket.get(key, 0) + 1
        return result

    def step(self) -> None:
        """Advance the embedded controller exactly one control tick."""
        controller = self.controller
        controller._tick()
        controller.env.advance(self.config.delta_d)
        self.tick += 1

    def finish(self) -> MetricsCollector:
        """Flush the tracer and hand back the metrics."""
        self.controller.tracer.flush()
        return self.collector

    # -------------------------------------------------------- checkpointing
    def snapshot_state(self) -> Dict[str, Any]:
        """Full live-run state at a tick boundary (between ``step`` calls).

        Call only between ticks -- the live worker snapshots right after
        ``step``/audit flush, so the checkpoint at tick C contains every
        event applied at ticks < C and nothing later.  Restoring onto a
        fresh ``LiveSimulation(spec)`` and replaying the audit tail
        (events with tick >= C) reproduces the uninterrupted run's
        ``decision_digest`` bit-exactly.
        """
        return {
            "spec": self.spec.to_meta(),
            "tick": self.tick,
            "applied": dict(self.applied),
            "ignored": dict(self.ignored),
            "next_vm_id": self._next_vm_id,
            "supply_budget": self.supply.current,
            "controller": self.controller.snapshot_state(),
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Overlay a snapshot onto a freshly built twin of the same spec."""
        from repro.checkpoint.errors import CheckpointError

        if dict(state["spec"]) != self.spec.to_meta():
            raise CheckpointError(
                "checkpoint was taken under a different service spec: "
                f"{state['spec']!r} != {self.spec.to_meta()!r}"
            )
        self.controller.restore_state(state["controller"])
        self.supply.set(float(state["supply_budget"]))
        self.tick = int(state["tick"])
        self.applied = dict(state["applied"])
        self.ignored = dict(state["ignored"])
        self._next_vm_id = int(state["next_vm_id"])

    # ---------------------------------------------------------- resolution
    def _resolve_leaf(self, ref) -> Optional[int]:
        """A host/server reference to a leaf node id, or None."""
        if isinstance(ref, str):
            try:
                node = self.tree.by_name(ref)
            except KeyError:
                return None
            return node.node_id if node.is_leaf else None
        return ref if ref in self.controller.servers else None

    def _resolve_internal(self, ref) -> Optional[int]:
        """A subtree reference (trips/cooling zones), or None."""
        if isinstance(ref, str):
            try:
                node = self.tree.by_name(ref)
            except KeyError:
                return None
            return node.node_id
        if ref in self.controller.internals or ref in self.controller.servers:
            return ref
        return None

    def _auto_host(self) -> int:
        """Deterministic placement: least-loaded awake server, then id."""
        servers = self.controller.servers.values()
        awake = [s for s in servers if s.is_awake] or list(servers)
        best = min(awake, key=lambda s: (s.vm_demand, s.node.node_id))
        return best.node.node_id

    # ------------------------------------------------------------ handlers
    def _apply_vm_arrival(self, event) -> ApplyResult:
        controller = self.controller
        vm_id = event.get("vm_id")
        if vm_id is None:
            vm_id = self._next_vm_id
        elif vm_id in controller._vm_by_id:
            return ApplyResult(False, "vm_id_taken", f"vm {vm_id} exists")
        if "host" in event:
            host_id = self._resolve_leaf(event["host"])
            if host_id is None:
                return ApplyResult(
                    False, "unknown_host", f"host {event['host']!r}"
                )
        else:
            host_id = self._auto_host()
        vm = VM(
            vm_id=vm_id,
            app=app_from_spec(event.get("app")),
            host_id=host_id,
            current_demand=float(event.get("demand", 0.0)),
        )
        self.placement.vms.append(vm)
        controller._vm_by_id[vm_id] = vm
        controller.servers[host_id].vms[vm_id] = vm
        controller.vm_arrived(vm, host_id)
        self._next_vm_id = max(self._next_vm_id, vm_id + 1)
        return ApplyResult(True, detail=f"vm {vm_id} -> node {host_id}")

    def _apply_vm_departure(self, event) -> ApplyResult:
        controller = self.controller
        vm = controller._vm_by_id.pop(event["vm_id"], None)
        if vm is None:
            return ApplyResult(False, "unknown_vm", f"vm {event['vm_id']}")
        host = controller.servers.get(vm.host_id)
        if host is not None:
            host.vms.pop(vm.vm_id, None)
        try:
            self.placement.vms.remove(vm)
        except ValueError:
            pass
        controller.vm_departed(vm)
        return ApplyResult(True)

    def _apply_demand_sample(self, event) -> ApplyResult:
        vm = self.controller._vm_by_id.get(event["vm_id"])
        if vm is None:
            return ApplyResult(False, "unknown_vm", f"vm {event['vm_id']}")
        vm.current_demand = float(event["demand"])
        return ApplyResult(True)

    def _apply_supply_update(self, event) -> ApplyResult:
        self.supply.set(event["budget"])
        return ApplyResult(True)

    def _apply_fault(self, event) -> ApplyResult:
        if not self.allow_faults:
            return ApplyResult(False, "faults_unsupported")
        from repro.plant_faults.schedule import (
            CircuitTrip,
            CoolingDegradation,
            ServerCrash,
        )

        kind = event["kind"]
        schedule = self.controller.plant_faults
        tick = self.tick
        if kind == "server_crash":
            server_id = self._resolve_leaf(event["server"])
            if server_id is None:
                return ApplyResult(False, "unknown_server")
            if schedule.is_crashed(server_id, tick):
                return ApplyResult(False, "already_crashed")
            window = ServerCrash(
                server_id, tick, tick + event.get("ticks", OPEN_END_TICK)
            )
            schedule = dataclasses.replace(
                schedule, crashes=schedule.crashes + (window,)
            )
        elif kind == "server_restart":
            server_id = self._resolve_leaf(event["server"])
            if server_id is None:
                return ApplyResult(False, "unknown_server")
            truncated = tuple(
                dataclasses.replace(c, end_tick=tick)
                if c.server_id == server_id and c.covers(tick) and tick > c.start_tick
                else c
                for c in schedule.crashes
            )
            if truncated == schedule.crashes:
                return ApplyResult(False, "not_crashed")
            schedule = dataclasses.replace(schedule, crashes=truncated)
        elif kind == "circuit_trip":
            node_id = self._resolve_internal(event["node"])
            if node_id is None:
                return ApplyResult(False, "unknown_node")
            if node_id in schedule.tripped_roots(tick):
                return ApplyResult(False, "already_tripped")
            window = CircuitTrip(
                node_id, tick, tick + event.get("ticks", OPEN_END_TICK)
            )
            schedule = dataclasses.replace(
                schedule, trips=schedule.trips + (window,)
            )
        elif kind == "circuit_restore":
            node_id = self._resolve_internal(event["node"])
            if node_id is None:
                return ApplyResult(False, "unknown_node")
            truncated = tuple(
                dataclasses.replace(t, end_tick=tick)
                if t.node_id == node_id and t.covers(tick) and tick > t.start_tick
                else t
                for t in schedule.trips
            )
            if truncated == schedule.trips:
                return ApplyResult(False, "not_tripped")
            schedule = dataclasses.replace(schedule, trips=truncated)
        elif kind == "cooling_derate":
            zone_id = None
            if "zone" in event:
                zone_id = self._resolve_internal(event["zone"])
                if zone_id is None:
                    return ApplyResult(False, "unknown_zone")
            window = CoolingDegradation(
                start_tick=tick,
                end_tick=tick + event.get("ticks", OPEN_END_TICK),
                derate=event["derate"],
                zone_id=zone_id,
                ramp_ticks=event.get("ramp_ticks", 4),
            )
            schedule = dataclasses.replace(
                schedule, cooling=schedule.cooling + (window,)
            )
        else:  # cooling_restore
            zone_id = None
            if "zone" in event:
                zone_id = self._resolve_internal(event["zone"])
                if zone_id is None:
                    return ApplyResult(False, "unknown_zone")
            truncated = tuple(
                dataclasses.replace(c, end_tick=tick)
                if c.zone_id == zone_id
                and c.start_tick < tick < c.end_tick
                else c
                for c in schedule.cooling
            )
            if truncated == schedule.cooling:
                return ApplyResult(False, "not_degraded")
            schedule = dataclasses.replace(schedule, cooling=truncated)
        self.controller.plant_faults = schedule
        return ApplyResult(True)


def decision_digest(collector: MetricsCollector) -> str:
    """SHA-256 over every decision-bearing collector table.

    Two runs produce the same digest iff their controllers made
    bit-identical decisions: per-server power/temperature/budget
    samples, switch samples, migrations, drops, unmatched deficits,
    plant-fault edges and the Eq. 9 imbalance series.  ``repr`` of a
    float is exact, so this is a bit-exactness check, not a tolerance.
    """
    h = hashlib.sha256()

    def feed(tag: str, rows) -> None:
        h.update(tag.encode())
        for row in rows:
            h.update(repr(row).encode())
            h.update(b"\n")

    def rows(table, *names):
        """The tuples of ``names`` per row, read off the columns."""
        return zip(*map(table.column, names or table.fields))

    feed("servers", rows(collector.server_samples))
    feed(
        "switches",
        rows(
            collector.switch_samples,
            "time", "switch_id", "base_traffic", "migration_traffic", "power",
        ),
    )
    # A migration's cause hashes as its value.
    cause = collector.migrations.fields.index("cause")
    feed(
        "migrations",
        (
            row[:cause] + (row[cause].value,) + row[cause + 1 :]
            for row in rows(collector.migrations)
        ),
    )
    feed("drops", rows(collector.drops))
    feed("unmatched", rows(collector.unmatched_deficits))
    feed("plant", rows(collector.plant_events))
    feed("imbalance", rows(collector.imbalance))
    return h.hexdigest()
