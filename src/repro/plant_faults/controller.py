"""Sensor-fault-tolerant Willow control with graceful degradation.

:class:`FaultTolerantWillowController` subclasses the scalar
:class:`WillowController` through the four plant hooks
(``_begin_tick`` / ``_allocation_due`` / ``_server_cap`` /
``_advance_plant``) plus the ``_may_wake`` veto, so an all-healthy
:class:`PlantFaultSchedule` reproduces the ideal controller's
trajectories bit for bit (the equivalence contract in
``tests/test_plant_faults.py``).

Degradation policies
--------------------
* **Server crashes** hard-stop the runtime (zero watts, VMs stranded);
  the controller evacuates stranded VMs onto surplus servers with the
  existing FFDLR machinery (cause ``EVACUATION``), retrying every tick
  until placed.  Restart pays the S3/S4 resume latency.
* **Thermal emergencies**: when a zone's ambient rises until the Eq. 3
  cap cannot even carry a server's static floor, the server is shut
  down (``thermal_shutdown``) and restarted only once the cap recovers
  with hysteresis.  This check models the on-die protection circuit,
  which acts on the true die temperature even when the management
  sensor is quarantined.
* **Cooling degradation** ramps the affected zone's inlet ambient
  toward :meth:`CoolingModel.degraded_supply_temperature` (clamped just
  below ``T_limit``), shrinking every thermal cap in the zone.
* **Circuit trips** zero the cap of every server under the tripped
  node; the allocator then starves the subtree and the ordinary
  deficit-driven migration path drains it.
* **Sensor faults** are mediated by :class:`SensorBank`: quarantined
  servers run open loop on the RC model with an uncertainty margin.

Every fault transition is recorded as a :class:`PlantEvent` and forces
a supply-side reallocation on the same tick, so stale budgets never
outlive the plant state that justified them.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Mapping, Optional

from repro.binpack.ffdlr import ffdlr_pack
from repro.binpack.items import Item, Receivers
from repro.cooling.model import CoolingModel
from repro.core.config import WillowConfig
from repro.core.controller import WillowController, build_willow
from repro.core.events import MigrationCause, PlantEvent
from repro.core.migration import PlannedMove
from repro.core.state import ServerRuntime, SleepState
from repro.metrics.collector import MetricsCollector
from repro.plant_faults.schedule import PlantFaultSchedule
from repro.plant_faults.sensors import SensorBank, SensorValidatorConfig
from repro.power.supply import SupplyTrace
from repro.topology.tree import Tree
from repro.workload.applications import SIMULATION_APPS

__all__ = ["FaultTolerantWillowController", "run_resilient"]

_EPS = 1e-9


class FaultTolerantWillowController(WillowController):
    """Willow under physical faults and lying sensors.

    Additional parameters
    ---------------------
    plant_faults:
        The :class:`PlantFaultSchedule` to inject (default: none).
    validator:
        Sensor validation tunables (:class:`SensorValidatorConfig`).
    cooling:
        :class:`CoolingModel` used to translate CRAC derates into
        rack-inlet temperatures.
    outside_temp:
        Outside air temperature (deg C) the degraded cooling mixes in.
    ambient_clamp_headroom:
        Degraded ambients are clamped to ``t_limit - headroom`` so the
        thermal model stays well defined; at the clamp the Eq. 3 cap
        sits below the static floor, which triggers thermal shutdown.
    recovery_margin_w:
        Cap hysteresis (watts above the static floor) required before a
        thermally shut-down server restarts or a sleeping one may wake.
    """

    def __init__(
        self,
        tree,
        config,
        supply,
        placement,
        *,
        plant_faults: Optional[PlantFaultSchedule] = None,
        validator: Optional[SensorValidatorConfig] = None,
        cooling: Optional[CoolingModel] = None,
        outside_temp: float = 35.0,
        ambient_clamp_headroom: float = 2.0,
        recovery_margin_w: float = 5.0,
        **kwargs,
    ):
        if not math.isfinite(outside_temp):
            raise ValueError(
                f"outside_temp must be finite, got {outside_temp}"
            )
        super().__init__(tree, config, supply, placement, **kwargs)
        if config.device_classes is not None:
            raise ValueError(
                "plant-fault layer does not support device classes yet; "
                "use the scalar controller"
            )
        if ambient_clamp_headroom <= 0:
            raise ValueError("ambient_clamp_headroom must be positive")
        if recovery_margin_w < 0:
            raise ValueError("recovery_margin_w must be non-negative")
        self.plant_faults = plant_faults or PlantFaultSchedule()
        self.validator = validator or SensorValidatorConfig()
        self.cooling = cooling or CoolingModel()
        self.outside_temp = outside_temp
        self.ambient_clamp_headroom = ambient_clamp_headroom
        self.recovery_margin_w = recovery_margin_w
        # Drawing the stream here never perturbs the others (name-keyed
        # independent generators), so a no-fault run stays bit-exact.
        self.sensors = SensorBank(
            self.servers,
            config,
            self.plant_faults,
            self.validator,
            rng=self.streams["sensor-noise"],
        )
        self._force_allocation = False
        self._crash_down: set = set()
        self._thermal_down: set = set()
        self._active_trip_roots: FrozenSet[int] = frozenset()
        self._tripped_leaves: FrozenSet[int] = frozenset()
        self._base_ambient: Dict[int, float] = {
            sid: server.thermal_params.t_ambient
            for sid, server in self.servers.items()
        }
        # Leaf sets per subtree root, for trips and cooling zones.
        self._subtree_leaves: Dict[int, FrozenSet[int]] = {
            node.node_id: frozenset(
                leaf.node_id for leaf in tree.subtree_leaves(node)
            )
            for node in tree
            if not node.is_leaf
        }
        self._all_leaves: FrozenSet[int] = frozenset(self.servers)

    # ------------------------------------------------------------ plant tick
    def _begin_tick(self, now: float) -> None:
        tick = self._tick_index
        self._apply_cooling(now, tick)
        self._apply_crashes(now, tick)
        self._apply_thermal_protection(now)
        self._apply_trips(now, tick)
        self._evacuate(now)

    def _record_event(self, now: float, kind: str, node_id: int, detail: str = "") -> None:
        self.collector.record_plant_event(
            PlantEvent(time=now, kind=kind, node_id=node_id, detail=detail)
        )

    # -- cooling -----------------------------------------------------------
    def _zone_leaves(self, zone_id: Optional[int]) -> FrozenSet[int]:
        if zone_id is None:
            return self._all_leaves
        if zone_id in self._subtree_leaves:
            return self._subtree_leaves[zone_id]
        if zone_id in self.servers:
            return frozenset((zone_id,))
        raise ValueError(f"unknown cooling zone node id {zone_id}")

    def _apply_cooling(self, now: float, tick: int) -> None:
        """Ramp each zone's ambient to match active CRAC derates."""
        events = self.plant_faults.cooling
        for event in events:
            zone = event.zone_id if event.zone_id is not None else self.tree.root.node_id
            if tick == event.start_tick:
                self._record_event(
                    now, "cooling_degraded", zone, f"derate={event.derate:.2f}"
                )
            elif tick == event.end_tick:
                self._record_event(now, "cooling_restored", zone)
        if not events:
            return
        for sid, server in self.servers.items():
            derate = 0.0
            for event in events:
                if sid in self._zone_leaves(event.zone_id):
                    derate = max(derate, event.effective_derate(tick))
            base = self._base_ambient[sid]
            target = self.cooling.degraded_supply_temperature(
                base, self.outside_temp, derate
            )
            ceiling = server.thermal_params.t_limit - self.ambient_clamp_headroom
            target = min(target, ceiling)
            if abs(target - server.thermal_params.t_ambient) > 1e-12:
                server.set_ambient(target)
                self._force_allocation = True

    def set_base_ambient(
        self, value: float, *, zone_id: Optional[int] = None
    ) -> None:
        """Move the supply-air setpoint for a zone (default: everywhere).

        This is the cooling *actuator* path (the predictive federation
        planner raises setpoints into a crunch), as opposed to the
        cooling *fault* path above.  The two compose: the new base is
        pushed through :meth:`CoolingModel.degraded_supply_temperature`
        at each server's **current** effective derate, so changing the
        setpoint mid-:class:`CoolingDegradation` re-anchors the ramp
        instead of silently resetting it -- the next ``_apply_cooling``
        tick continues ramping from the same new base.
        """
        tick = self._tick_index
        events = self.plant_faults.cooling
        for sid in sorted(self._zone_leaves(zone_id)):
            server = self.servers[sid]
            self._base_ambient[sid] = value
            derate = 0.0
            for event in events:
                if sid in self._zone_leaves(event.zone_id):
                    derate = max(derate, event.effective_derate(tick))
            target = self.cooling.degraded_supply_temperature(
                value, self.outside_temp, derate
            )
            ceiling = server.thermal_params.t_limit - self.ambient_clamp_headroom
            target = min(target, ceiling)
            if abs(target - server.thermal_params.t_ambient) > 1e-12:
                server.set_ambient(target)
                self._force_allocation = True

    # -- crashes -----------------------------------------------------------
    def _apply_crashes(self, now: float, tick: int) -> None:
        if not self.plant_faults.crashes:
            return
        for sid, server in self.servers.items():
            crashed = self.plant_faults.is_crashed(sid, tick)
            if crashed and sid not in self._crash_down:
                self._crash_down.add(sid)
                # A crash preempts any thermal shutdown bookkeeping.
                self._thermal_down.discard(sid)
                if server.sleep_state is not SleepState.FAILED:
                    server.fail()
                self._record_event(now, "server_crash", sid)
                self._force_allocation = True
            elif not crashed and sid in self._crash_down:
                self._crash_down.discard(sid)
                if self._thermally_unsafe(server):
                    # Restart blocked: the zone cannot even carry the
                    # static floor.  Hand over to thermal protection,
                    # which restarts once the cap recovers.
                    self._thermal_down.add(sid)
                else:
                    server.repair()
                    self._record_event(now, "server_restart", sid)
                self._force_allocation = True

    # -- thermal protection ------------------------------------------------
    def _ambient_cap(self, server: ServerRuntime) -> float:
        """Eq. 3 cap for a server *at* its zone ambient.

        The emergency policy keys off the environment, not transient
        load heat: a server that ran itself hot is already throttled by
        the ordinary Eq. 3 cap and cools on its own, but a zone whose
        ambient-cooled cap cannot even carry the static floor has no
        safe operating point at all.  (This is plant truth -- the
        protection circuit knows the zone it sits in regardless of what
        the management-plane sensor claims.)
        """
        return server.hard_cap(server.thermal_params.t_ambient)

    def _thermally_unsafe(self, server: ServerRuntime) -> bool:
        return self._ambient_cap(server) < server.model.static_power - _EPS

    def _thermally_recovered(self, server: ServerRuntime) -> bool:
        return (
            self._ambient_cap(server)
            >= server.model.static_power + self.recovery_margin_w
        )

    def _apply_thermal_protection(self, now: float) -> None:
        for sid, server in self.servers.items():
            if sid in self._crash_down:
                continue
            if server.sleep_state in (SleepState.AWAKE, SleepState.WAKING):
                if self._thermally_unsafe(server):
                    server.fail()
                    self._thermal_down.add(sid)
                    self._record_event(
                        now,
                        "thermal_shutdown",
                        sid,
                        f"ambient={server.thermal_params.t_ambient:.1f}",
                    )
                    self._force_allocation = True
            elif sid in self._thermal_down:
                if self._thermally_recovered(server):
                    self._thermal_down.discard(sid)
                    server.repair()
                    self._record_event(now, "server_recovered", sid)
                    self._force_allocation = True

    # -- circuit trips -----------------------------------------------------
    def _apply_trips(self, now: float, tick: int) -> None:
        roots = frozenset(self.plant_faults.tripped_roots(tick))
        if roots == self._active_trip_roots:
            return
        for node_id in sorted(roots - self._active_trip_roots):
            self._record_event(now, "circuit_trip", node_id)
        for node_id in sorted(self._active_trip_roots - roots):
            self._record_event(now, "circuit_restore", node_id)
        self._active_trip_roots = roots
        leaves: set = set()
        for node_id in roots:
            if node_id in self._subtree_leaves:
                leaves |= self._subtree_leaves[node_id]
            elif node_id in self.servers:
                leaves.add(node_id)
            else:
                raise ValueError(f"unknown trip node id {node_id}")
        self._tripped_leaves = frozenset(leaves)
        self._force_allocation = True

    # -- evacuation --------------------------------------------------------
    def _evacuate(self, now: float) -> None:
        """Move VMs stranded on FAILED servers onto surplus hosts.

        One FFDLR pass over all eligible targets; the unidirectional
        rule is deliberately *not* consulted -- evacuating a crashed
        host is an emergency, not load balancing.  Unplaced VMs stay
        stranded (their demand drops each tick) and are retried next
        tick as budgets shift.
        """
        stranded: List[ServerRuntime] = [
            s
            for s in self.servers.values()
            if s.sleep_state is SleepState.FAILED and s.vms
        ]
        if not stranded:
            return
        capacity: Dict[int, float] = {}
        for sid, server in self.servers.items():
            if not server.is_awake or sid in self._tripped_leaves:
                continue
            if server.raw_demand > server.budget + _EPS:
                continue  # deficient servers never receive
            cap = self.migration_planner._target_capacity(server)
            if cap > _EPS:
                capacity[sid] = cap
        if not capacity:
            return
        items: List[Item] = []
        src_of: Dict[int, ServerRuntime] = {}
        for server in stranded:
            for vm in sorted(server.vms.values(), key=lambda v: v.vm_id):
                items.append(
                    Item(key=vm.vm_id, size=vm.current_demand, payload=vm)
                )
                src_of[vm.vm_id] = server
        keys = sorted(capacity)
        result = ffdlr_pack(items, Receivers(keys, [capacity[sid] for sid in keys]))
        moves: List[PlannedMove] = []
        for bin_ in result.bins:
            for item in bin_.contents:
                moves.append(
                    PlannedMove(
                        vm=item.payload,
                        src=src_of[item.key].node,
                        dst=self.servers[bin_.key].node,
                    )
                )
        if moves:
            self._execute_moves(moves, MigrationCause.EVACUATION, now)

    # ----------------------------------------------------------- hook wiring
    def _allocation_due(self) -> bool:
        due = super()._allocation_due() or self._force_allocation
        self._force_allocation = False
        return due

    def _server_cap(self, server: ServerRuntime) -> float:
        sid = server.node.node_id
        if sid in self._tripped_leaves:
            return 0.0
        if server.sleep_state is SleepState.FAILED:
            return 0.0
        believed = self.sensors.cap_temperature(server)
        if believed is None:
            return server.hard_cap()
        return server.hard_cap(believed)

    def _advance_plant(self, server: ServerRuntime, wall: float, dt: float) -> float:
        truth = server.update_temperature(wall, dt)
        transitions = self.sensors.observe(
            server, truth, wall, self._tick_index
        )
        for kind, detail in transitions:
            event_kind = (
                "sensor_quarantine" if kind == "quarantine" else "sensor_restore"
            )
            self._record_event(
                self.env.now, event_kind, server.node.node_id, detail
            )
            self._force_allocation = True
        return truth

    def _may_wake(self, server: ServerRuntime) -> bool:
        sid = server.node.node_id
        if sid in self._tripped_leaves:
            return False
        return self._thermally_recovered(server)

    # --------------------------------------------------- checkpoint/restore
    def snapshot_state(self) -> Dict:
        state = super().snapshot_state()
        # The schedule travels with the snapshot: live fault events
        # replace it wholesale (dataclasses.replace), so the restored
        # run must see the schedule as of the snapshot, not as built.
        state["plant"] = {
            "schedule": self.plant_faults,
            "force_allocation": self._force_allocation,
            "crash_down": set(self._crash_down),
            "thermal_down": set(self._thermal_down),
            "active_trip_roots": self._active_trip_roots,
            "tripped_leaves": self._tripped_leaves,
            "sensors": self.sensors.state_dict(),
            # Mutable since setpoint actuation landed; older snapshots
            # without the key restore to the as-built bases.
            "base_ambient": dict(self._base_ambient),
        }
        return state

    def restore_state(self, state: Dict) -> None:
        super().restore_state(state)
        plant = state["plant"]
        self.plant_faults = plant["schedule"]
        # The sensor bank holds its own schedule reference; keep it
        # pointed at the restored schedule object.
        self.sensors.schedule = self.plant_faults
        self._force_allocation = plant["force_allocation"]
        self._crash_down = set(plant["crash_down"])
        self._thermal_down = set(plant["thermal_down"])
        self._active_trip_roots = frozenset(plant["active_trip_roots"])
        self._tripped_leaves = frozenset(plant["tripped_leaves"])
        self.sensors.load_state_dict(plant["sensors"])
        if "base_ambient" in plant:
            self._base_ambient = dict(plant["base_ambient"])


def run_resilient(
    *,
    tree: Optional[Tree] = None,
    config: Optional[WillowConfig] = None,
    supply: Optional[SupplyTrace] = None,
    plant_faults: Optional[PlantFaultSchedule] = None,
    validator: Optional[SensorValidatorConfig] = None,
    cooling: Optional[CoolingModel] = None,
    outside_temp: float = 35.0,
    target_utilization: float = 0.4,
    n_ticks: int = 100,
    seed: int = 0,
    apps: tuple = SIMULATION_APPS,
    vms_per_server: int = 4,
    ambient_overrides: Optional[Mapping[str, float]] = None,
    collector: Optional[MetricsCollector] = None,
    tracer=None,
) -> tuple:
    """Build and run a fault-injected Willow simulation in one call.

    Mirrors :func:`repro.core.controller.run_willow`; with
    ``plant_faults=None`` (or an empty schedule) the run is bit-exact
    with the ideal-plant controller at the same seed.

    Returns ``(controller, collector)``.
    """
    controller = build_willow(
        FaultTolerantWillowController,
        tree=tree,
        config=config,
        supply=supply,
        target_utilization=target_utilization,
        seed=seed,
        apps=apps,
        vms_per_server=vms_per_server,
        plant_faults=plant_faults,
        validator=validator,
        cooling=cooling,
        outside_temp=outside_temp,
        ambient_overrides=ambient_overrides,
        collector=collector,
        tracer=tracer,
    )
    out = controller.run(n_ticks)
    return controller, out
