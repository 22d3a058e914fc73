"""The Willow control loop (paper Sec. IV, evaluated in Sec. V).

:class:`WillowController` wires together every substrate -- the
hierarchy tree, switch fabric, workload, power/thermal models, FFDLR
matching -- and drives the three nested control cadences on the DES
kernel:

* every ``Delta_D``  (1 tick):   demand sampling, smoothing, upward
  demand reports, demand-driven migrations, drops, power/thermal
  bookkeeping;
* every ``Delta_S = eta1 ticks``: supply-side budget allocation from
  the root supply trace, downward budget directives;
* every ``Delta_A = eta2 ticks``: consolidation (drain + sleep) and
  wake decisions.

Quantity conventions: node-level demands/budgets/surpluses are *wall
watts*; VM demands are *dynamic watts* (the static floor stays with the
server, so moving a VM moves only its dynamic power).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Protocol

from repro.core.config import WillowConfig
from repro.core.consolidation import ConsolidationPlanner
from repro.core.events import (
    ControlMessage,
    Drop,
    Migration,
    MigrationCause,
)
from repro.core.migration import MigrationPlanner, PlannedMove
from repro.core.state import NodeRuntime, ServerRuntime
from repro.core.deficits import power_imbalance
from repro.metrics.collector import MetricsCollector, ServerSample, SwitchSample
from repro.power.budget import allocate_proportional
from repro.power.supply import SupplyTrace, constant_supply
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams
from repro.thermal.model import ThermalParams
from repro.trace.tracer import Tracer, active_tracer
from repro.topology.switches import SwitchFabric
from repro.topology.tree import Node, Tree
from repro.workload.applications import SIMULATION_APPS
from repro.workload.generator import (
    DemandGenerator,
    PlacementPlan,
    random_placement,
    scale_for_target_utilization,
)

__all__ = [
    "DemandSource",
    "WillowController",
    "build_willow",
    "run_willow",
    "seeded_placement",
]

_EPS = 1e-9


class DemandSource(Protocol):
    """Anything that can produce one tick of per-host demand."""

    def sample_tick(self) -> Mapping[int, float]:  # pragma: no cover
        """Update every VM's ``current_demand``; return demand per host."""
        ...


class WillowController:
    """Runs Willow over one data center.

    Parameters
    ----------
    tree:
        The power-control hierarchy (servers are the leaves).
    config:
        All tunables; see :class:`WillowConfig`.
    supply:
        Root power budget over time.
    placement:
        Initial VM placement (``plan.vms`` host ids must be leaf node
        ids of ``tree``).
    demand_source:
        Produces per-tick VM demands; defaults to a Poisson
        :class:`DemandGenerator` over ``placement`` seeded by ``seed``.
    ambient_overrides:
        Map of server *name* -> ambient temperature, for hot/cold zones
        (e.g. the Fig. 5 setup puts servers 15-18 at 40 C).
    """

    def __init__(
        self,
        tree: Tree,
        config: WillowConfig,
        supply: SupplyTrace,
        placement: PlacementPlan,
        *,
        demand_source: Optional[DemandSource] = None,
        ambient_overrides: Optional[Mapping[str, float]] = None,
        fabric: Optional[SwitchFabric] = None,
        collector: Optional[MetricsCollector] = None,
        seed: int = 0,
        ipc_graph=None,
        tracer: Optional[Tracer] = None,
    ):
        self.tree = tree
        self.config = config
        self.supply = supply
        self.placement = placement
        self.fabric = fabric or SwitchFabric(tree)
        self.collector = collector or MetricsCollector()
        self.env = Environment()
        self.streams = RandomStreams(seed)
        self.demand_source: DemandSource = demand_source or DemandGenerator(
            placement, self.streams
        )

        ambient_overrides = dict(ambient_overrides or {})
        self.servers: Dict[int, ServerRuntime] = {}
        for leaf in tree.servers():
            params: ThermalParams = config.thermal
            if leaf.name in ambient_overrides:
                params = params.with_ambient(ambient_overrides[leaf.name])
            self.servers[leaf.node_id] = ServerRuntime(leaf, config, params)
        if not self.servers:
            raise ValueError("tree has no servers")

        self.internals: Dict[int, NodeRuntime] = {
            node.node_id: NodeRuntime(node, config)
            for node in tree
            if not node.is_leaf
        }

        # Attach VMs to their servers.
        for vm in placement.vms:
            runtime = self.servers.get(vm.host_id)
            if runtime is None:
                raise ValueError(
                    f"VM {vm.vm_id} placed on unknown server id {vm.host_id}"
                )
            runtime.vms[vm.vm_id] = vm

        self.migration_planner = MigrationPlanner(
            tree, config, ipc_graph=ipc_graph
        )
        self.consolidation_planner = ConsolidationPlanner(tree, config)

        #: Optional inter-VM communication graph
        #: (:class:`repro.workload.affinity.AffinityGraph`).  Edges whose
        #: endpoints sit on different servers add their rate to the
        #: switches between the hosts every tick.
        self.ipc_graph = ipc_graph
        self._vm_by_id = {vm.vm_id: vm for vm in placement.vms}
        self._path_cache: Dict[tuple, list] = {}

        #: Observer hooks: ``on_tick(controller, tick_index, now)`` runs
        #: at the end of every tick; ``on_migration(controller,
        #: migration)`` right after each executed move.  For user
        #: instrumentation (custom logging, live dashboards, invariant
        #: checking) without subclassing.
        self.on_tick: List = []
        self.on_migration: List = []

        #: Observability: the tick tracer (see :mod:`repro.trace`).
        #: Defaults to the ambient tracer -- the shared no-op
        #: ``NULL_TRACER`` unless a ``tracing(...)`` block is active --
        #: so tracing costs one attribute check per call site when off.
        self.tracer = tracer if tracer is not None else active_tracer()
        if self.tracer.enabled:
            self.tracer.write_meta(
                tree, config, controller=type(self).__name__
            )
        self.collector.tracer = self.tracer

        self.root_budget: float = 0.0
        self._tick_index = 0
        self._dropped_since_consolidation = 0.0
        self._tick_migration_traffic: Dict[int, float] = {}
        self._last_switch_power: Dict[int, float] = {
            s.switch_id: config.switch_model.static_power
            for s in self.fabric.switches
        }

    # ------------------------------------------------------------------ run
    def run(self, n_ticks: int) -> MetricsCollector:
        """Run ``n_ticks`` demand windows and return the metrics."""
        if n_ticks < 1:
            raise ValueError(f"n_ticks must be >= 1, got {n_ticks}")

        def loop():
            for _ in range(n_ticks):
                self._tick()
                yield self.env.timeout(self.config.delta_d)

        self.env.process(loop())
        self.env.run()
        self.tracer.flush()
        return self.collector

    # ----------------------------------------------------------------- tick
    def _tick(self) -> None:
        now = self.env.now
        config = self.config
        tracer = self.tracer
        if tracer.enabled:
            # Open this tick's frame before the plant hook so fault
            # edges recorded there land in the right frame.
            tracer.begin_tick(self._tick_index, now)
        self._tick_migration_traffic = {}

        # 0. housekeeping: expire migration costs, advance wake latency.
        for server in self.servers.values():
            server.expire_costs()
            server.tick_wake()

        # 0b. plant-fault hook: crash/restart windows, cooling ramps,
        # circuit trips and emergency evacuations advance here, before
        # demand is sampled (no-op in the ideal plant).
        self._begin_tick(now)

        # 1. sample this tick's demand.
        self.demand_source.sample_tick()

        # 2. smooth and report demand up the hierarchy.
        for server in self.servers.values():
            server.observe_demand()
        self._aggregate_demands(now)

        # 3. supply-side adaptation every Delta_S (or sooner, when a
        # plant fault invalidated the standing allocation).
        if self._allocation_due():
            self._allocate_budgets(now)

        if tracer.enabled:
            for server in self.servers.values():
                tracer.record_demand(
                    server.node.node_id,
                    server.raw_demand,
                    server.smoothed_demand,
                    server.budget,
                )

        # 4. demand-side migrations (constraint tightening only).
        # Unmatched deficits are NOT shut off wholesale: the VM stays on
        # its host and runs degraded, i.e. its service is throttled to
        # the budget in step 6 (Sec. IV-E: applications "run in a
        # degraded operational mode to stay within the power budget").
        plan = self.migration_planner.plan(self.servers, self.internals)
        self._execute_moves(plan.moves, MigrationCause.DEMAND, now)
        for vm, node in plan.dropped:
            self.collector.record_unmatched(
                Drop(now, node.node_id, vm.vm_id, vm.current_demand)
            )

        # 5. consolidation every Delta_A.
        if (
            self._tick_index > 0
            and self._tick_index % config.eta2 == 0
        ):
            self._consolidate(now)

        # 6. serve power within budget; throttle any residual excess.
        total_demand = 0.0
        for server in self.servers.values():
            total_demand += server.raw_demand
            if not server.is_awake:
                server.served_power = 0.0
                # A non-awake server normally hosts nothing; after a
                # crash, VMs stranded on it (awaiting evacuation) lose
                # their whole demand this tick.
                for vm in sorted(
                    server.vms.values(),
                    key=lambda v: (v.app.priority, v.vm_id),
                ):
                    if vm.current_demand > _EPS:
                        self.collector.record_drop(
                            Drop(
                                now,
                                server.node.node_id,
                                vm.vm_id,
                                vm.current_demand,
                            )
                        )
                        self._dropped_since_consolidation += vm.current_demand
                continue
            available = max(
                server.budget
                - server.model.static_power
                - server.migration_cost_demand,
                0.0,
            )
            server.served_power = self._serve_vms(server, available, now)

        # 7. thermal update and per-server sample.
        for server in self.servers.values():
            wall = server.actual_power()
            temperature = self._advance_plant(server, wall, config.delta_d)
            self.collector.record_server(
                ServerSample(
                    time=now,
                    server_id=server.node.node_id,
                    power=wall,
                    temperature=temperature,
                    utilization=server.utilization,
                    demand=server.raw_demand,
                    budget=server.budget,
                    asleep=not server.is_awake,
                )
            )

        # 8. switch traffic and power.
        self._record_switches(now)

        # 9. level-0 imbalance (Eq. 9).
        demands = [s.raw_demand for s in self.servers.values()]
        budgets = [s.budget for s in self.servers.values()]
        self.collector.record_imbalance(now, power_imbalance(demands, budgets))

        for hook in self.on_tick:
            hook(self, self._tick_index, now)

        self._tick_index += 1

    # ------------------------------------------------------------- serving
    def _serve_vms(
        self, server: ServerRuntime, available: float, now: float
    ) -> float:
        """Serve ``server``'s VMs from ``available`` watts; return the
        watts served.

        VMs are served in priority order (lower priority value first)
        so higher QoS classes degrade last; unserved watts are recorded
        per VM for per-class accounting.  Each demand is read once: on
        an array site it is a view onto the site's demand lane.
        """
        served = 0.0
        for vm in sorted(
            server.vms.values(), key=lambda v: (v.app.priority, v.vm_id)
        ):
            demand = vm.current_demand
            if demand <= 0:
                continue
            grant = min(demand, available - served)
            grant = max(grant, 0.0)
            unserved = demand - grant
            if unserved > _EPS:
                self.collector.record_drop(
                    Drop(now, server.node.node_id, vm.vm_id, unserved)
                )
                self._dropped_since_consolidation += unserved
            served += grant
        return served

    # ------------------------------------------------ plant-fault hooks
    def _begin_tick(self, now: float) -> None:
        """Hook: the plant-fault layer advances fault state here.

        Runs after housekeeping and before demand sampling.  The ideal
        plant has no faults, so the base implementation does nothing.
        """

    def _allocation_due(self) -> bool:
        """Is a supply-side allocation due this tick?

        The base cadence is every ``eta1`` ticks (Delta_S); fault-aware
        subclasses also force one when a fault transition invalidated
        the standing budgets (circuit trip, crash, ambient change).
        """
        return self._tick_index % self.config.eta1 == 0

    def _server_cap(self, server: ServerRuntime) -> float:
        """Hook: the hard cap the allocator sees for ``server``.

        The ideal plant trusts the true thermal state; the sensor-fault
        layer substitutes its *believed* temperature (possibly with an
        uncertainty margin) and zero for tripped or failed nodes.
        """
        return server.hard_cap()

    def _advance_plant(self, server: ServerRuntime, wall: float, dt: float) -> float:
        """Hook: advance the physical plant one tick; return the truth.

        The fault layer wraps this to also produce the *measured*
        temperature through the sensor models.
        """
        return server.update_temperature(wall, dt)

    def _may_wake(self, server: ServerRuntime) -> bool:
        """Hook: may consolidation wake this sleeping server now?

        The fault layer vetoes wakes into tripped circuits or zones too
        hot to even pay the static floor; the ideal plant allows all.
        """
        return True

    # -------------------------------------------- federation hosting hooks
    def vm_departed(self, vm) -> None:
        """Hook: a federation coordinator moved ``vm`` off this site.

        The scalar controller reads hosting straight from the
        ``server.vms`` dicts the coordinator already rewired, so there
        is nothing to do; the vectorized controller overrides this to
        keep its batched per-host index in sync.
        """

    def vm_arrived(self, vm, dst_node_id: int) -> None:
        """Hook: a federation coordinator placed ``vm`` on this site's
        server ``dst_node_id``.  See :meth:`vm_departed`."""

    # ------------------------------------------------------- demand reports
    def _aggregate_demands(self, now: float) -> None:
        """Propagate smoothed demand bottom-up; one message per link."""
        for level in range(1, self.tree.root.level + 1):
            for node in self.tree.nodes_at_level(level):
                total = 0.0
                for child in node.children:
                    if child.is_leaf:
                        total += self.servers[child.node_id].smoothed_demand
                    else:
                        total += self.internals[child.node_id].smoothed_demand
                    self.collector.record_message(
                        ControlMessage(now, link=child.node_id, upward=True)
                    )
                self.internals[node.node_id].observe_demand(total)

    # ------------------------------------------------------- supply side
    def _allocate_budgets(self, now: float) -> None:
        """Proportional top-down division with hard caps (Sec. IV-D)."""
        caps: Dict[int, float] = {}
        for server in self.servers.values():
            caps[server.node.node_id] = self._server_cap(server)
        for level in range(1, self.tree.root.level + 1):
            for node in self.tree.nodes_at_level(level):
                caps[node.node_id] = sum(
                    caps[child.node_id] for child in node.children
                )

        self.root_budget = self.supply.at(now)
        root_cap = caps[self.tree.root.node_id]
        self.internals[self.tree.root.node_id].set_budget(
            min(self.root_budget, root_cap)
        )
        if self.tracer.enabled:
            self.tracer.record_root(
                self.root_budget, root_cap, min(self.root_budget, root_cap)
            )

        for level in range(self.tree.root.level, 0, -1):
            for node in self.tree.nodes_at_level(level):
                runtime = self.internals[node.node_id]
                budget = runtime.budget
                # Reserve the colocated switch group's draw off the top.
                reserve = sum(
                    self._last_switch_power[s.switch_id]
                    for s in self.fabric.at_site(node)
                )
                budget = max(budget - reserve, 0.0)
                demands = []
                child_caps = []
                for child in node.children:
                    if child.is_leaf:
                        demands.append(self.servers[child.node_id].smoothed_demand)
                    else:
                        demands.append(self.internals[child.node_id].smoothed_demand)
                    child_caps.append(caps[child.node_id])
                if self.config.allocation_mode == "capacity":
                    # Equal split for identical capacities (testbed mode);
                    # the cap limits still apply inside the allocator.
                    weights = list(child_caps)
                else:
                    weights = demands
                allocations, _unused = allocate_proportional(
                    budget, weights, child_caps
                )
                for child, allocation in zip(node.children, allocations):
                    if child.is_leaf:
                        self.servers[child.node_id].set_budget(allocation)
                    else:
                        self.internals[child.node_id].set_budget(allocation)
                    self.collector.record_message(
                        ControlMessage(now, link=child.node_id, upward=False)
                    )
                if self.tracer.enabled:
                    for child, allocation, weight, cap in zip(
                        node.children, allocations, weights, child_caps
                    ):
                        self.tracer.record_allocation(
                            child.node_id,
                            node.node_id,
                            child.level,
                            allocation,
                            weight,
                            cap,
                            budget,
                            reserve,
                            leaf=child.is_leaf,
                            circuit_limit=(
                                self.config.circuit_limit
                                if child.is_leaf
                                else None
                            ),
                        )

    # ------------------------------------------------------ migrations
    def _execute_moves(
        self, moves: Iterable[PlannedMove], cause: MigrationCause, now: float
    ) -> None:
        config = self.config
        tracer = self.tracer
        for move in moves:
            src = self.servers[move.src.node_id]
            dst = self.servers[move.dst.node_id]
            vm = move.vm
            if tracer.enabled:
                # Eq. 5-9 decision inputs, captured before the move
                # mutates either runtime: the source's budget deficit
                # and the destination's surplus after the p_min margin
                # and the migration's own temporary power cost.
                src_deficit = src.smoothed_demand - src.budget
                dst_surplus = (
                    dst.budget
                    - dst.smoothed_demand
                    - config.p_min
                    - config.migration_cost_power
                )
            del src.vms[vm.vm_id]
            dst.vms[vm.vm_id] = vm
            vm.place(dst.node.node_id, now)
            src.charge_migration_cost(
                config.migration_cost_power, config.migration_cost_ticks
            )
            dst.charge_migration_cost(
                config.migration_cost_power, config.migration_cost_ticks
            )
            traffic = vm.current_demand * config.migration_traffic_factor
            for switch, share in self.fabric.path(move.src, move.dst):
                self._tick_migration_traffic[switch.switch_id] = (
                    self._tick_migration_traffic.get(switch.switch_id, 0.0)
                    + traffic * share
                )
            record = Migration(
                time=now,
                vm_id=vm.vm_id,
                src_id=move.src.node_id,
                dst_id=move.dst.node_id,
                demand=vm.current_demand,
                cause=cause,
                local=move.local,
                hops=self.fabric.hop_count(move.src, move.dst),
                cost_power=config.migration_cost_power,
            )
            self.collector.record_migration(record)
            if tracer.enabled:
                tracer.record_migration(
                    vm.vm_id,
                    move.src.node_id,
                    move.dst.node_id,
                    vm.current_demand,
                    cause.value,
                    move.local,
                    src_deficit,
                    dst_surplus,
                )
            for hook in self.on_migration:
                hook(self, record)

    # ------------------------------------------------------ consolidation
    def _consolidate(self, now: float) -> List[ServerRuntime]:
        """Run the η₂ consolidation plan; return the servers it put to
        sleep or began to wake."""
        plan = self.consolidation_planner.plan(
            self.servers,
            self.internals,
            recent_dropped_power=self._dropped_since_consolidation,
            root_budget=self.root_budget,
            total_demand=self._total_demand(),
        )
        self._execute_moves(plan.moves, MigrationCause.CONSOLIDATION, now)
        changed = []
        for server in plan.to_sleep:
            if not server.vms:  # all moves executed; drain complete
                server.sleep()
                changed.append(server)
        for server in plan.to_wake:
            if not self._may_wake(server):
                continue
            server.begin_wake()
            changed.append(server)
            # Prime the demand forecast with the unserved demand the
            # server is being woken to absorb: budgets derive from
            # smoothed demand, so without this the woken server would
            # receive no budget, attract no migrations, and be drained
            # again (sleep/wake thrash).  This is the paper's step 2:
            # surplus "harnessed by bringing in additional workload".
            per_tick_dropped = self._dropped_since_consolidation / max(
                self.config.eta2, 1
            )
            forecast = min(
                self._server_cap(server),
                server.model.static_power + per_tick_dropped,
            )
            server.smoother.reset(initial=forecast)
            server.smoothed_demand = forecast
        self._dropped_since_consolidation = 0.0
        return changed

    def _total_demand(self) -> float:
        """This tick's raw wall demand over every server, summed in
        fleet order."""
        return sum(s.raw_demand for s in self.servers.values())

    # ------------------------------------------------------------ switches
    def _record_switches(self, now: float) -> None:
        """Base traffic = served demand in the subtree; plus migrations."""
        model = self.config.switch_model
        served_below: Dict[int, float] = {}
        for server in self.servers.values():
            served_below[server.node.node_id] = server.served_power
        for level in range(1, self.tree.root.level + 1):
            for node in self.tree.nodes_at_level(level):
                served_below[node.node_id] = sum(
                    served_below[child.node_id] for child in node.children
                )
        ipc_traffic = self._ipc_traffic()
        for switch in self.fabric.switches:
            base = served_below[switch.site.node_id] / switch.redundancy
            base += ipc_traffic.get(switch.switch_id, 0.0)
            migration = self._tick_migration_traffic.get(switch.switch_id, 0.0)
            power = model.power(base + migration)
            self._last_switch_power[switch.switch_id] = power
            self.collector.record_switch(
                SwitchSample(
                    time=now,
                    switch_id=switch.switch_id,
                    level=switch.level,
                    base_traffic=base,
                    migration_traffic=migration,
                    power=power,
                )
            )

    def _ipc_traffic(self) -> Dict[int, float]:
        """IPC traffic per switch id: cross-host affinity edges load the
        switches on the path between the two hosts (future-work
        workload model)."""
        ipc_traffic: Dict[int, float] = {}
        if self.ipc_graph is None:
            return ipc_traffic
        for vm_a, vm_b, rate in self.ipc_graph.edges():
            host_a = self._vm_by_id[vm_a].host_id
            host_b = self._vm_by_id[vm_b].host_id
            if host_a == host_b:
                continue
            key = (host_a, host_b) if host_a < host_b else (host_b, host_a)
            if key not in self._path_cache:
                self._path_cache[key] = self.fabric.path(
                    self.tree.node(key[0]), self.tree.node(key[1])
                )
            for switch, share in self._path_cache[key]:
                ipc_traffic[switch.switch_id] = (
                    ipc_traffic.get(switch.switch_id, 0.0) + rate * share
                )
        return ipc_traffic

    # ------------------------------------------------------------- helpers
    @property
    def vms(self) -> List:
        """All VMs in the run (for stability analysis)."""
        return list(self.placement.vms)

    def server_by_name(self, name: str) -> ServerRuntime:
        """Look up a server runtime by its tree node name."""
        return self.servers[self.tree.by_name(name).node_id]

    # --------------------------------------------------- checkpoint/restore
    def _demand_source_state(self):
        source = self.demand_source
        state_dict = getattr(source, "state_dict", None)
        if state_dict is None:
            from repro.checkpoint.errors import CheckpointError

            raise CheckpointError(
                f"demand source {type(source).__name__} does not support "
                "checkpointing; give it state_dict()/load_state_dict()"
            )
        return state_dict()

    def snapshot_state(self) -> Dict:
        """Capture every mutable between-tick quantity of this run.

        The snapshot pairs with :meth:`restore_state` on a *freshly
        constructed* controller built from identical inputs (tree,
        config, supply, placement recipe, seed): construction-derived
        structure is rebuilt, run state is overlaid, and the resumed run
        reproduces the uninterrupted run bit-exactly.  VM objects are
        stored directly (one pickle payload preserves identity/sharing);
        the metrics tables are stored as columns
        (:meth:`~repro.metrics.collector.MetricsCollector.snapshot_tables`);
        caches (`_path_cache`) and within-tick transients
        (`_tick_migration_traffic`) are deliberately excluded.

        Valid capture points are *between* ticks, or inside an
        ``on_tick`` hook with the tick/clock fixup
        :class:`repro.checkpoint.Checkpointer` applies.
        """
        if self.config.device_classes is not None:
            from repro.checkpoint.errors import CheckpointError

            raise CheckpointError(
                "checkpointing runs with device_classes is not supported yet"
            )
        servers: Dict[int, Dict] = {}
        for sid, s in self.servers.items():
            servers[sid] = {
                "budget": s.budget,
                "previous_budget": s.previous_budget,
                "budget_reduced": s.budget_reduced,
                "sleep_state": s.sleep_state,
                "wake_ticks_left": s.wake_ticks_left,
                "pending_costs": dict(s._pending_costs),
                "raw_demand": s.raw_demand,
                "smoothed_demand": s.smoothed_demand,
                "served_power": s.served_power,
                "asleep_ticks": s.asleep_ticks,
                "failed_ticks": s.failed_ticks,
                "smoother_value": s.smoother._value,
                "t_ambient": s.thermal_params.t_ambient,
                "temperature": s.thermal.temperature,
                "peak": s.thermal.peak,
                "violations": s.thermal.violations,
            }
        internals: Dict[int, Dict] = {}
        for nid, n in self.internals.items():
            internals[nid] = {
                "budget": n.budget,
                "previous_budget": n.previous_budget,
                "budget_reduced": n.budget_reduced,
                "smoothed_demand": n.smoothed_demand,
                "smoother_value": n.smoother._value,
            }
        return {
            "controller": type(self).__name__,
            "tick": self._tick_index,
            "now": self.env.now,
            "root_budget": self.root_budget,
            "dropped_since_consolidation": self._dropped_since_consolidation,
            "last_switch_power": dict(self._last_switch_power),
            "streams": self.streams.state_dict(),
            "demand_source": self._demand_source_state(),
            "placement_vms": list(self.placement.vms),
            "placement_scale": self.placement.scale,
            "vm_by_id": dict(self._vm_by_id),
            "server_vms": {sid: dict(s.vms) for sid, s in self.servers.items()},
            "servers": servers,
            "internals": internals,
            "collector": self.collector.snapshot_tables(),
        }

    def restore_state(self, state: Dict) -> None:
        """Overlay a :meth:`snapshot_state` dict onto this fresh controller.

        Must be called before :meth:`run`; the controller must have been
        constructed from the same inputs as the snapshotted one (same
        tree/config shape — validated by node-id sets — and the same
        seed, validated by the stream snapshot).
        """
        from repro.checkpoint.errors import CheckpointError

        if set(state["servers"]) != set(self.servers) or set(
            state["internals"]
        ) != set(self.internals):
            raise CheckpointError(
                "snapshot topology does not match this controller's tree"
            )
        self._tick_index = int(state["tick"])
        self.env.advance(float(state["now"]) - self.env.now)
        self.root_budget = state["root_budget"]
        self._dropped_since_consolidation = state["dropped_since_consolidation"]
        self._last_switch_power = dict(state["last_switch_power"])
        try:
            self.streams.load_state_dict(state["streams"])
        except ValueError as error:
            raise CheckpointError(str(error)) from None
        load = getattr(self.demand_source, "load_state_dict", None)
        if load is None:
            raise CheckpointError(
                f"demand source {type(self.demand_source).__name__} does not "
                "support checkpointing"
            )
        load(state["demand_source"])

        # Adopt the snapshot's VM objects wholesale: live runs may hold
        # VMs (arrivals, federation guests) that a fresh construction
        # cannot know about.  placement.vms is mutated in place so the
        # demand source's plan reference stays coherent.
        self.placement.vms[:] = state["placement_vms"]
        self.placement.scale = state["placement_scale"]
        self._vm_by_id = dict(state["vm_by_id"])
        for sid, runtime in self.servers.items():
            runtime.vms = dict(state["server_vms"][sid])
            data = state["servers"][sid]
            runtime.budget = data["budget"]
            runtime.previous_budget = data["previous_budget"]
            runtime.budget_reduced = data["budget_reduced"]
            runtime.sleep_state = data["sleep_state"]
            runtime.wake_ticks_left = data["wake_ticks_left"]
            runtime._pending_costs = dict(data["pending_costs"])
            runtime.raw_demand = data["raw_demand"]
            runtime.smoothed_demand = data["smoothed_demand"]
            runtime.served_power = data["served_power"]
            runtime.asleep_ticks = data["asleep_ticks"]
            runtime.failed_ticks = data["failed_ticks"]
            runtime.smoother._value = data["smoother_value"]
            if data["t_ambient"] != runtime.thermal_params.t_ambient:
                runtime.set_ambient(data["t_ambient"])
            runtime.thermal.temperature = data["temperature"]
            runtime.thermal.peak = data["peak"]
            runtime.thermal.violations = data["violations"]
        for nid, runtime in self.internals.items():
            data = state["internals"][nid]
            runtime.budget = data["budget"]
            runtime.previous_budget = data["previous_budget"]
            runtime.budget_reduced = data["budget_reduced"]
            runtime.smoothed_demand = data["smoothed_demand"]
            runtime.smoother._value = data["smoother_value"]
        self.collector.restore_tables(state["collector"])


def seeded_placement(
    tree: Tree,
    config: WillowConfig,
    *,
    seed: int,
    target_utilization: float,
    apps: tuple = SIMULATION_APPS,
    vms_per_server: int = 4,
) -> PlacementPlan:
    """The initial placement every seeded entry point starts from.

    ``vms_per_server`` VMs per server drawn from the seed's
    ``"placement"`` stream, scaled so the fleet's mean demand is
    ``target_utilization`` of the servers' dynamic range.  One recipe
    is what gives controllers compared at one seed (scalar, array,
    distributed, fault-tolerant, live, resumed) the same fleet.
    """
    placement = random_placement(
        [s.node_id for s in tree.servers()],
        apps,
        RandomStreams(seed)["placement"],
        vms_per_server=vms_per_server,
    )
    return scale_for_target_utilization(
        placement, config.server_model.slope, target_utilization
    )


def build_willow(
    controller_cls: type = WillowController,
    *,
    tree: Optional[Tree] = None,
    config: Optional[WillowConfig] = None,
    supply: Optional[SupplyTrace] = None,
    target_utilization: float = 0.4,
    seed: int = 0,
    apps: tuple = SIMULATION_APPS,
    vms_per_server: int = 4,
    **controller_kwargs,
):
    """A ``controller_cls`` over the paper's simulation defaults, unrun.

    Defaults reproduce the paper's simulation environment: the Fig. 3
    topology (4 levels, 18 servers), a supply close to the servers'
    maximum power limit, the 1/2/5/9 application mix, and the
    :func:`seeded_placement` scaled to ``target_utilization``.
    ``controller_kwargs`` go to the controller (``ambient_overrides``,
    ``tracer``, a subclass's own options).
    """
    from repro.topology.builders import build_paper_simulation

    tree = tree or build_paper_simulation()
    config = config or WillowConfig()
    if supply is None:
        supply = constant_supply(len(tree.servers()) * config.circuit_limit)
    placement = seeded_placement(
        tree,
        config,
        seed=seed,
        target_utilization=target_utilization,
        apps=apps,
        vms_per_server=vms_per_server,
    )
    return controller_cls(
        tree, config, supply, placement, seed=seed, **controller_kwargs
    )


def run_willow(
    *,
    tree: Optional[Tree] = None,
    config: Optional[WillowConfig] = None,
    supply: Optional[SupplyTrace] = None,
    target_utilization: float = 0.4,
    n_ticks: int = 100,
    seed: int = 0,
    apps: tuple = SIMULATION_APPS,
    vms_per_server: int = 4,
    ambient_overrides: Optional[Mapping[str, float]] = None,
    vectorized: bool = False,
    tracer: Optional[Tracer] = None,
) -> tuple:
    """Build (:func:`build_willow`) and run a Willow simulation in one call.

    ``vectorized=True`` runs the array-based tick path
    (:class:`repro.core.vectorized.VectorizedWillowController`), a
    behavioural twin of the scalar loop that is much faster on large
    fleets; see docs/performance.md.

    Returns ``(controller, collector)``.
    """
    controller_cls = WillowController
    if vectorized:
        from repro.core.vectorized import VectorizedWillowController

        controller_cls = VectorizedWillowController
    controller = build_willow(
        controller_cls,
        tree=tree,
        config=config,
        supply=supply,
        target_utilization=target_utilization,
        seed=seed,
        apps=apps,
        vms_per_server=vms_per_server,
        ambient_overrides=ambient_overrides,
        tracer=tracer,
    )
    return controller, controller.run(n_ticks)
