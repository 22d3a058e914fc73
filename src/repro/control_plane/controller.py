"""The distributed Willow controller.

:class:`DistributedWillowController` keeps the scalar controller's
decision logic -- the same demand smoothing, capped proportional budget
waterfill, migration matching, consolidation and serving code paths --
but every piece of *cross-node* control state (child demands and caps
at internal PMUs, budgets at every node) is sourced exclusively from
messages delivered by a :class:`~repro.control_plane.transport.
Transport`, with per-link latency/jitter/loss/duplication, bounded
retry with exponential backoff, budget staleness decay, and seeded
crash/partition fault injection.

With the default (perfect) transport and an empty fault schedule the
controller is a behavioural twin of :class:`~repro.core.controller.
WillowController`: zero-latency links deliver synchronously in the same
level order the in-process loop uses, so every budget, migration and
temperature series is reproduced exactly.  ``tests/test_control_plane.py``
enforces that contract the same way ``tests/test_vectorized_equivalence
.py`` does for the vectorized path.

Scope: the *budget/report control loop* is distributed.  Workload
management (migration matching, consolidation) still executes as the
paper's per-level algorithm over the runtime objects -- but those
runtimes now hold message-derived budgets, so degraded transport
conditions propagate into every downstream decision.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional

from repro.control_plane.agents import InternalAgent, LeafAgent, _AgentBase
from repro.control_plane.config import ControlPlaneConfig
from repro.control_plane.faults import FaultSchedule
from repro.control_plane.transport import LinkStats, Transport
from repro.core.config import WillowConfig
from repro.core.controller import WillowController, build_willow
from repro.metrics.collector import MetricsCollector
from repro.power.supply import SupplyTrace
from repro.topology.tree import Node, Tree
from repro.workload.applications import SIMULATION_APPS

__all__ = ["DistributedWillowController", "run_distributed"]


class DistributedWillowController(WillowController):
    """Willow with the PMU hierarchy emulated as message-passing agents.

    Accepts everything :class:`WillowController` does, plus:

    Parameters
    ----------
    control_plane:
        Transport/retry/staleness configuration; default is a perfect
        transport (the equivalence regime).
    faults:
        Deterministic crash windows and link partitions; default none.
    """

    def __init__(
        self,
        tree: Tree,
        config: WillowConfig,
        supply: SupplyTrace,
        placement,
        *,
        control_plane: Optional[ControlPlaneConfig] = None,
        faults: Optional[FaultSchedule] = None,
        **kwargs,
    ):
        super().__init__(tree, config, supply, placement, **kwargs)
        self.control_plane = control_plane or ControlPlaneConfig()
        self.faults = faults or FaultSchedule()
        self.transport = Transport(
            self.env,
            self.control_plane,
            self.streams,
            self.collector,
            tick_length=config.delta_d,
            is_partitioned=self.faults.is_partitioned,
            is_receiver_down=self.faults.is_crashed,
        )

        ttl = self.control_plane.staleness.resolve_ttl(config.eta1)
        staleness = self.control_plane.staleness
        self.leaf_agents: Dict[int, LeafAgent] = {
            leaf.node_id: LeafAgent(
                leaf, self.servers[leaf.node_id], self.transport, staleness, ttl
            )
            for leaf in tree.servers()
        }
        self.internal_agents: Dict[int, InternalAgent] = {
            runtime.node.node_id: InternalAgent(
                runtime.node,
                runtime,
                self.transport,
                staleness,
                ttl,
                allocation_mode=config.allocation_mode,
                site_reserve=self._site_reserve,
            )
            for runtime in self.internals.values()
        }
        self.root_agent = self.internal_agents[tree.root.node_id]

        if self.tracer.enabled:
            for agent in self._agents():
                agent.tracer = self.tracer
                agent.circuit_limit = config.circuit_limit

        for node in tree:
            if node.is_root:
                continue
            link = node.node_id
            self.transport.register_link(link, node.node_id, node.parent.node_id)
            parent_agent = self.internal_agents[node.parent.node_id]
            self.transport.set_handler(link, True, parent_agent.on_report)
            child_agent = (
                self.leaf_agents[node.node_id]
                if node.is_leaf
                else self.internal_agents[node.node_id]
            )
            self.transport.set_handler(link, False, child_agent.on_directive)

    # ------------------------------------------------------------- phases
    def _site_reserve(self, node: Node) -> float:
        """Colocated switch-group draw reserved off a node's budget."""
        return sum(
            self._last_switch_power[s.switch_id]
            for s in self.fabric.at_site(node)
        )

    def _agents(self) -> Iterator[_AgentBase]:
        yield from self.leaf_agents.values()
        yield from self.internal_agents.values()

    def _apply_fault_transitions(self, tick: int) -> None:
        if self.faults.empty:
            return
        for agent in self._agents():
            down = self.faults.is_crashed(agent.node.node_id, tick)
            if down and not agent.crashed:
                agent.crash()
                if self.tracer.enabled:
                    self.tracer.record_event(
                        "cp_agent_crash", agent.node.node_id
                    )
            elif not down and agent.crashed:
                agent.restart()
                if self.tracer.enabled:
                    self.tracer.record_event(
                        "cp_agent_restart", agent.node.node_id
                    )

    def _aggregate_demands(self, now: float) -> None:
        """Upward phase: every live PMU reports once per ``Delta_D``.

        Replaces the scalar in-process aggregation.  Delayed messages
        from earlier ticks have already been delivered by the kernel
        (delivery events precede the tick event at the same timestamp),
        so each level folds the freshest *delivered* child state.
        """
        tick = self._tick_index
        self._apply_fault_transitions(tick)
        for leaf in self.tree.servers():
            self.leaf_agents[leaf.node_id].tick_report(tick)
        for level in range(1, self.tree.root.level + 1):
            for node in self.tree.nodes_at_level(level):
                self.internal_agents[node.node_id].tick_report(tick)
        for agent in self._agents():
            agent.tick_staleness()

    def _allocate_budgets(self, now: float) -> None:
        """Supply phase: the root divides; directives cascade by message."""
        self.root_budget = self.supply.at(now)
        self.root_agent.on_supply(self.root_budget, self._tick_index)
        if self.tracer.enabled:
            self.tracer.record_root(
                self.root_budget,
                self.root_agent._own_cap(),
                self.root_agent.runtime.budget,
            )

    # ------------------------------------------------------------ reports
    def transport_stats(self) -> LinkStats:
        """Transport counters summed over all links."""
        return self.transport.total_stats()

    def stale_discards(self) -> int:
        """Reordered/retransmitted frames agents refused to apply."""
        return sum(agent.stale_discards for agent in self._agents())

    def snapshot_state(self):
        """Not supported: in-flight transport frames, per-agent retry
        queues and staleness clocks are not captured by the base
        snapshot, and resuming without them would diverge silently."""
        from repro.checkpoint.errors import CheckpointError

        raise CheckpointError(
            "DistributedWillowController does not support checkpointing; "
            "run the scalar or vectorized controller for resumable runs"
        )


def run_distributed(
    *,
    tree: Optional[Tree] = None,
    config: Optional[WillowConfig] = None,
    supply: Optional[SupplyTrace] = None,
    control_plane: Optional[ControlPlaneConfig] = None,
    faults: Optional[FaultSchedule] = None,
    target_utilization: float = 0.4,
    n_ticks: int = 100,
    seed: int = 0,
    apps: tuple = SIMULATION_APPS,
    vms_per_server: int = 4,
    ambient_overrides: Optional[Mapping[str, float]] = None,
    tracer=None,
) -> tuple:
    """Build and run a distributed Willow simulation in one call.

    Mirrors :func:`repro.core.controller.run_willow` -- identical tree,
    placement and demand randomness for a given ``seed``, so the result
    is directly comparable (see :mod:`repro.control_plane.divergence`)
    to the ideal synchronous run.  Returns ``(controller, collector)``.
    """
    controller = build_willow(
        DistributedWillowController,
        tree=tree,
        config=config,
        supply=supply,
        target_utilization=target_utilization,
        seed=seed,
        apps=apps,
        vms_per_server=vms_per_server,
        control_plane=control_plane,
        faults=faults,
        ambient_overrides=ambient_overrides,
        tracer=tracer,
    )
    collector: MetricsCollector = controller.run(n_ticks)
    return controller, collector
