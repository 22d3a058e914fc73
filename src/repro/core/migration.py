"""Demand-side migration planning (paper Sec. IV-E).

The planner turns per-server deficits into a set of VM moves:

1. **Shedding.**  Each deficient server sheds whole VMs (demand is never
   split below application granularity), largest first, until its
   remaining demand leaves at least ``P_min`` surplus under its budget.
2. **Matching, local first.**  Shed VMs become bin-packing items; the
   surpluses of eligible servers (margin ``P_min`` and the pending
   migration cost already subtracted) become bins.  Matching proceeds
   bottom-up: first within the source's parent group (local), then
   within progressively higher subtrees (non-local), using FFDLR at
   every stage.
3. **Unidirectional rule.**  A server is an eligible target only if
   neither it nor any ancestor is *squeezed* -- had its budget reduced
   by the latest supply event while its smoothed demand exceeds the new
   budget.  (The paper forbids migrating into any node whose budget the
   triggering event reduced; under a global supply dip that literal
   reading would forbid the rebalancing its own testbed performs, so we
   scope the rule to nodes the reduction actually left short.  See
   DESIGN.md.)
4. **Drops.**  Items no surplus can hold are returned as drops: the
   demand is shed entirely this tick (the hosted application runs
   degraded), exactly as Sec. IV-E prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Tuple

from repro.binpack.ffdlr import _SLACK, ffdlr_pack
from repro.binpack.items import Item, Receivers
from repro.core.config import WillowConfig
from repro.core.state import NodeRuntime, ServerRuntime
from repro.topology.tree import Node, Tree
from repro.workload.vm import VM

__all__ = ["PlannedMove", "MigrationPlan", "MigrationPlanner"]

_EPS = 1e-9


@dataclass(frozen=True)
class PlannedMove:
    """One VM move the planner decided on."""

    vm: VM
    src: Node
    dst: Node

    @property
    def local(self) -> bool:
        return self.src.parent is self.dst.parent


@dataclass
class MigrationPlan:
    """Outcome of one planning pass."""

    moves: List[PlannedMove] = field(default_factory=list)
    dropped: List[Tuple[VM, Node]] = field(default_factory=list)

    @property
    def dropped_power(self) -> float:
        return sum(vm.current_demand for vm, _node in self.dropped)


class MigrationPlanner:
    """Plans demand-driven migrations over one hierarchy.

    ``ipc_graph`` (a :class:`repro.workload.affinity.AffinityGraph`)
    enables the affinity pre-pass when ``config.affinity_aware`` is
    set: shed VMs are offered first to servers hosting their heaviest
    IPC peers.
    """

    def __init__(self, tree: Tree, config: WillowConfig, ipc_graph=None):
        self.tree = tree
        self.config = config
        self.ipc_graph = ipc_graph
        # The topology is immutable for the planner's lifetime, so the
        # per-leaf ancestor chains and per-group leaves consulted on
        # every planning pass are computed once here.
        self._ancestor_ids: Dict[int, Tuple[int, ...]] = {
            leaf.node_id: tuple(a.node_id for a in leaf.ancestors())
            for leaf in tree.servers()
        }
        # Sorted leaf ids per group, so per-group receiver lists walk
        # the subtree instead of filtering the whole fleet.
        self._group_sorted_leaves: Dict[int, Tuple[int, ...]] = {
            group.node_id: tuple(
                sorted(leaf.node_id for leaf in tree.subtree_leaves(group))
            )
            for level in range(1, tree.root.level + 1)
            for group in tree.nodes_at_level(level)
        }

    # -- eligibility ---------------------------------------------------------
    @staticmethod
    def _sinking(runtime) -> bool:
        """Unidirectional rule for one node: its budget was reduced by
        the latest supply event and its smoothed demand exceeds it."""
        return (
            runtime.budget_reduced
            and runtime.smoothed_demand > runtime.budget + _EPS
        )

    def _sinking_ids(self, internals: Dict[int, NodeRuntime]) -> frozenset:
        """Ids of the sinking internal nodes: one pass per screen."""
        return frozenset(
            node_id
            for node_id, runtime in internals.items()
            if self._sinking(runtime)
        )

    def _squeezed_under(self, server: ServerRuntime, sinking: frozenset) -> bool:
        """Is this target in a sinking subtree?  ``sinking`` is
        :meth:`_sinking_ids` of the internals."""
        if self._sinking(server):
            return True
        ancestor_ids = self._ancestor_ids.get(server.node.node_id)
        if ancestor_ids is None:
            ancestor_ids = tuple(a.node_id for a in server.node.ancestors())
        return not sinking.isdisjoint(ancestor_ids)

    def _squeezed(
        self,
        server: ServerRuntime,
        internals: Dict[int, NodeRuntime],
    ) -> bool:
        """Unidirectional-rule check for one target."""
        return self._squeezed_under(server, self._sinking_ids(internals))

    def _target_capacity(self, server: ServerRuntime) -> float:
        """Bin capacity a server offers: surplus minus margin and cost."""
        surplus = server.budget - server.raw_demand
        overhead = self.config.p_min + self.config.migration_cost_power
        return max(surplus - overhead, 0.0)

    # -- shedding --------------------------------------------------------------
    def _shed_items(self, server: ServerRuntime) -> List[Item]:
        """Choose whole VMs to move off a deficient server.

        Sheds largest-demand VMs first until the remaining demand fits
        under ``budget - P_min`` (or no VMs remain).  Each demand is
        read once (on an array site it is a view onto a lane); the
        sort is stable under ``reverse``, so ties keep ``server.vms``
        order.
        """
        goal = max(server.budget - self.config.p_min, 0.0)
        remaining = server.raw_demand
        items: List[Item] = []
        for demand, vm in sorted(
            [(vm.current_demand, vm) for vm in server.vms.values()],
            key=itemgetter(0),
            reverse=True,
        ):
            if remaining <= goal + _EPS:
                break
            if demand <= 0:
                continue
            items.append(Item(key=vm.vm_id, size=demand, payload=vm))
            remaining -= demand
        return items

    # -- planning ---------------------------------------------------------------
    def plan(
        self,
        servers: Dict[int, ServerRuntime],
        internals: Dict[int, NodeRuntime],
    ) -> MigrationPlan:
        """One demand-side planning pass over the whole tree.

        ``servers`` maps leaf node ids to runtimes; ``internals`` maps
        internal node ids to runtimes (for the unidirectional rule).
        """
        deficient = [
            s
            for s in servers.values()
            if s.is_awake and s.raw_demand > s.budget + _EPS
        ]
        if not deficient:
            return MigrationPlan()

        # Residual capacity each eligible target still offers (mutates
        # as matching proceeds so later passes see earlier placements).
        capacity: Dict[int, float] = {}
        sinking = self._sinking_ids(internals)
        for server in servers.values():
            if not server.is_awake:
                continue
            if server.raw_demand > server.budget + _EPS:
                continue  # deficient servers never receive
            if self._squeezed_under(server, sinking):
                continue
            cap = self._target_capacity(server)
            if cap > _EPS:
                capacity[server.node.node_id] = cap
        return self.plan_prescreened(servers, deficient, capacity)

    def plan_prescreened(
        self,
        servers: Dict[int, ServerRuntime],
        deficient: List[ServerRuntime],
        capacity: Dict[int, float],
    ) -> MigrationPlan:
        """Matching stage of :meth:`plan`, with the per-server screening
        already done.

        ``deficient`` must hold the over-budget awake servers in fleet
        order and ``capacity`` the eligible targets' spare watts (also
        in fleet order), exactly as :meth:`plan` computes them; the
        vectorized controller produces both from its arrays.
        """
        plan = MigrationPlan()
        if not deficient:
            return plan

        # Pending items grouped by source server id.
        pending: Dict[int, List[Item]] = {}
        for server in deficient:
            items = self._shed_items(server)
            if items:
                pending[server.node.node_id] = items

        # Affinity pre-pass: offer each shed VM to the eligible server
        # hosting its heaviest IPC peer before generic matching.
        if self.config.affinity_aware and self.ipc_graph is not None:
            vm_host = {
                vm.vm_id: server.node.node_id
                for server in servers.values()
                for vm in server.vms.values()
            }
            for src_id in list(pending):
                remaining_items = []
                for item in pending[src_id]:
                    placed = False
                    peers = sorted(
                        self.ipc_graph.neighbours(item.key),
                        key=lambda pair: -pair[1],
                    )
                    for peer_id, _rate in peers:
                        host = vm_host.get(peer_id)
                        if (
                            host is None
                            or host == src_id
                            or host not in capacity
                            or capacity[host] < item.size - _EPS
                        ):
                            continue
                        plan.moves.append(
                            PlannedMove(
                                vm=item.payload,
                                src=servers[src_id].node,
                                dst=servers[host].node,
                            )
                        )
                        capacity[host] = max(capacity[host] - item.size, 0.0)
                        vm_host[item.key] = host
                        placed = True
                        break
                    if not placed:
                        remaining_items.append(item)
                if remaining_items:
                    pending[src_id] = remaining_items
                else:
                    del pending[src_id]

        # Bottom-up matching: local (parent group) first, then wider.
        levels = range(1, self.tree.root.level + 1) if self.config.local_first else [
            self.tree.root.level
        ]
        for level in levels:
            if not pending:
                break
            # Each source's items meet the receivers of one group per
            # level, its ancestor there (levels step by one along a
            # path); a group's matching changes only its own sources.
            sources: Dict[int, List[int]] = {}
            for src_id in pending:
                ancestors = self._ancestor_ids[src_id]
                k = level - servers[src_id].node.level - 1
                if 0 <= k < len(ancestors):
                    sources.setdefault(ancestors[k], []).append(src_id)
            for group in self.tree.nodes_at_level(level):
                group_sources = sources.get(group.node_id)
                if not group_sources:
                    continue
                group_items: List[Tuple[int, Item]] = [
                    (src_id, item)
                    for src_id in group_sources
                    for item in pending[src_id]
                ]
                if len(group_items) == 1:
                    # Fast path: FFDLR with one item reduces to "the
                    # smallest eligible bin that holds it" (phase 2
                    # takes the smallest capacity that holds it; the
                    # best-fit fallback applies the same fit test to
                    # the same empty bins).  Selecting directly skips
                    # the receiver lists and their sort.
                    src_id, item = group_items[0]
                    best_id = None
                    best_cap = 0.0
                    for node_id in self._group_sorted_leaves[
                        group.node_id
                    ]:
                        cap = capacity.get(node_id)
                        if cap is None or node_id in pending:
                            continue
                        if item.size <= cap + _EPS and (
                            best_id is None or cap < best_cap
                        ):
                            best_id, best_cap = node_id, cap
                    if best_id is not None:
                        plan.moves.append(
                            PlannedMove(
                                vm=item.payload,
                                src=servers[src_id].node,
                                dst=servers[best_id].node,
                            )
                        )
                        capacity[best_id] = max(
                            capacity[best_id] - item.size, 0.0
                        )
                        del pending[src_id]
                    continue
                keys = [
                    node_id
                    for node_id in self._group_sorted_leaves[group.node_id]
                    if node_id in capacity and node_id not in pending
                ]
                if not keys:
                    continue
                caps = [capacity[node_id] for node_id in keys]
                # FFDLR leaves an item larger than every bin unpacked
                # and placing it changes nothing else, so such items
                # stay pending without being offered.
                largest = max(caps)
                offered = [
                    item
                    for _src, item in group_items
                    if item.size <= largest + _SLACK
                ]
                if not offered:
                    continue
                result = ffdlr_pack(offered, Receivers(keys, caps))
                src_of = {item.key: src_id for src_id, item in group_items}
                for bin_ in result.bins:
                    dst = servers[bin_.key].node
                    for item in bin_.contents:
                        vm: VM = item.payload
                        plan.moves.append(
                            PlannedMove(
                                vm=vm, src=servers[src_of[item.key]].node, dst=dst
                            )
                        )
                        capacity[bin_.key] = max(
                            capacity[bin_.key] - item.size, 0.0
                        )
                placed = result.assignment
                for src_id in group_sources:
                    left = [it for it in pending[src_id] if it.key not in placed]
                    if left:
                        pending[src_id] = left
                    else:
                        del pending[src_id]

        # Anything still pending found no surplus anywhere: drop it.
        for src_id, items in pending.items():
            for item in items:
                plan.dropped.append((item.payload, servers[src_id].node))
        return plan
