"""Consolidation: drain under-utilised servers and put them to sleep.

"When the utilization in a node is really small the demand from that
node is migrated away from it and the node is deactivated" (Sec. IV-E);
the testbed sets the threshold at 20 % utilization (Sec. V-C5).  Every
``Delta_A = eta2 * Delta_D`` the planner:

1. finds awake servers below the utilization threshold,
2. for each (least-loaded first) checks whether *all* of its VMs fit
   into the remaining eligible surpluses (FFDLR, which by design packs
   into the smallest bins and so fills servers up), and
3. if so, plans the moves and marks the server for sleep -- partial
   drains are never done since a half-empty server saves nothing.

Waking is the inverse: when drops persist while a sleeping server
exists and the root has budget headroom for its static floor, one
server per consolidation round begins its (slow) S3/S4 resume.

The planner finds its candidates and receivers through three screens
(:meth:`ConsolidationPlanner._starved`,
:meth:`~ConsolidationPlanner._drain_candidates`,
:meth:`~ConsolidationPlanner._receive_capacity`), which walk every
server here; an array site answers them from its lanes, and
:meth:`ConsolidationPlanner.plan` stays the one matching pass.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.binpack.ffdlr import ffdlr_pack
from repro.binpack.items import Item, PackResult, Receivers
from repro.core.config import WillowConfig
from repro.core.migration import PlannedMove
from repro.core.state import NodeRuntime, ServerRuntime, SleepState
from repro.topology.tree import Tree

__all__ = ["ConsolidationPlan", "ConsolidationPlanner"]

_EPS = 1e-9


def _items(candidate: ServerRuntime) -> List[Item]:
    """A drain candidate's VMs as packing items (at least ``_EPS``)."""
    return [
        Item(key=vm.vm_id, size=max(vm.current_demand, _EPS), payload=vm)
        for vm in candidate.vms.values()
    ]


def _plan_moves(
    plan: ConsolidationPlan,
    candidate: ServerRuntime,
    result: PackResult,
    servers: Dict[int, ServerRuntime],
) -> None:
    """Append ``result``'s placements as moves off ``candidate``."""
    for bin_ in result.bins:
        dst = servers[bin_.key].node
        for item in bin_.contents:
            plan.moves.append(
                PlannedMove(vm=item.payload, src=candidate.node, dst=dst)
            )


def _receivers(capacity: Dict[int, float]) -> Receivers:
    """The receivers with capacity left, node-ordered: one pair of
    lists that a consolidation pass keeps up to date."""
    keys = [node_id for node_id in sorted(capacity) if capacity[node_id] > _EPS]
    return Receivers(keys, [capacity[node_id] for node_id in keys])


def _remove(receivers: Receivers, node_id: int) -> Optional[float]:
    """Take ``node_id`` out of ``receivers``; its capacity, if listed."""
    keys, caps = receivers
    i = bisect_left(keys, node_id)
    if i == len(keys) or keys[i] != node_id:
        return None
    del keys[i]
    return caps.pop(i)


def _restore(receivers: Receivers, node_id: int, cap: float) -> None:
    """Undo :func:`_remove`."""
    i = bisect_left(receivers.keys, node_id)
    receivers.keys.insert(i, node_id)
    receivers.capacities.insert(i, cap)


def _land(receivers: Receivers, result: PackResult) -> None:
    """Subtract what ``result`` packed from each receiver's capacity,
    item by item; a receiver left with none leaves the list."""
    keys, caps = receivers
    for bin_ in result.bins:
        i = bisect_left(keys, bin_.key)
        cap = caps[i]
        for item in bin_.contents:
            cap = max(cap - item.size, 0.0)
        if cap > _EPS:
            caps[i] = cap
        else:
            del keys[i], caps[i]


@dataclass
class ConsolidationPlan:
    """Moves plus the servers to deactivate afterwards."""

    moves: List[PlannedMove] = field(default_factory=list)
    to_sleep: List[ServerRuntime] = field(default_factory=list)
    to_wake: List[ServerRuntime] = field(default_factory=list)


class ConsolidationPlanner:
    """Plans consolidation-driven migrations and sleep/wake actions."""

    def __init__(self, tree: Tree, config: WillowConfig):
        self.tree = tree
        self.config = config

    def _target_capacity(self, server: ServerRuntime) -> float:
        surplus = server.budget - server.raw_demand
        overhead = self.config.p_min + self.config.migration_cost_power
        return max(surplus - overhead, 0.0)

    # -- screens ---------------------------------------------------------
    def _starved(
        self, servers: Dict[int, ServerRuntime], floor: float
    ) -> List[ServerRuntime]:
        """Awake servers budgeted below ``floor - eps``, in fleet order."""
        return [
            s
            for s in servers.values()
            if s.is_awake and s.budget < floor - _EPS
        ]

    def _drain_candidates(
        self, servers: Dict[int, ServerRuntime], limit: float
    ) -> List[ServerRuntime]:
        """Awake servers whose ``vm_demand`` is at most ``limit``, in
        fleet order."""
        return [
            s
            for s in servers.values()
            if s.is_awake and s.vm_demand <= limit
        ]

    def _receive_capacity(
        self,
        servers: Dict[int, ServerRuntime],
        floor: Optional[float] = None,
    ) -> Dict[int, float]:
        """Receive capacity by node id of every awake server (budgeted
        at ``floor`` or more, when given), in fleet order."""
        return {
            s.node.node_id: self._target_capacity(s)
            for s in servers.values()
            if s.is_awake and (floor is None or s.budget >= floor)
        }

    def plan(
        self,
        servers: Dict[int, ServerRuntime],
        internals: Dict[int, NodeRuntime],
        *,
        recent_dropped_power: float = 0.0,
        root_budget: float = 0.0,
        total_demand: float = 0.0,
    ) -> ConsolidationPlan:
        """One consolidation pass.

        ``recent_dropped_power``, ``root_budget`` and ``total_demand``
        feed the wake heuristic: persistent drops with budget headroom
        justify resuming one sleeping server.
        """
        plan = ConsolidationPlan()
        config = self.config

        # Never drain capacity while demand is being dropped: in a
        # deficit regime consolidation would remove the very surplus
        # the deficits need (and fight the wake heuristic below).
        deficit_regime = recent_dropped_power > config.p_min

        # Servers whose budget fell below their own static floor cannot
        # comply while awake (the floor is unavoidable); they are drain
        # candidates even in a deficit regime -- the paper's severe-case
        # "shut down" response.
        floor = config.server_model.static_power
        if config.consolidation_enabled and deficit_regime:
            starved = sorted(
                self._starved(servers, floor), key=lambda s: s.vm_demand
            )
            # Starved servers are budgeted below the floor, so none of
            # them is a receiver.
            receivers = _receivers(self._receive_capacity(servers, floor))
            for candidate in starved:
                if not candidate.vms:
                    plan.to_sleep.append(candidate)
                    continue
                if not receivers.keys:
                    continue
                result = ffdlr_pack(_items(candidate), receivers)
                if result.unpacked:
                    continue  # cannot strand VMs; stay awake
                _plan_moves(plan, candidate, result, servers)
                _land(receivers, result)
                plan.to_sleep.append(candidate)

        if config.consolidation_enabled and not deficit_regime:
            threshold_power = config.consolidation_threshold * config.server_model.slope
            # Hot-zone servers (higher ambient => lower thermal cap) are
            # drained first: Willow "tries to move as much work away
            # from these servers as possible due to their high
            # temperatures" (Sec. V-B3), which is also what maximises
            # their sleep time in Fig. 7.  Within a zone, drain the
            # least-loaded first.
            candidates = sorted(
                self._drain_candidates(servers, threshold_power + _EPS),
                key=lambda s: (-s.thermal_params.t_ambient, s.vm_demand),
            )
            # Residual receive-capacity per potential target; mutated as
            # earlier drains land so later candidates see the truth.  A
            # drained server leaves it for good; a candidate leaves it
            # while its own drain is tried.
            receivers = _receivers(self._receive_capacity(servers))
            extra_load: Dict[int, float] = {}
            for candidate in candidates:
                node_id = candidate.node.node_id
                # A server that received load from an earlier drain this
                # round stays up (its planned VMs are not in .vms yet,
                # so it could not be drained consistently anyway).
                if extra_load.get(node_id, 0.0) > _EPS:
                    continue
                current_demand = candidate.vm_demand
                if not candidate.vms and current_demand <= _EPS:
                    # Nothing hosted: deactivate immediately.
                    plan.to_sleep.append(candidate)
                    _remove(receivers, node_id)
                    continue
                own = _remove(receivers, node_id)
                result = (
                    ffdlr_pack(_items(candidate), receivers)
                    if receivers.keys
                    else None
                )
                if result is None or result.unpacked:
                    # No receivers, or a partial drain, which saves
                    # nothing: skip.
                    if own is not None:
                        _restore(receivers, node_id, own)
                    continue
                _plan_moves(plan, candidate, result, servers)
                _land(receivers, result)
                for bin_ in result.bins:
                    for item in bin_.contents:
                        extra_load[bin_.key] = (
                            extra_load.get(bin_.key, 0.0) + item.size
                        )
                plan.to_sleep.append(candidate)

        # -- wake heuristic ---------------------------------------------------
        if deficit_regime:
            sleeping = [
                s for s in servers.values() if s.sleep_state is SleepState.ASLEEP
            ]
            headroom = root_budget - total_demand
            if sleeping and headroom > config.server_model.static_power:
                plan.to_wake.append(sleeping[0])
        return plan
