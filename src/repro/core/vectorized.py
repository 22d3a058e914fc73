"""The array Willow tick: one implementation for one site or many.

:class:`_Segment` runs the per-tick hot path of
:class:`~repro.core.controller.WillowController` -- batched demand
sampling, Eq. 4 smoothing, the Sec. IV-D budget waterfall, serving, the
Eq. 2/3 thermal step and the Sec. V-B5 switch power -- as array
expressions over a :class:`~repro.core.fleet.FederationFleet` block
that spans one or more sites.  Tree levels of different sites
concatenate, so each control step is one fold / one ``allocate_level``
call per level however many sites tick together.  It is the only array
tick in the package:

* :class:`VectorizedWillowController` ticks a one-site segment over its
  own fleet.
* :class:`~repro.federation.coordinator.FederationCoordinator` ticks
  consecutive vectorized sites as one multi-site segment.

Either way every runtime object of the site is a view onto its lanes
(:meth:`~repro.core.fleet.FleetState.bind`,
:class:`~repro.core.fleet.VmDemandLane`): servers, their thermal
integrators and smoothers, and the home VMs of a Poisson-sampled site.
The tick writes lanes only, and the objects are current at every point
a scalar reader can look -- inside the tick, in hooks, between runs --
with nothing copied back.

Everything decision-shaped stays on the runtime objects -- planners,
consolidation, migration cost bookkeeping, metric hooks and the
collector see exactly the scalar controller's interfaces, and
``Tracer`` frames carry the scalar controller's records in its order.
Both planners run their scalar ``plan``; only their per-server screens
read the lanes (:class:`_LaneMigrationPlanner`: deficient rows, and the
receive capacities of the targets the unidirectional rule allows;
:class:`_LaneConsolidationPlanner`: starved rows, drain candidates and
receive capacities), so a planning pass reads the objects of only the
rows it picks.  A server's pending migration costs write their total
to the ``mig_cost`` lane on every change, so the lane is current
wherever a charge lands: in a tick, in a hook or in a rebalance.
Numerical results match the scalar path bit-for-bit until the first
migration re-orders a per-host demand sum, and to ``rtol=1e-12`` after
that (see docs/performance.md for the precise contract and
tests/test_vectorized_equivalence.py for the enforcement).

Not supported: ``config.device_classes`` (the per-device thermal state
is inherently object-shaped; use the scalar controller).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.consolidation import ConsolidationPlanner
from repro.core.controller import WillowController, _EPS
from repro.core.deficits import power_imbalance
from repro.core.events import MigrationCause
from repro.core.fleet import (
    _BLOCK_FIELDS,
    FederationFleet,
    FleetState,
    VmDemandLane,
    build_fold_index,
    fold_segment_sums,
)
from repro.core.migration import MigrationPlanner, PlannedMove
from repro.power.budget import LevelIndex, allocate_level
from repro.power.smoothing import smooth_lanes
from repro.thermal.model import temperature_step_arrays
from repro.topology.tree import Node
from repro.workload.generator import DemandGenerator

__all__ = ["VectorizedWillowController"]

#: Margin below which the per-VM scalar serving loop is used instead of
#: the vectorized fast path, so borderline budget/demand ties resolve
#: exactly as in the scalar controller.
_SERVE_MARGIN = 1e-6

#: How far, relative to the bound, a row of the host-sum lane (summed in
#: plan order) may sit from its server's dict-order ``vm_demand``.  Each
#: order's rounding error is below ``n * 2**-53`` of the sum of its ``n``
#: non-negative demands, far inside this for any VM count a server holds.
_HOST_SUM_RTOL = 1e-9


@dataclass
class _LevelSpec:
    """Precomputed structure of one internal tree level of one site."""

    nodes: List[Node]
    node_ids: np.ndarray
    runtimes: list  # NodeRuntime per node
    child_nodes: List[Node]  # flat, (node, child) nesting order
    child_ids: np.ndarray
    child_id_list: List[int]  # child_ids as plain ints, for messages
    child_runtimes: list  # ServerRuntime | NodeRuntime, flat
    offsets: np.ndarray
    site_switches: list  # per node: switches colocated at that site


class _SegLevel:
    """One tree level, concatenated across every site of a segment."""

    __slots__ = (
        "parts",
        "node_gidx",
        "child_gidx",
        "pad_idx",
        "valid",
        "alloc_index",
        "reserve_sources",
        "reserve_rows",
        "reserve_pad",
        "reserve_valid",
        "capacity_mode",
        "capacity_mask",
        "inner_pos",
        "inner_runtimes",
    )

    def __init__(
        self,
        parts: List[Tuple[object, _LevelSpec]],
        node_offsets,
    ):
        # parts: [(controller, per-site _LevelSpec)] in segment order.
        self.parts = parts
        node_ids = []
        child_ids = []
        sizes = []
        offsets = []
        reserve_sources = []
        mask_pieces = []
        child_base = 0
        for ctrl, spec in parts:
            off = node_offsets[ctrl]
            node_ids.append(off + spec.node_ids)
            child_ids.append(off + spec.child_ids)
            sizes.append(np.diff(np.append(spec.offsets, len(spec.child_ids))))
            offsets.append(spec.offsets + child_base)
            child_base += len(spec.child_ids)
            for switches in spec.site_switches:
                reserve_sources.append((ctrl, switches))
            mask_pieces.append(
                np.full(
                    len(spec.child_ids),
                    ctrl.config.allocation_mode == "capacity",
                )
            )
        self.node_gidx = np.concatenate(node_ids)
        self.child_gidx = np.concatenate(child_ids)
        # Internal children (their positions in the level) take their
        # budgets through set_budget; servers take theirs on the lanes
        # once every level is allocated.
        inner_pos: List[int] = []
        self.inner_runtimes = []
        k = 0
        for _ctrl, spec in parts:
            for child, runtime in zip(spec.child_nodes, spec.child_runtimes):
                if not child.is_leaf:
                    inner_pos.append(k)
                    self.inner_runtimes.append(runtime)
                k += 1
        self.inner_pos = np.array(inner_pos, dtype=np.intp)
        all_sizes = np.concatenate(sizes).astype(np.intp)
        self.pad_idx, self.valid = build_fold_index(all_sizes)
        self.alloc_index = LevelIndex(
            np.concatenate(offsets).astype(np.intp), child_base
        )
        self.reserve_sources = reserve_sources
        mask = np.concatenate(mask_pieces)
        if mask.all() or not mask.any():
            self.capacity_mode = bool(mask[0]) if len(mask) else False
            self.capacity_mask = None
        else:
            self.capacity_mode = False
            self.capacity_mask = mask


class _Segment:
    """A run of array-capable sites ticked as one block.

    ``block`` is the :class:`~repro.core.fleet.FederationFleet` holding
    the sites' lanes; ``entries`` lists ``(controller, site index,
    block slice)`` in tick order.  ``vm_home`` maps each VM id to the
    index of its home site, for the late-pair staleness rule of a
    multi-site segment; it may stay empty until a VM first leaves home,
    and is ``None`` when no VM can cross sites inside the segment.
    """

    def __init__(
        self,
        block: FederationFleet,
        entries: List[Tuple["VectorizedWillowController", int, slice]],
        vm_home: Optional[Dict[int, int]] = None,
    ):
        self.vm_home = vm_home
        self.controllers = [ctrl for ctrl, _idx, _sl in entries]
        self.global_idx = [idx for _ctrl, idx, _sl in entries]
        self._seg_pos = {idx: pos for pos, idx in enumerate(self.global_idx)}

        start = entries[0][2].start
        stop = entries[-1][2].stop
        sl = slice(start, stop)
        sizes = [ctrl.fleet.n for ctrl in self.controllers]
        self.n = stop - start
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        self.local_slices = [
            slice(int(bounds[i]), int(bounds[i + 1]))
            for i in range(len(sizes))
        ]
        self.row_site = np.repeat(np.arange(len(sizes)), sizes)
        self.row_base = bounds[:-1]

        # Block views over the shared arrays (basic slices, so per-site
        # code keeps seeing the same memory).
        for name in _BLOCK_FIELDS:
            setattr(self, name, getattr(block, name)[sl])

        # Segment-level node buffers: each site's node-id space maps
        # to [offset, offset + site._n_nodes).
        self.node_offsets: Dict[object, int] = {}
        total = 0
        for ctrl in self.controllers:
            self.node_offsets[ctrl] = total
            total += ctrl._n_nodes
        self._caps_buf = np.zeros(total)
        self._budget_buf = np.zeros(total)
        self._demand_buf = np.zeros(total)
        self._served_buf = np.zeros(total)
        self.server_gidx = np.concatenate(
            [
                self.node_offsets[ctrl] + ctrl.fleet.node_ids
                for ctrl in self.controllers
            ]
        )
        self.root_entries = [
            (
                ctrl,
                self.node_offsets[ctrl] + ctrl.tree.root.node_id,
                ctrl.internals[ctrl.tree.root.node_id],
            )
            for ctrl in self.controllers
        ]

        # Tree levels grouped by height: one fold / one allocate_level
        # call spans every site that has that level.
        max_level = max(ctrl.tree.root.level for ctrl in self.controllers)
        self.levels = [
            _SegLevel(
                [
                    (ctrl, ctrl._levels_up[level - 1])
                    for ctrl in self.controllers
                    if level <= ctrl.tree.root.level
                ],
                self.node_offsets,
            )
            for level in range(1, max_level + 1)
        ]

        caps = [ctrl.fleet.window_caps for ctrl in self.controllers]
        self._static_caps = (
            np.concatenate(caps) if all(c is not None for c in caps) else None
        )

        # --- switch power as one shared array -------------------------
        # The allocation reserves and the per-tick switch recording read
        # and write this array; the switch recording also writes the
        # per-site ``_last_switch_power`` dicts once per tick.
        self._sw_slices: List[slice] = []
        self._sw_meta: List[Tuple[list, list]] = []
        self._sw_pos: List[Dict[int, int]] = []
        sw_site_gidx = []
        sw_red = []
        sw_static = []
        sw_wpu = []
        sw_power = []
        base_off = 0
        for ctrl in self.controllers:
            switches = list(ctrl.fabric.switches)
            self._sw_slices.append(
                slice(base_off, base_off + len(switches))
            )
            self._sw_meta.append(
                (
                    [s.switch_id for s in switches],
                    [s.level for s in switches],
                )
            )
            self._sw_pos.append(
                {s.switch_id: base_off + k for k, s in enumerate(switches)}
            )
            base_off += len(switches)
            sw_site_gidx.append(
                self.node_offsets[ctrl]
                + np.array(
                    [s.site.node_id for s in switches], dtype=np.intp
                )
            )
            sw_red.append(np.array([float(s.redundancy) for s in switches]))
            model = ctrl.config.switch_model
            sw_static.append(np.full(len(switches), model.static_power))
            sw_wpu.append(
                np.full(len(switches), model.watts_per_unit_traffic)
            )
            sw_power.append(
                np.fromiter(
                    (
                        ctrl._last_switch_power[s.switch_id]
                        for s in switches
                    ),
                    float,
                    len(switches),
                )
            )
        self._sw_site_gidx = np.concatenate(sw_site_gidx)
        self._sw_red = np.concatenate(sw_red)
        self._sw_static = np.concatenate(sw_static)
        self._sw_wpu = np.concatenate(sw_wpu)
        self._switch_power = np.concatenate(sw_power)
        # Reserve fold: per level, each node's switch rows in the same
        # left-to-right order the scalar ``sum()`` walks them.
        sw_pos_of = dict(zip(self.controllers, self._sw_pos))
        for level in self.levels:
            rows: List[int] = []
            rsizes: List[int] = []
            for ctrl, switches in level.reserve_sources:
                rsizes.append(len(switches))
                pos = sw_pos_of[ctrl]
                rows.extend(pos[s.switch_id] for s in switches)
            level.reserve_rows = np.asarray(rows, dtype=np.intp)
            level.reserve_pad, level.reserve_valid = build_fold_index(
                np.asarray(rsizes, dtype=np.intp)
            )

        # Per-site control-message id tuples, in the exact per-site
        # emission order (levels ascending for demand reports, levels
        # descending for budget grants).
        self._up_ids = [
            tuple(
                c
                for spec in ctrl._levels_up
                for c in spec.child_id_list
            )
            for ctrl in self.controllers
        ]
        self._down_ids = [
            tuple(
                c
                for spec in reversed(ctrl._levels_up)
                for c in spec.child_id_list
            )
            for ctrl in self.controllers
        ]

    def _late_pairs(self) -> list:
        """Foreign VM objects whose *home* site sits later in this
        segment than their host: site-major execution would serve them
        against last tick's demand."""
        home_of = self.vm_home
        if not home_of:
            return []
        out = []
        for pos, ctrl in enumerate(self.controllers):
            if not ctrl._foreign_vms:
                continue
            for vm_id, vm in ctrl._foreign_vms.items():
                h_pos = self._seg_pos.get(home_of.get(vm_id, -1))
                if h_pos is not None and h_pos > pos:
                    out.append(vm)
        return out

    # ----------------------------------------------------------------- tick
    def tick(self, now: float) -> None:
        ctrls = self.controllers

        # 0. housekeeping, row by row: costs expire on the rows that
        # hold some (the cost lane writes itself), and wake latency
        # advances on the non-awake rows, of which only the waking ones
        # can change state.
        for i, ctrl in enumerate(ctrls):
            if ctrl.tracer.enabled:
                # Open the frame before the plant hook, as the scalar
                # controller does.
                ctrl.tracer.begin_tick(ctrl._tick_index, now)
            ctrl._tick_migration_traffic = {}
            servers = ctrl.fleet.servers
            sl = self.local_slices[i]
            for r in np.flatnonzero(self.mig_cost[sl]).tolist():
                servers[r].expire_costs()
            resting = np.flatnonzero(~self.awake[sl])
            if len(resting):
                for r in resting.tolist():
                    servers[r].tick_wake()
                waking = resting[self.waking[sl][resting]].tolist()
                if waking:
                    ctrl.fleet.gather(waking)
            ctrl._begin_tick(now)

        # 1. sample every site's demand in site order.  Home VMs read
        # the new sample through their demand lane; only exported guests
        # (plain objects read by their host sites) are written, and
        # late-pair guests get the stale value back (their home
        # generator would not have run yet under site-major execution).
        # Sources other than the Poisson generator write the VM objects
        # themselves and return no vector; their host sums are read off
        # the objects.
        late = self._late_pairs()
        stale_vals = [vm.current_demand for vm in late]
        demands = [ctrl._sample_vm_demands() for ctrl in ctrls]
        fresh_vals = [vm.current_demand for vm in late]
        for vm, stale in zip(late, stale_vals):
            vm.current_demand = stale

        # 2. per-host sums, raw wall demand and Eq. 4 over the block.
        vm_sums = self.vm_sums
        for i, ctrl in enumerate(ctrls):
            vm_sums[self.local_slices[i]] = ctrl._host_demand_sums(demands[i])
        raw = np.where(
            self.asleep,
            self.standby_power,
            np.where(
                self.waking,
                self.static_power,
                self.static_power + vm_sums + self.mig_cost,
            ),
        )
        # Eq. 4 with a per-lane alpha (sites may differ).  Waking
        # servers keep reporting their wake forecast; everyone else
        # (awake or asleep) absorbs this tick's observation.
        smoothed = smooth_lanes(
            self.smoothed, self.primed, self.alpha, raw, ~self.waking
        )
        self.raw[...] = raw
        self._aggregate_demands(now)

        # 3. the budget waterfall, one allocate_level call per level
        # across every site (the coordinator validates a shared eta1,
        # and segment members share the base cadence rule).
        if ctrls[0]._allocation_due():
            self._allocate_budgets(now)
        for i, ctrl in enumerate(ctrls):
            if ctrl.tracer.enabled:
                sl = self.local_slices[i]
                for sid, r, s, b in zip(
                    ctrl._server_ids,
                    raw[sl].tolist(),
                    smoothed[sl].tolist(),
                    self.budget[sl].tolist(),
                ):
                    ctrl.tracer.record_demand(sid, r, s, b)

        # 4. per-site demand migrations (planner state is per site).
        # Unmatched deficits go into one column chunk per site-tick; a
        # traced site also puts each of them into its frame.
        moved = [False] * len(ctrls)
        deficient = self.awake & (raw > self.budget + _EPS)
        for i, ctrl in enumerate(ctrls):
            sl = self.local_slices[i]
            if not bool(deficient[sl].any()):
                continue
            plan = ctrl.migration_planner.plan(ctrl.servers, ctrl.internals)
            ctrl._execute_moves(plan.moves, MigrationCause.DEMAND, now)
            moved[i] = bool(plan.moves)
            if not plan.dropped:
                continue
            vms, nodes = zip(*plan.dropped)
            node_ids = [node.node_id for node in nodes]
            vm_ids = [vm.vm_id for vm in vms]
            powers = [vm.current_demand for vm in vms]
            collector = ctrl.collector
            collector.unmatched_deficits.append_columns(
                now, node_ids, vm_ids, powers
            )
            if collector.tracer.enabled:
                for row in zip(node_ids, vm_ids, powers):
                    collector.tracer.record_unmatched(*row)

        # 5. per-site consolidation on each site's own eta2 cadence.
        for i, ctrl in enumerate(ctrls):
            sl = self.local_slices[i]
            if moved[i]:
                # Demand migrations rehomed VMs: refresh the per-host
                # sums, which consolidation screens and serving reads.
                vm_sums[sl] = ctrl._host_demand_sums(demands[i])
            if (
                ctrl._tick_index > 0
                and ctrl._tick_index % ctrl.config.eta2 == 0
            ):
                # Consolidation reads and writes the objects: a woken
                # server's smoother reset lands in its lanes through
                # the views, and gather() re-reads the rows whose sleep
                # state it changed through methods.
                n_migrations = len(ctrl.collector.migrations)
                changed = ctrl._consolidate(now)
                if len(ctrl.collector.migrations) > n_migrations:
                    vm_sums[sl] = ctrl._host_demand_sums(demands[i])
                    moved[i] = True
                index = ctrl.fleet.index
                ctrl.fleet.gather([index[s.node.node_id] for s in changed])

        # 6. serve power within budget across the whole block; throttle
        # any residual excess per VM in priority order.
        available = np.maximum(
            self.budget - self.static_power - self.mig_cost, 0.0
        )
        fast = self.awake & (available >= vm_sums + _SERVE_MARGIN)
        served = np.where(fast, vm_sums, 0.0)
        slow_rows = np.nonzero(self.awake & ~fast)[0]
        if len(slow_rows):
            # Priority serving reads the slow rows' VM objects.
            available_list = available.tolist()
            for r in slow_rows.tolist():
                i = int(self.row_site[r])
                ctrl = ctrls[i]
                served[r] = ctrl._serve_vms(
                    ctrl.fleet.servers[r - int(self.row_base[i])],
                    available_list[r],
                    now,
                )
        self.served[...] = served

        # 7. thermal update (Eq. 2/3) over the block, each lane in its
        # site's thermal mode, then samples.
        wall = np.where(
            self.asleep,
            self.standby_power,
            np.where(
                self.waking,
                self.static_power,
                self.static_power + served,
            ),
        )
        temps = temperature_step_arrays(
            np.where(self.from_ambient, self.t_ambient, self.temperature),
            wall,
            t_ambient=self.t_ambient,
            c1=self.c1,
            c2=self.c2,
            decay=self.step_decay,
        )
        violations = temps > self.violation_limit
        self.temperature[...] = temps
        utilization = np.where(
            self.awake, np.minimum(served / self.slope, 1.0), 0.0
        )
        np.maximum(self.peak, temps, out=self.peak)
        self.violations += violations
        # One column chunk of samples per site.  The budget and awake
        # lanes change in later ticks, so the chunk gets a copy of the
        # budgets and the negated awake mask: a waking server samples
        # as asleep.
        budget = self.budget.copy()
        asleep = ~self.awake
        for i, ctrl in enumerate(ctrls):
            sl = self.local_slices[i]
            ctrl.collector.server_samples.append_columns(
                now,
                ctrl._server_ids,
                wall[sl],
                temps[sl],
                utilization[sl],
                raw[sl],
                budget[sl],
                asleep[sl],
            )

        # 8. switch traffic and power.
        self._record_switches(now)

        # 9. level-0 imbalance (Eq. 9), then the per-site hooks.
        for i, ctrl in enumerate(ctrls):
            ctrl.collector.record_imbalance(
                now,
                power_imbalance(raw[self.local_slices[i]], ctrl.fleet.budget),
            )
        for ctrl in ctrls:
            for hook in ctrl.on_tick:
                hook(ctrl, ctrl._tick_index, now)
            ctrl._tick_index += 1

        # The segment is done reading: late-pair guests now carry the
        # demand their home generator sampled this tick, exactly the
        # state site-major execution leaves behind.
        for vm, value in zip(late, fresh_vals):
            vm.current_demand = value

    # ------------------------------------------------------- demand reports
    def _aggregate_demands(self, now: float) -> None:
        """Bottom-up Eq. 4 propagation, one fold per level across all
        segment sites at once (groups are independent, so concatenating
        sites preserves each per-node left-to-right fold)."""
        below = self._demand_buf
        below[self.server_gidx] = self.smoothed
        for level in self.levels:
            totals = fold_segment_sums(
                below[level.child_gidx], level.pad_idx, level.valid
            )
            total_list = totals.tolist()
            k = 0
            for ctrl, spec in level.parts:
                for runtime in spec.runtimes:
                    runtime.observe_demand(total_list[k])
                    k += 1
            below[level.node_gidx] = np.fromiter(
                (
                    r.smoothed_demand
                    for _ctrl, spec in level.parts
                    for r in spec.runtimes
                ),
                float,
                len(level.node_gidx),
            )
        for i, ctrl in enumerate(self.controllers):
            ctrl.collector.messages.append_columns(now, self._up_ids[i], True)

    # ------------------------------------------------------------ switches
    def _record_switches(self, now: float) -> None:
        """Base traffic = served power in the subtree (one fold per
        level), plus cross-host IPC and this tick's migrations; one
        linear power expression over the shared switch array, and one
        column chunk of samples per site."""
        below = self._served_buf
        below[self.server_gidx] = self.served
        for level in self.levels:
            below[level.node_gidx] = fold_segment_sums(
                below[level.child_gidx], level.pad_idx, level.valid
            )
        base = below[self._sw_site_gidx] / self._sw_red
        migration = np.zeros(len(base))
        for i, ctrl in enumerate(self.controllers):
            pos = self._sw_pos[i]
            for switch_id, extra in ctrl._ipc_traffic().items():
                base[pos[switch_id]] += extra
            for switch_id, extra in ctrl._tick_migration_traffic.items():
                migration[pos[switch_id]] += extra
        power = self._sw_static + self._sw_wpu * (base + migration)
        self._switch_power = power
        for i, ctrl in enumerate(self.controllers):
            sl = self._sw_slices[i]
            ids, levels = self._sw_meta[i]
            ctrl._last_switch_power.update(zip(ids, power[sl].tolist()))
            ctrl.collector.switch_samples.append_columns(
                now, ids, levels, base[sl], migration[sl], power[sl]
            )

    # --------------------------------------------------------- supply side
    def _hard_caps(self) -> np.ndarray:
        if self._static_caps is not None:
            return self._static_caps
        return np.concatenate(
            [ctrl.fleet.hard_caps() for ctrl in self.controllers]
        )

    def _allocate_budgets(self, now: float) -> None:
        """The Sec. IV-D waterfall, level-at-a-time across all sites."""
        caps = self._caps_buf
        caps[self.server_gidx] = self._hard_caps()
        for level in self.levels:
            caps[level.node_gidx] = fold_segment_sums(
                caps[level.child_gidx], level.pad_idx, level.valid
            )

        budgets = self._budget_buf
        for ctrl, root_gid, runtime in self.root_entries:
            ctrl.root_budget = ctrl.supply.at(now)
            runtime.set_budget(min(ctrl.root_budget, caps[root_gid]))
            budgets[root_gid] = runtime.budget
            if ctrl.tracer.enabled:
                ctrl.tracer.record_root(
                    ctrl.root_budget, caps[root_gid], runtime.budget
                )

        for level in reversed(self.levels):
            # Reserve each node's colocated switch draw off the top.
            reserves = fold_segment_sums(
                self._switch_power[level.reserve_rows],
                level.reserve_pad,
                level.reserve_valid,
            )
            parent_budget = np.maximum(
                budgets[level.node_gidx] - reserves, 0.0
            )
            child_caps = caps[level.child_gidx]
            if level.capacity_mask is None:
                weights = (
                    child_caps
                    if level.capacity_mode
                    else self._demand_buf[level.child_gidx]
                )
            else:
                weights = np.where(
                    level.capacity_mask,
                    child_caps,
                    self._demand_buf[level.child_gidx],
                )
            allocations, _unused = allocate_level(
                parent_budget, weights, child_caps, index=level.alloc_index
            )
            budgets[level.child_gidx] = allocations
            for runtime, allocation in zip(
                level.inner_runtimes, allocations[level.inner_pos].tolist()
            ):
                runtime.set_budget(allocation)
            self._trace_allocations(
                level,
                allocations,
                weights,
                child_caps,
                parent_budget,
                reserves,
            )
        self._set_server_budgets(budgets[self.server_gidx])
        for i, ctrl in enumerate(self.controllers):
            ctrl.collector.messages.append_columns(
                now, self._down_ids[i], False
            )

    def _set_server_budgets(self, budgets: np.ndarray) -> None:
        """:meth:`ServerRuntime.set_budget` for every server of the
        segment (``budgets`` in row order), as array assignments on
        their budget lanes."""
        self.previous_budget[...] = self.budget
        self.budget[...] = budgets
        self.budget_reduced[...] = budgets < self.previous_budget - 1e-9

    def _trace_allocations(
        self, level, allocations, weights, caps, parent_budget, reserves
    ) -> None:
        """One division record per child of every traced site, in the
        scalar controller's per-node order."""
        if not any(ctrl.tracer.enabled for ctrl, _spec in level.parts):
            return
        allocations = allocations.tolist()
        seg = level.alloc_index.seg.tolist()
        weight_list = np.asarray(weights).tolist()
        cap_list = caps.tolist()
        budget_list = parent_budget.tolist()
        reserve_list = reserves.tolist()
        k = 0
        g0 = 0
        for ctrl, spec in level.parts:
            n_children = len(spec.child_nodes)
            tracer = ctrl.tracer
            if tracer.enabled:
                limit = ctrl.config.circuit_limit
                for j, child in enumerate(spec.child_nodes):
                    g = seg[k + j]
                    tracer.record_allocation(
                        child.node_id,
                        spec.nodes[g - g0].node_id,
                        child.level,
                        allocations[k + j],
                        weight_list[k + j],
                        cap_list[k + j],
                        budget_list[g],
                        reserve_list[g],
                        leaf=child.is_leaf,
                        circuit_limit=limit if child.is_leaf else None,
                    )
            k += n_children
            g0 += len(spec.nodes)


def _target_capacities(budget, raw, config) -> np.ndarray:
    """The planners' ``_target_capacity`` over lanes: surplus minus the
    ``P_min`` margin and the migration cost, floored at zero."""
    overhead = config.p_min + config.migration_cost_power
    return np.maximum((budget - raw) - overhead, 0.0)


class _LaneConsolidationPlanner(ConsolidationPlanner):
    """The η₂ planner of an array site: its screens read the site's
    lanes, so a pass reads the objects of the rows that pass them only.
    :meth:`ConsolidationPlanner.plan` does the rest unchanged."""

    def __init__(self, tree, config, fleet: FleetState):
        super().__init__(tree, config)
        self.fleet = fleet

    def _servers(self, mask: np.ndarray) -> list:
        servers = self.fleet.servers
        return [servers[r] for r in np.flatnonzero(mask).tolist()]

    def _starved(self, servers, floor):
        fleet = self.fleet
        return self._servers(fleet.awake & (fleet.budget < floor - _EPS))

    def _drain_candidates(self, servers, limit):
        # A superset screen on the host sums, then the exact test on
        # the rows that pass it.
        fleet = self.fleet
        bound = limit + abs(limit) * _HOST_SUM_RTOL
        return [
            s
            for s in self._servers(fleet.awake & (fleet.vm_sums <= bound))
            if s.vm_demand <= limit
        ]

    def _receive_capacity(self, servers, floor=None):
        fleet = self.fleet
        rows = fleet.awake
        if floor is not None:
            rows = rows & (fleet.budget >= floor)
        capacity = _target_capacities(
            fleet.budget[rows], fleet.raw[rows], self.config
        )
        return dict(zip(fleet.node_ids[rows].tolist(), capacity.tolist()))


class _LaneMigrationPlanner(MigrationPlanner):
    """The demand planner of an array site: its two screens read the
    site's lanes, so a pass reads the objects of the deficient rows and
    of the targets that matching picks only.
    :meth:`MigrationPlanner.plan` does the rest unchanged."""

    def __init__(self, tree, config, fleet: FleetState, ipc_graph=None):
        super().__init__(tree, config, ipc_graph=ipc_graph)
        self.fleet = fleet
        index = fleet.index
        #: The rows under each internal node, which a sinking node
        #: squeezes.
        self._rows_under = {
            node_id: np.array([index[leaf] for leaf in leaves], dtype=np.intp)
            for node_id, leaves in self._group_sorted_leaves.items()
        }

    def _deficient(self, servers):
        fleet = self.fleet
        rows = np.flatnonzero(fleet.awake & (fleet.raw > fleet.budget + _EPS))
        return [fleet.servers[r] for r in rows.tolist()]

    def _receive_capacity(self, servers, internals):
        fleet = self.fleet
        squeezed = self._sinking(
            fleet.budget_reduced, fleet.smoothed, fleet.budget
        )
        for node_id in self._sinking_ids(internals):
            squeezed[self._rows_under[node_id]] = True
        cap = _target_capacities(fleet.budget, fleet.raw, self.config)
        rows = (
            fleet.awake
            & (fleet.raw <= fleet.budget + _EPS)
            & ~squeezed
            & (cap > _EPS)
        )
        return dict(zip(fleet.node_ids[rows].tolist(), cap[rows].tolist()))


class VectorizedWillowController(WillowController):
    """Drop-in replacement for :class:`WillowController` whose tick is
    a one-site :class:`_Segment`.  Same constructor, same metrics, same
    hooks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.config.device_classes is not None:
            raise ValueError(
                "VectorizedWillowController does not support device_classes; "
                "use the scalar WillowController for device-level thermal runs"
            )
        ordered = [self.servers[leaf.node_id] for leaf in self.tree.servers()]
        self.fleet = FleetState(ordered, self.config)
        # The seeding gather fills the sleep masks; after it the tick
        # only re-reads what scalar code changes through methods (sleep
        # states).  Everything else lives in the lanes alone: the
        # servers become views.
        self.fleet.gather()
        self.fleet.bind()
        self.migration_planner = _LaneMigrationPlanner(
            self.tree, self.config, self.fleet, ipc_graph=self.ipc_graph
        )
        self.consolidation_planner = _LaneConsolidationPlanner(
            self.tree, self.config, self.fleet
        )
        self._server_ids = [s.node.node_id for s in self.fleet.servers]
        #: row in the VM demand vector for each vm_id (plan order)
        self._vm_row: Dict[int, int] = {
            vm.vm_id: i for i, vm in enumerate(self.placement.vms)
        }
        self._vm_host_rows = np.array(
            [self.fleet.index[vm.host_id] for vm in self.placement.vms],
            dtype=np.intp,
        )
        # Cross-site hosting support (geo-federation): home VMs that a
        # coordinator moved away contribute nothing here, while foreign
        # VMs hosted on this site's servers are added as a sparse
        # correction on top of the batched per-host sums.
        self._vm_away = np.zeros(len(self.placement.vms), dtype=bool)
        self._away_count = 0
        self._foreign_vms: Dict[int, object] = {}
        self._foreign_rows: Dict[int, int] = {}
        self._bind_vms()
        self._n_nodes = max(node.node_id for node in self.tree) + 1
        self._levels_up = self._build_level_specs()

        #: The one-site segment :meth:`_tick` runs, built on first use.
        #: A federation coordinator ticks this site in one of its own
        #: segments instead and never calls :meth:`_tick`.
        self._segment: Optional[_Segment] = None

    # ---------------------------------------------------------- structure
    def _build_level_specs(self) -> List[_LevelSpec]:
        specs: List[_LevelSpec] = []
        for level in range(1, self.tree.root.level + 1):
            nodes = self.tree.nodes_at_level(level)
            child_nodes: List[Node] = []
            child_runtimes = []
            sizes = []
            for node in nodes:
                sizes.append(len(node.children))
                for child in node.children:
                    child_nodes.append(child)
                    if child.is_leaf:
                        child_runtimes.append(self.servers[child.node_id])
                    else:
                        child_runtimes.append(self.internals[child.node_id])
            offsets = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(
                np.intp
            )
            specs.append(
                _LevelSpec(
                    nodes=list(nodes),
                    node_ids=np.array(
                        [n.node_id for n in nodes], dtype=np.intp
                    ),
                    runtimes=[self.internals[n.node_id] for n in nodes],
                    child_nodes=child_nodes,
                    child_ids=np.array(
                        [c.node_id for c in child_nodes], dtype=np.intp
                    ),
                    child_id_list=[c.node_id for c in child_nodes],
                    child_runtimes=child_runtimes,
                    offsets=offsets,
                    site_switches=[
                        list(self.fabric.at_site(n)) for n in nodes
                    ],
                )
            )
        return specs

    def _bind_vms(self) -> None:
        """Make the home VMs at home views onto a new demand lane
        (``fleet.vm_lane``), when a Poisson generator samples them.  Any
        other source writes the VM objects itself, and they stay
        plain."""
        self.fleet.vm_lane = None
        if isinstance(self.demand_source, DemandGenerator):
            self.fleet.vm_lane = VmDemandLane(
                self._vm_row, self.placement.vms, self._vm_away.tolist()
            )

    # ----------------------------------------------------------------- tick
    def _tick(self) -> None:
        """One array tick as a one-site segment."""
        if self._segment is None:
            self._segment = _Segment(
                FederationFleet([self.fleet]),
                [(self, 0, slice(0, self.fleet.n))],
            )
        self._segment.tick(self.env.now)

    def _total_demand(self) -> float:
        # The raw lane is in fleet order, which is the servers dict's.
        return sum(self.fleet.raw.tolist())

    # -------------------------------------------------------------- demand
    def _sample_vm_demands(self) -> Optional[np.ndarray]:
        """One tick of demand.  A Poisson generator returns the flat
        per-VM vector (plan order), which becomes the home VMs' demand
        lane; VMs hosted away from home are plain, and written here.
        Any other source writes the objects itself and returns
        ``None``."""
        source = self.demand_source
        if not isinstance(source, DemandGenerator):
            source.sample_tick()
            return None
        sample = source.sample_tick_array(write_objects=False)
        self.fleet.vm_lane.set_sample(sample)
        if self._away_count:
            vms = self.placement.vms
            rows = np.flatnonzero(self._vm_away)
            for r, value in zip(rows.tolist(), sample[rows].tolist()):
                vms[r].current_demand = value
        return sample

    def _host_demand_sums(self, vm_demands: Optional[np.ndarray]) -> np.ndarray:
        """Per-host VM demand sums, honouring cross-site hosting.

        Without a demand vector the sums are read off the servers' VM
        dicts, exactly as the scalar controller does -- so live arrivals
        and departures need no row bookkeeping.  With one, the batched
        sum runs over the home placement (plan order, which matches
        each ``server.vms`` insertion order); VMs a federation
        coordinator moved away are zeroed out of the weights, and
        foreign guests are added afterwards in arrival order -- the
        same order the scalar controller's per-server dict sum sees.
        """
        fleet = self.fleet
        if vm_demands is None:
            return np.fromiter(
                (s.vm_demand for s in fleet.servers), float, fleet.n
            )
        weights = vm_demands
        if self._away_count:
            weights = np.where(self._vm_away, 0.0, vm_demands)
        sums = np.bincount(
            self._vm_host_rows, weights=weights, minlength=fleet.n
        )
        guests = self._foreign_vms
        if guests:
            # np.add.at is unbuffered and applies the indices in order,
            # so each host's sum grows guest by guest in arrival order.
            rows = self._foreign_rows
            np.add.at(
                sums,
                np.fromiter(
                    (rows[vm_id] for vm_id in guests), np.intp, len(guests)
                ),
                np.fromiter(
                    (vm.current_demand for vm in guests.values()),
                    float,
                    len(guests),
                ),
            )
        return sums

    # ------------------------------------------------- federation hosting
    # A home VM leaving home becomes a plain object holding its value
    # (its host site reads it as a guest), and a view again back home.
    def vm_departed(self, vm) -> None:
        row = self._vm_row.get(vm.vm_id)
        if row is not None:
            if not self._vm_away[row]:
                self._vm_away[row] = True
                self._away_count += 1
                if self.fleet.vm_lane is not None:
                    self.fleet.vm_lane.unbind(vm)
        else:
            self._foreign_vms.pop(vm.vm_id, None)
            self._foreign_rows.pop(vm.vm_id, None)

    def vm_arrived(self, vm, dst_node_id: int) -> None:
        row = self._vm_row.get(vm.vm_id)
        if row is not None:  # a home VM returning from another site
            if self._vm_away[row]:
                self._vm_away[row] = False
                self._away_count -= 1
                if self.fleet.vm_lane is not None:
                    self.fleet.vm_lane.bind(vm)
            self._vm_host_rows[row] = self.fleet.index[dst_node_id]
        else:
            self._foreign_vms[vm.vm_id] = vm
            self._foreign_rows[vm.vm_id] = self.fleet.index[dst_node_id]

    # --------------------------------------------------- checkpoint/restore
    def snapshot_state(self) -> Dict:
        state = super().snapshot_state()
        # The batched bookkeeping is stored verbatim rather than rebuilt
        # from VM host ids: away VMs keep a stale row on purpose, and
        # live arrivals live outside the plan-ordered row map.
        state["vectorized"] = {
            "vm_row": dict(self._vm_row),
            "vm_host_rows": self._vm_host_rows.copy(),
            "vm_away": self._vm_away.copy(),
            "away_count": self._away_count,
            "foreign_vms": dict(self._foreign_vms),
            "foreign_rows": dict(self._foreign_rows),
        }
        return state

    def restore_state(self, state: Dict) -> None:
        super().restore_state(state)
        batched = state["vectorized"]
        self._vm_row = dict(batched["vm_row"])
        self._vm_host_rows = np.array(batched["vm_host_rows"], dtype=np.intp)
        self._vm_away = np.array(batched["vm_away"], dtype=bool)
        self._away_count = int(batched["away_count"])
        self._foreign_vms = dict(batched["foreign_vms"])
        self._foreign_rows = dict(batched["foreign_rows"])
        # The base restore wrote the view fields (costs included) into
        # the lanes; re-read what it set on plain attributes (sleep
        # states) and bind the restored VMs, which are new objects.  The
        # next tick builds a fresh segment (the switch powers are new
        # too).
        self.fleet.gather()
        self._bind_vms()
        self._segment = None

    # ------------------------------------------------------ migrations
    def _execute_moves(
        self, moves: Iterable[PlannedMove], cause: MigrationCause, now: float
    ) -> None:
        moves = list(moves)
        super()._execute_moves(moves, cause, now)
        index = self.fleet.index
        for move in moves:
            vm_id = move.vm.vm_id
            dst_row = index[move.dst.node_id]
            row = self._vm_row.get(vm_id)
            if row is not None:
                self._vm_host_rows[row] = dst_row
            else:  # an intra-site move of a foreign (federated) guest
                self._foreign_rows[vm_id] = dst_row
