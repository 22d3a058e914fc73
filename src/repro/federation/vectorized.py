"""Federation-wide vectorization: every site's tick in one array sweep.

:class:`BatchedFederationCoordinator` runs the same control system as
:class:`~repro.federation.coordinator.FederationCoordinator` -- same
policies, same FFDLR rebalance, same per-site Willow semantics -- but
ticks its sites through the array tick of :mod:`repro.core.vectorized`
over one shared :class:`~repro.core.fleet.FederationFleet` block:

* **Segments.**  Consecutive array-capable sites (vectorized controllers
  over a Poisson demand generator) form maximal runs ("segments") that
  tick fused: tree levels of different sites concatenate into one
  fold / one ``allocate_level`` call per level.  A site whose tracer is
  enabled is a segment of its own, so its ``Tracer`` frames keep the
  scalar coordinator's site-major order.  Sites the array tick cannot
  model (a non-empty plant-fault schedule, device-class thermal state,
  another demand source) keep their own controller and tick at their
  position.
* **Deferred scatter.**  The arrays are the truth; per-server and
  per-VM Python objects are refreshed *lazily*, only at the points
  scalar code actually reads them (the migration planner, the
  consolidation pass, priority serving, hooks, the federation
  rebalance) and at the end of the run.
* **Late-pair staleness.**  The scalar coordinator ticks sites in list
  order, so a VM hosted at site ``s`` but *homed* at a later site ``h``
  is served against last tick's demand (its home generator has not run
  yet).  The coordinator hands each segment the VM-home map; the fused
  tick restores the stale value onto exactly those late-pair VM objects
  and re-applies the fresh sample when the segment tick ends --
  decisions match the scalar coordinator's to the bit.
* **Array rebalance.**  The Sec. IV-E shed / FFDLR-repack candidate
  search runs on the block arrays (:mod:`repro.binpack.prescreen`):
  masks and exact-key argsorts pick donors and receivers, a verified
  cumsum prefix picks each server's largest-first takes, and only the
  chosen moves are realised through the scalar packer.

Equivalence contract (enforced by tests/test_federation_vectorized.py):
identical decisions and float trajectories to the scalar
``FederationCoordinator`` under every policy, with batteries, plant
faults and WAN migration costs in play -- bit-exact until the first
migration reorders a demand sum, ``rtol=1e-12`` after.  Site and
coordinator ``Tracer`` frames are identical to the scalar coordinator's
(tests/test_trace.py).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.binpack.items import Bin, Item
from repro.binpack.prescreen import (
    deficient_order,
    destination_order,
    shed_takes,
    shed_vm_order,
)
from repro.core.fleet import FederationFleet
from repro.core.vectorized import VectorizedWillowController, _Segment
from repro.federation.coordinator import FederationCoordinator, _EPS
from repro.federation.site import Site
from repro.workload.generator import DemandGenerator

# The benchmark's traced mode (perfbench/spans.py, BY_NAME) wraps these
# array kernels by name in this module and fails when a name is gone.
from repro.core.fleet import fold_segment_sums  # noqa: F401
from repro.power.budget import allocate_level  # noqa: F401
from repro.thermal.model import temperature_step_arrays  # noqa: F401

__all__ = ["BatchedFederationCoordinator"]


class BatchedFederationCoordinator(FederationCoordinator):
    """Drop-in :class:`FederationCoordinator` with a batched tick path.

    Same constructor and public surface; sites built on
    :class:`~repro.core.vectorized.VectorizedWillowController` (see
    ``build_federation(vectorized=True)``) tick fused in segments, the
    rest tick scalar at their positions.
    """

    def __init__(
        self,
        sites: Sequence[Site],
        *,
        federation=None,
        tracer=None,
    ):
        super().__init__(sites, federation=federation, tracer=tracer)
        #: vm_id -> index of the VM's *home* site, for the segments'
        #: late-pair staleness rule.  Filled on the first cross-site
        #: move: until then every VM is at home.
        self._vm_home: Dict[int, int] = {}

        # Partition into segments (lists of site indices) and scalar
        # sites, in tick order.
        plan: List[object] = []
        run: List[int] = []
        for idx, site in enumerate(self.sites):
            if self._fusable(site) and not site.controller.tracer.enabled:
                run.append(idx)
                continue
            if run:
                plan.append(run)
                run = []
            # A traced site ticks as a segment of its own so its frames
            # keep site-major order.
            plan.append([idx] if self._fusable(site) else site)
        if run:
            plan.append(run)

        fused_idx = [i for part in plan if isinstance(part, list) for i in part]
        self.fed_fleet: Optional[FederationFleet] = None
        if fused_idx:
            self.fed_fleet = FederationFleet(
                [self.sites[i].controller.fleet for i in fused_idx]
            )
            block_slice = dict(zip(fused_idx, self.fed_fleet.site_slices))
        self._plan: List[object] = []
        self.segments: List[_Segment] = []
        #: controller -> (owning segment, position inside it), for the
        #: rebalance path to flush deferred state on demand.
        self._seg_of_ctrl: Dict[object, Tuple[_Segment, int]] = {}
        for part in plan:
            if isinstance(part, list):
                segment = _Segment(
                    self.fed_fleet,
                    [
                        (self.sites[i].controller, i, block_slice[i])
                        for i in part
                    ],
                    self._vm_home,
                )
                self.segments.append(segment)
                self._plan.append(segment)
                for pos, ctrl in enumerate(segment.controllers):
                    self._seg_of_ctrl[ctrl] = (segment, pos)
            else:
                self._plan.append(part)

    @staticmethod
    def _fusable(site: Site) -> bool:
        controller = site.controller
        return isinstance(
            controller, VectorizedWillowController
        ) and isinstance(controller.demand_source, DemandGenerator)

    def snapshot_state(self) -> Dict:
        """Not supported: the fused tick defers object scatter behind
        per-site dirty flags, so between-ticks object state is not
        guaranteed coherent.  Build with ``vectorized=False`` for a
        checkpointable federation (site controllers may themselves be
        vectorized via ``SiteSpec.vectorized``)."""
        from repro.checkpoint.errors import CheckpointError

        raise CheckpointError(
            "BatchedFederationCoordinator does not support checkpointing; "
            "build the federation with vectorized=False (per-site "
            "vectorized controllers remain supported)"
        )

    # ------------------------------------------------------------------ run
    def run(self, n_ticks: int) -> "FederationCoordinator":
        result = super().run(n_ticks)
        for segment in self.segments:
            segment.flush()
        return result

    # ----------------------------------------------------------------- tick
    def _tick(self) -> None:
        tick = self._tick_index
        now = tick * self.delta_d
        if tick > 0 and tick % self.eta1 == 0:
            self._rebalance(tick, now)
        for part in self._plan:
            if isinstance(part, _Segment):
                part.tick(now)
            else:
                part.controller._tick()
        for site in self.sites:
            site.controller.env.advance(site.config.delta_d)
        self._tick_index += 1

    # ----------------------------------------------------------- rebalance
    def _shed_candidates(
        self, site: Site, watts: float
    ) -> List[Tuple[int, float, Item]]:
        """Array pre-screen of the Sec. IV-E shedding rule.

        Donor order and per-server largest-first takes come from
        :mod:`repro.binpack.prescreen`; per-server floats come straight
        off the block arrays (bit-identical to the object attributes an
        eager tick would have written), so decisions (and the
        directive's running left fold) are exactly the scalar
        coordinator's.
        """
        controller = site.controller
        if not isinstance(controller, VectorizedWillowController):
            return super()._shed_candidates(site, watts)
        entry = self._seg_of_ctrl.get(controller)
        if entry is not None:
            # VM metadata is read from the objects below.
            entry[0]._flush_vms(entry[1])
        config = site.config
        fleet = controller.fleet
        rows = deficient_order(
            fleet.awake, fleet.raw, fleet.budget, fleet.node_ids, _EPS
        )
        left = watts
        out: List[Tuple[int, float, Item]] = []
        if not len(rows):
            return out
        raw_list = fleet.raw[rows].tolist()
        budget_list = fleet.budget[rows].tolist()
        for k_row, r in enumerate(rows.tolist()):
            if left <= _EPS:
                break
            server = fleet.servers[r]
            raw_r = raw_list[k_row]
            budget_r = budget_list[k_row]
            deficit = raw_r - budget_r
            goal = max(budget_r - config.p_min, 0.0)
            vms = list(server.vms.values())
            if not vms:
                continue
            demands = np.fromiter(
                (v.current_demand for v in vms), float, len(vms)
            )
            vm_ids = np.fromiter(
                (v.vm_id for v in vms), np.int64, len(vms)
            )
            order = shed_vm_order(demands, vm_ids)
            takes, left = shed_takes(
                demands[order], raw_r, goal, left, _EPS
            )
            for k in takes:
                vm = vms[int(order[k])]
                out.append(
                    (
                        server.node.node_id,
                        deficit,
                        Item(
                            key=vm.vm_id,
                            size=vm.current_demand,
                            payload=vm,
                        ),
                    )
                )
        return out

    def _preshed_candidates(
        self, site: Site, watts: float
    ) -> List[Tuple[int, float, Item]]:
        """Pre-emptive shedding for a batched site.

        VM takes are decided on the object metadata, so the deferred
        segment state is flushed first; server order (least headroom
        first) comes off the block arrays, bit-identical to the scalar
        coordinator's attribute reads.
        """
        controller = site.controller
        if not isinstance(controller, VectorizedWillowController):
            return super()._preshed_candidates(site, watts)
        entry = self._seg_of_ctrl.get(controller)
        if entry is not None:
            entry[0]._flush_vms(entry[1])
        fleet = controller.fleet
        headroom = fleet.budget - fleet.raw
        rows = np.lexsort((fleet.node_ids, headroom))
        remaining_directive = watts
        out: List[Tuple[int, float, Item]] = []
        awake_list = fleet.awake[rows].tolist()
        for k_row, r in enumerate(rows.tolist()):
            if remaining_directive <= _EPS:
                break
            if not awake_list[k_row]:
                continue
            server = fleet.servers[r]
            for vm in sorted(
                server.vms.values(),
                key=lambda v: (-v.current_demand, v.vm_id),
            ):
                if remaining_directive <= _EPS:
                    break
                if vm.current_demand <= 0:
                    continue
                if vm.current_demand > remaining_directive + _EPS:
                    continue
                out.append(
                    (
                        server.node.node_id,
                        watts,
                        Item(
                            key=vm.vm_id,
                            size=vm.current_demand,
                            payload=vm,
                        ),
                    )
                )
                remaining_directive -= vm.current_demand
        return out

    def _destination_bins(self, site: Site) -> List[Bin]:
        """Array pre-screen of the FFDLR receiver bins (awake, not
        deficient, not squeezed, positive post-margin surplus)."""
        controller = site.controller
        if not isinstance(controller, VectorizedWillowController):
            return super()._destination_bins(site)
        wan_power, _ = self._wan_cost(site)
        config = site.config
        fleet = controller.fleet
        squeezed = controller._squeezed_mask(fleet.smoother.values)
        capacity = fleet.budget - fleet.raw - config.p_min - wan_power
        order, caps = destination_order(
            fleet.awake,
            fleet.raw,
            fleet.budget,
            squeezed,
            capacity,
            fleet.node_ids,
            _EPS,
        )
        cap_list = caps.tolist()
        node_list = fleet.node_ids[order].tolist()
        return [
            Bin(key=int(node_id), capacity=cap_list[k])
            for k, node_id in enumerate(node_list)
        ]

    def _move_vm(self, vm, *args, **kw):
        if not self._vm_home:
            self._vm_home.update(
                (v.vm_id, i)
                for i, site in enumerate(self.sites)
                for v in site.controller.placement.vms
            )
        super()._move_vm(vm, *args, **kw)
