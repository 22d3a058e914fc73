"""Array pre-screens for the rebalance of vectorized sites.

The :class:`~repro.federation.coordinator.FederationCoordinator` answers
two questions per transfer directive: *which VMs would the deficit site
shed* and *which servers at the destination can absorb them* (the FFDLR
bins).  For a site on
:class:`~repro.core.vectorized.VectorizedWillowController` the
coordinator asks the functions here, which screen the fleet lanes with
the :mod:`repro.binpack.prescreen` kernels -- masks and exact-key
argsorts pick donors and receivers -- and read per-server floats
straight off the arrays.  Only the VM objects of the chosen servers are
touched; they are views onto the site's demand lane (or plain guests).

Each function returns exactly what the coordinator's object walk of the
same name returns on the same site: the same VMs, in the same order,
with the same floats (``tests/test_federation_vectorized.py``).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.binpack.items import Bin, Item
from repro.binpack.prescreen import deficient_order, destination_order
from repro.core.controller import _EPS
from repro.federation.site import Site

# The benchmark's traced mode (perfbench/spans.py, BY_NAME) wraps these
# array kernels by name in this module and fails when a name is gone.
from repro.core.fleet import fold_segment_sums  # noqa: F401
from repro.power.budget import allocate_level  # noqa: F401
from repro.thermal.model import temperature_step_arrays  # noqa: F401

__all__ = ["shed_candidates", "preshed_candidates", "destination_bins"]


def shed_candidates(site: Site, watts: float) -> List[Tuple[int, float, Item]]:
    """Array version of the Sec. IV-E shedding rule.

    Donor order comes from :mod:`repro.binpack.prescreen` and
    per-server floats off the fleet lanes, bit-identical to the object
    attributes; each donor's largest-first takes are the object walk's
    own loop over its VM objects (a handful per server, which a sort
    and a sequential fold settle faster than array calls would).
    """
    config = site.config
    fleet = site.controller.fleet
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
        remaining = raw_r
        for vm in sorted(
            server.vms.values(),
            key=lambda v: (-v.current_demand, v.vm_id),
        ):
            if remaining <= goal + _EPS or left <= _EPS:
                break
            if vm.current_demand <= 0:
                continue
            if vm.current_demand > left + _EPS:
                continue  # would overshoot the directive
            out.append(
                (
                    server.node.node_id,
                    deficit,
                    Item(key=vm.vm_id, size=vm.current_demand, payload=vm),
                )
            )
            remaining -= vm.current_demand
            left -= vm.current_demand
    return out


def preshed_candidates(
    site: Site, watts: float
) -> List[Tuple[int, float, Item]]:
    """Array version of the pre-emptive shed: server order (least
    headroom first) comes off the fleet lanes; each server's takes are
    decided on its VM objects, largest first."""
    fleet = site.controller.fleet
    rows = np.lexsort((fleet.node_ids, fleet.budget - fleet.raw))
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
                    Item(key=vm.vm_id, size=vm.current_demand, payload=vm),
                )
            )
            remaining_directive -= vm.current_demand
    return out


def destination_bins(site: Site, wan_power: float) -> List[Bin]:
    """Array version of the FFDLR receiver screen (awake, not
    deficient, not squeezed, positive post-margin surplus)."""
    controller = site.controller
    fleet = controller.fleet
    squeezed = controller._squeezed_mask(fleet.smoother.values)
    capacity = fleet.budget - fleet.raw - site.config.p_min - wan_power
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
