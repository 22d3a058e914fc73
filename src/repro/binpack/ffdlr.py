"""FFDLR: First Fit Decreasing (using Largest bins), then Repack.

Friesen & Langston's variable-size bin packing scheme as described in
Sec. IV-F:

1. Normalise bin and demand sizes so the largest bin has size 1.
2. First-fit-decreasing all demands into (virtual) bins of size 1.
3. Repack the contents of each virtual bin into the smallest actual bin
   that can hold them.

Guarantee: at most (3/2) OPT + 1 bins, in O(n log n) time.  The repack
step is what makes FFDLR attractive for Willow: "repacking into smaller
bins means we try to run every server at full utilization.  The bins
(servers) that are empty can then be deactivated during the
consolidation phase."

Willow has a *finite* set of real bins (node surpluses), so after the
virtual FFD phase each virtual-bin group is matched to the smallest
unused real bin that fits; groups with no feasible bin are split and
their items re-offered individually (best-fit) before being declared
unpackable.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.binpack.items import Bin, Item, PackResult

__all__ = ["ffdlr_pack", "ffd_bin_count"]

_SLACK = 1e-9


def ffd_bin_count(sizes: Sequence[float], capacity: float) -> int:
    """Classical FFD into unlimited bins of equal ``capacity``.

    Returns the number of bins used.  Items larger than the capacity
    raise (the caller must filter such demands first).
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    loads: List[float] = []
    for size in sorted(sizes, reverse=True):
        if size > capacity + _SLACK:
            raise ValueError(f"item of size {size} exceeds capacity {capacity}")
        for i, load in enumerate(loads):
            if load + size <= capacity + _SLACK:
                loads[i] = load + size
                break
        else:
            loads.append(size)
    return len(loads)


def _ffd_groups(items: List[Item], capacity: float) -> List[List[Item]]:
    """Phase 1: FFD into virtual bins of ``capacity``; returns groups."""
    groups: List[List[Item]] = []
    loads: List[float] = []
    for item in sorted(items, key=lambda it: it.size, reverse=True):
        placed = False
        for i, load in enumerate(loads):
            if load + item.size <= capacity + _SLACK:
                groups[i].append(item)
                loads[i] = load + item.size
                placed = True
                break
        if not placed:
            groups.append([item])
            loads.append(item.size)
    return groups


def ffdlr_pack(items: Sequence[Item], bins: Sequence[Bin]) -> PackResult:
    """Pack ``items`` into the finite set of variable-size ``bins``.

    Items larger than every bin, and overflow once all bins are at
    capacity, come back in ``result.unpacked``.  Input ``bins`` objects
    are mutated (contents appended) and also returned in the result.
    """
    bins = list(bins)
    result = PackResult(assignment={}, bins=bins, unpacked=[])
    keys = [item.key for item in items]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate item keys")
    # Zero-size items trivially "fit" anywhere; drop them from packing
    # but keep them out of unpacked (they demand nothing).
    pending = [item for item in items if item.size > 0]
    if not pending:
        return result
    if not bins:
        result.unpacked = list(pending)
        return result

    largest = max(b.capacity for b in bins)
    if largest <= 0:
        result.unpacked = list(pending)
        return result

    # Phase 1: FFD into virtual bins of the largest real capacity.
    # Oversized items can never fit; set them aside immediately.
    oversized = [it for it in pending if it.size > largest + _SLACK]
    packable = [it for it in pending if it.size <= largest + _SLACK]
    groups = _ffd_groups(packable, largest)

    # Phase 2 (the "LR" repack): match each group, heaviest first, to
    # the smallest unused real bin that holds it.  The scans run over
    # flat capacity/load arrays; the fit tests reuse the exact scalar
    # expressions (``total <= cap + _SLACK``, first minimum wins) so
    # decisions match the original bin-object loops bit for bit.
    caps = np.array([b.capacity for b in bins], dtype=float)
    loads = np.array([b.load for b in bins], dtype=float)
    order = np.argsort(caps, kind="stable")
    sorted_caps = caps[order]
    avail = np.ones(len(bins), dtype=bool)
    leftovers: List[Item] = list(oversized)
    for group in sorted(groups, key=lambda g: sum(i.size for i in g), reverse=True):
        total = sum(item.size for item in group)
        feasible = avail & (total <= sorted_caps + _SLACK)
        pos = int(np.argmax(feasible)) if feasible.any() else -1
        if pos >= 0:
            avail[pos] = False
            bin_index = int(order[pos])
            chosen = bins[bin_index]
            for item in group:
                chosen.add(item)
                result.assignment[item.key] = chosen.key
            loads[bin_index] = chosen.load
        else:
            leftovers.extend(group)

    # Split infeasible groups: best-fit each leftover item individually
    # into whatever residual capacity remains (used bins included).  A
    # residual never exceeds its bin's capacity, so an oversized item
    # goes straight to unpacked.
    for item in sorted(leftovers, key=lambda it: it.size, reverse=True):
        if item.size > largest + _SLACK:
            result.unpacked.append(item)
            continue
        residual = caps - loads
        feasible = np.flatnonzero(item.size <= residual + _SLACK)
        if feasible.size:
            best_index = int(feasible[np.argmin(residual[feasible])])
            best = bins[best_index]
            best.add(item)
            result.assignment[item.key] = best.key
            loads[best_index] = best.load
        else:
            result.unpacked.append(item)

    result.validate()
    return result
