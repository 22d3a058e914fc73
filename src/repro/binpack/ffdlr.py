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

Both searches bisect a stable ascending order of the receivers'
capacities, so a call costs one sort of the receivers plus a
logarithmic search per group and per leftover item.  A caller may pass
its receivers as :class:`~repro.binpack.items.Receivers` (parallel
key and capacity lists) instead of :class:`Bin` objects; then a
:class:`Bin` is built only for a receiver that gets an item.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Union

from repro.binpack.items import Bin, Item, PackResult, Receivers

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


def _fit_key(room: float) -> float:
    # ``size <= room + _SLACK`` is the one fit test.  Rounding is
    # monotone, so the test holds on a suffix of an ascending order.
    return room + _SLACK


class _Order:
    """Caller indexes of ``values`` in stable ascending order.

    Positions are searched by bisection over the sorted values; equal
    values keep caller order, so the k-th position among equal values
    is the k-th caller index holding that value.  A taken position is
    skipped by later searches (a path-compressed next-free link).
    """

    def __init__(self, values: Sequence[float]):
        self.values = values
        self.sorted = sorted(values)
        self._next: Dict[int, int] = {}

    def first_fit(self, size: float) -> Optional[int]:
        """Position of the smallest untaken value that holds ``size``,
        first in caller order among equals; ``None`` if none does."""
        pos = bisect_left(self.sorted, size, key=_fit_key)
        root = pos
        while root in self._next:
            root = self._next[root]
        while pos != root:
            self._next[pos], pos = root, self._next[pos]
        return root if root < len(self.sorted) else None

    def index(self, pos: int) -> int:
        """Caller index of the value at ``pos``."""
        value = self.sorted[pos]
        index = self.values.index(value)
        for _ in range(pos - bisect_left(self.sorted, value)):
            index = self.values.index(value, index + 1)
        return index

    def take(self, pos: int) -> None:
        self._next[pos] = pos + 1


def ffdlr_pack(
    items: Sequence[Item], bins: Union[Sequence[Bin], Receivers]
) -> PackResult:
    """Pack ``items`` into the finite set of variable-size ``bins``.

    Items larger than every bin, and overflow once all bins are at
    capacity, come back in ``result.unpacked``.  Given :class:`Bin`
    objects, they are mutated (contents appended) and all returned in
    the result.  Given :class:`Receivers`, the result holds a new
    :class:`Bin` for each receiver that got an item, in caller order.
    """
    if isinstance(bins, Receivers):
        keys, caps = bins.keys, bins.capacities
        if len(keys) != len(caps):
            raise ValueError("receiver keys and capacities differ in length")
        given: Optional[List[Bin]] = None
        loads = None
    else:
        given = list(bins)
        keys = [b.key for b in given]
        caps = [b.capacity for b in given]
        loads = [b.load for b in given]
    by_cap = _Order(caps)
    if given is None and by_cap.sorted and by_cap.sorted[0] < 0:
        raise ValueError(f"bin capacity must be >= 0, got {by_cap.sorted[0]}")
    # Bins that got an item in this call, by caller index.
    used: Dict[int, Bin] = {}
    result = PackResult(
        assignment={}, bins=given if given is not None else [], unpacked=[]
    )
    item_keys = [item.key for item in items]
    if len(set(item_keys)) != len(item_keys):
        raise ValueError("duplicate item keys")
    # Zero-size items trivially "fit" anywhere; drop them from packing
    # but keep them out of unpacked (they demand nothing).
    pending = [item for item in items if item.size > 0]
    if not pending:
        return result
    if not caps:
        result.unpacked = list(pending)
        return result

    largest = by_cap.sorted[-1]
    if largest <= 0:
        result.unpacked = list(pending)
        return result

    # Residual of each used bin, kept as items land.
    rooms: Dict[int, float] = {}

    def bin_at(index: int) -> Bin:
        """Bin ``index``; given receivers, built when it gets an item."""
        chosen = used.get(index)
        if chosen is None:
            chosen = (
                given[index]
                if given is not None
                else Bin(key=keys[index], capacity=caps[index])
            )
            used[index] = chosen
        return chosen

    def landed(index: int, placed: List[Item]) -> None:
        """Record ``placed``, just put into bin ``index``."""
        chosen = used[index]
        for item in placed:
            result.assignment[item.key] = chosen.key
        rooms[index] = chosen.residual

    # Phase 1: FFD into virtual bins of the largest real capacity.
    # Oversized items can never fit; set them aside immediately.
    oversized = [it for it in pending if it.size > largest + _SLACK]
    packable = [it for it in pending if it.size <= largest + _SLACK]
    groups = _ffd_groups(packable, largest)

    # Phase 2 (the "LR" repack): match each group, heaviest first, to
    # the smallest unused real bin that holds it -- by capacity, as
    # ``total <= cap + _SLACK``, the first in caller order among equal
    # capacities.
    leftovers: List[Item] = list(oversized)
    for group in sorted(groups, key=lambda g: sum(i.size for i in g), reverse=True):
        total = sum(item.size for item in group)
        pos = by_cap.first_fit(total)
        if pos is None:
            leftovers.extend(group)
            continue
        by_cap.take(pos)
        index = by_cap.index(pos)
        # The group lands with the one fit test phase 2 chose by, on its
        # total: one by one, an item smaller than the slack that let
        # the group in could fail to fit after the others.
        bin_at(index).extend(group)
        landed(index, group)

    # Split infeasible groups: best-fit each leftover item individually
    # into whatever residual capacity remains (used bins included): the
    # smallest residual that holds it, the first in caller order among
    # equals.  The bins no item has reached keep their starting
    # residuals and are searched in that order; the used ones are few
    # and scanned.  A residual never exceeds its bin's capacity, so an
    # oversized item goes straight to unpacked.
    if leftovers:
        if loads is None or not any(loads):
            by_room = by_cap
        else:
            by_room = _Order([c - l for c, l in zip(caps, loads)])
    for item in sorted(leftovers, key=lambda it: it.size, reverse=True):
        if item.size > largest + _SLACK:
            result.unpacked.append(item)
            continue
        pos = by_room.first_fit(item.size)
        while pos is not None and by_room.index(pos) in used:
            by_room.take(pos)
            pos = by_room.first_fit(item.size)
        best = None if pos is None else (by_room.sorted[pos], by_room.index(pos))
        for index, room in rooms.items():
            if item.size <= room + _SLACK and (best is None or (room, index) < best):
                best = (room, index)
        if best is None:
            result.unpacked.append(item)
            continue
        bin_at(best[1]).add(item)
        landed(best[1], [item])

    if given is None:
        result.bins = [used[index] for index in sorted(used)]
    result.validate()
    return result
