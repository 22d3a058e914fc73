"""Data model for variable-size bin packing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Sequence

__all__ = ["Item", "Bin", "Receivers", "PackResult"]


@dataclass(frozen=True, slots=True)
class Item:
    """One demand to place.

    ``key`` identifies the demand (a VM id in Willow's use); ``size`` is
    its power demand in watts.  ``payload`` carries arbitrary caller
    context through the packer untouched.
    """

    key: Any
    size: float
    payload: Any = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"item size must be >= 0, got {self.size}")


@dataclass(slots=True)
class Bin:
    """One surplus to fill.

    ``key`` identifies the node offering the surplus; ``capacity`` is
    the surplus in watts.  ``contents`` accumulates packed items.
    """

    key: Any
    capacity: float
    contents: List[Item] = field(default_factory=list)
    _load: float = field(init=False, repr=False, compare=False)
    _load_len: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError(f"bin capacity must be >= 0, got {self.capacity}")
        self._load = sum(item.size for item in self.contents)
        self._load_len = len(self.contents)

    @property
    def load(self) -> float:
        """Total size currently packed into this bin."""
        # Cached incrementally by add(); recomputed only if the caller
        # mutated ``contents`` directly.  The incremental updates add
        # sizes in append order, so the cache always equals the plain
        # left-to-right sum bit for bit.
        if len(self.contents) != self._load_len:
            self._load = sum(item.size for item in self.contents)
            self._load_len = len(self.contents)
        return self._load

    @property
    def residual(self) -> float:
        """Remaining capacity."""
        return self.capacity - self.load

    def fits(self, item: Item, slack: float = 1e-9) -> bool:
        """Whether ``item`` fits in the remaining capacity."""
        return item.size <= self.residual + slack

    def add(self, item: Item) -> None:
        if not self.fits(item):
            raise ValueError(
                f"item {item.key!r} ({item.size}) does not fit in bin "
                f"{self.key!r} (residual {self.residual})"
            )
        load = self.load  # sync the cache before appending
        self.contents.append(item)
        self._load = load + item.size
        self._load_len = len(self.contents)


class Receivers(NamedTuple):
    """Bins to fill, as parallel lists in the caller's order.

    ``keys[i]`` offers ``capacities[i]`` (each ``>= 0``).  Unlike a
    list of :class:`Bin`, nothing is built per receiver up front: the
    packer builds a :class:`Bin` only for a receiver that gets an item.
    """

    keys: Sequence[Any]
    capacities: Sequence[float]


@dataclass
class PackResult:
    """Outcome of a packing run.

    Attributes
    ----------
    assignment:
        Maps each packed item key to the key of the bin holding it.
    bins:
        The bins, with their final contents (given :class:`Receivers`,
        only those that got an item).
    unpacked:
        Items that fit in no bin (Willow drops these demands).
    """

    assignment: Dict[Any, Any]
    bins: List[Bin]
    unpacked: List[Item]

    @property
    def bins_used(self) -> int:
        """Number of bins holding at least one item."""
        return sum(1 for b in self.bins if b.contents)

    @property
    def packed_size(self) -> float:
        """Total size successfully placed."""
        return sum(b.load for b in self.bins)

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on breakage."""
        seen = set()
        for bin_ in self.bins:
            if bin_.load > bin_.capacity + 1e-6:
                raise ValueError(
                    f"bin {bin_.key!r} overfull: {bin_.load} > {bin_.capacity}"
                )
            for item in bin_.contents:
                if item.key in seen:
                    raise ValueError(f"item {item.key!r} placed twice")
                seen.add(item.key)
                if self.assignment.get(item.key) != bin_.key:
                    raise ValueError(
                        f"assignment map disagrees with bin contents for "
                        f"{item.key!r}"
                    )
        for item in self.unpacked:
            if item.key in seen:
                raise ValueError(
                    f"item {item.key!r} both packed and unpacked"
                )
        if len(self.assignment) != len(seen):
            raise ValueError("assignment map size mismatch")
