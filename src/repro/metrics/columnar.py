"""Columnar, lazily-materialised metrics storage for batched ticks.

The fused federation tick produces per-tick *arrays* (wall power,
temperatures, utilization, ...), but :class:`~repro.metrics.collector.
MetricsCollector` stores per-sample dataclasses.  Building ~N dataclass
objects per tick is the single largest Python cost of the batched hot
path, and almost all of it is wasted: most runs only read the sample
lists once, at the end, if at all.

:class:`LazyList` keeps the collector contract -- it *is* a ``list``
and any read or mutation sees exactly the elements an eager append
loop would have produced, in the same order -- while letting the hot
path enqueue a *block* per tick: a zero-argument materialiser closing
over the tick's column arrays.  Blocks are expanded in FIFO order the
first time the list is observed, so the cost moves off the per-tick
path entirely and is only ever paid for lists someone actually reads.
"""

from __future__ import annotations

from typing import Callable, Iterable, List

__all__ = ["LazyList"]


class LazyList(list):
    """A ``list`` whose tail may still be queued as column blocks.

    ``push_block(fn)`` enqueues ``fn`` -- a callable returning an
    iterable of elements -- without running it.  Every observation of
    the list (iteration, ``len``, indexing, comparison, ``append``,
    ``sort``, ...) first drains the queue in order, so consumers can
    never tell the difference from an eagerly-built list.
    """

    def __init__(self, iterable: Iterable = ()):  # noqa: D107
        super().__init__(iterable)
        self._pending: List[Callable[[], Iterable]] = []

    # ------------------------------------------------------------- queue
    def push_block(self, materializer: Callable[[], Iterable]) -> None:
        """Enqueue a block; ``materializer()`` runs on first access."""
        self._pending.append(materializer)

    def _drain(self) -> None:
        pending = self._pending
        if pending:
            # Reset first: a materialiser that (indirectly) reads the
            # list must not re-enter the same queue.
            self._pending = []
            for block in pending:
                list.extend(self, block())

    # --------------------------------------------------------- observers
    def __len__(self):
        self._drain()
        return list.__len__(self)

    def __iter__(self):
        self._drain()
        return list.__iter__(self)

    def __reversed__(self):
        self._drain()
        return list.__reversed__(self)

    def __getitem__(self, index):
        self._drain()
        return list.__getitem__(self, index)

    def __contains__(self, item):
        self._drain()
        return list.__contains__(self, item)

    def __eq__(self, other):
        self._drain()
        if isinstance(other, LazyList):
            other._drain()
        return list.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __lt__(self, other):
        self._drain()
        if isinstance(other, LazyList):
            other._drain()
        return list.__lt__(self, other)

    def __le__(self, other):
        self._drain()
        if isinstance(other, LazyList):
            other._drain()
        return list.__le__(self, other)

    def __gt__(self, other):
        self._drain()
        if isinstance(other, LazyList):
            other._drain()
        return list.__gt__(self, other)

    def __ge__(self, other):
        self._drain()
        if isinstance(other, LazyList):
            other._drain()
        return list.__ge__(self, other)

    # Defining __eq__ resets __hash__ to None, which keeps LazyList
    # unhashable exactly like ``list``.

    def __reduce__(self):
        # Pickle and copy the materialised elements: the default list
        # protocol rebuilds without __init__ (no queue) and would copy
        # the queued blocks ahead of the elements.
        return (type(self), (list(self),))

    def __repr__(self):
        self._drain()
        return list.__repr__(self)

    def __add__(self, other):
        self._drain()
        if isinstance(other, LazyList):
            other._drain()
        return list.__add__(self, other)

    def __mul__(self, value):
        self._drain()
        return list.__mul__(self, value)

    def __rmul__(self, value):
        self._drain()
        return list.__rmul__(self, value)

    def copy(self):
        self._drain()
        return list(self)

    def index(self, *args):
        self._drain()
        return list.index(self, *args)

    def count(self, item):
        self._drain()
        return list.count(self, item)

    # ---------------------------------------------------------- mutators
    def append(self, item):
        self._drain()
        list.append(self, item)

    def extend(self, iterable):
        self._drain()
        list.extend(self, iterable)

    def insert(self, index, item):
        self._drain()
        list.insert(self, index, item)

    def pop(self, *args):
        self._drain()
        return list.pop(self, *args)

    def remove(self, item):
        self._drain()
        list.remove(self, item)

    def clear(self):
        self._pending = []
        list.clear(self)

    def sort(self, **kw):
        self._drain()
        list.sort(self, **kw)

    def reverse(self):
        self._drain()
        list.reverse(self)

    def __setitem__(self, index, value):
        self._drain()
        list.__setitem__(self, index, value)

    def __delitem__(self, index):
        self._drain()
        list.__delitem__(self, index)

    def __iadd__(self, other):
        self._drain()
        if isinstance(other, LazyList):
            other._drain()
        list.extend(self, other)
        return self

    def __imul__(self, value):
        self._drain()
        result = list.__mul__(self, value)
        list.clear(self)
        list.extend(self, result)
        return self
