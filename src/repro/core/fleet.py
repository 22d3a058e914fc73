"""Struct-of-arrays state of a server fleet, and the runtime objects
that are views onto it.

:class:`FleetState` holds an ordered list of
:class:`~repro.core.state.ServerRuntime` objects as flat NumPy lanes:
immutable per-server parameters are captured once, and the mutable
state is seeded from the objects once.  :meth:`FleetState.bind` then
makes every server, its thermal integrator and its smoother a view onto
its row, so the lanes are the only storage for what the array tick
writes; a site's home VMs become views onto its demand lane the same
way (:class:`VmDemandLane`).  What scalar code changes through methods
(sleep states, pending migration costs) is re-read by the ``gather``
calls, in full or only for the rows it changed.

:class:`FederationFleet` concatenates one or more site fleets into one
block and rebinds each site's lanes to views of it; the array tick in
:mod:`repro.core.vectorized` sweeps the block.  See docs/performance.md
for the layout and the equivalence contract.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import WillowConfig
from repro.core.state import ServerRuntime, SleepState
from repro.power.smoothing import ExponentialSmoother, VectorSmoother
from repro.thermal.model import TemperatureIntegrator, power_cap_arrays
from repro.workload.vm import VM

__all__ = [
    "FleetState",
    "FederationFleet",
    "LaneServerRuntime",
    "LaneThermal",
    "LaneSmoother",
    "LaneVM",
    "VmDemandLane",
    "fold_segment_sums",
    "build_fold_index",
]


def build_fold_index(sizes: np.ndarray) -> tuple:
    """Padded (group, slot) index matrices for :func:`fold_segment_sums`.

    ``sizes`` holds each group's child count over a flat, group-ordered
    array.  Returns ``(pad_idx, valid)`` where ``pad_idx[g, j]`` is the
    flat index of group ``g``'s ``j``-th element (0 where absent) and
    ``valid`` masks real slots.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.intp)
    max_size = int(sizes.max()) if len(sizes) else 0
    slots = np.arange(max_size)
    valid = slots[None, :] < sizes[:, None]
    pad_idx = np.where(valid, offsets[:, None] + slots[None, :], 0)
    return pad_idx, valid


def fold_segment_sums(
    values: np.ndarray, pad_idx: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """Per-group sums as a left-to-right fold across slot columns.

    Matches the accumulation order of Python's ``sum()`` (and NumPy's
    ``.sum()`` below its pairwise threshold) on each group, so results
    are bit-identical to the scalar controller's per-node loops --
    unlike ``np.add.reduceat``, whose SIMD accumulation reorders at the
    ulp level.
    """
    padded = np.where(valid, values[pad_idx], 0.0)
    if padded.shape[1] == 0:
        return np.zeros(len(pad_idx))
    acc = padded[:, 0].copy()
    for j in range(1, padded.shape[1]):
        acc += padded[:, j]
    return acc


class FleetState:
    """The lanes of an ordered server fleet.

    Parameters
    ----------
    servers:
        Server runtimes in a fixed order (the controller uses
        ``tree.servers()`` order, which matches its ``servers`` dict's
        insertion order).  Row ``i`` of every lane belongs to
        ``servers[i]``.
    config:
        The run configuration; supplies ``alpha``, tick length and
        thermal mode.
    """

    def __init__(self, servers: List[ServerRuntime], config: WillowConfig):
        self.servers = list(servers)
        self.config = config
        n = len(self.servers)
        self.n = n
        #: node_id -> row index
        self.index: Dict[int, int] = {
            s.node.node_id: i for i, s in enumerate(self.servers)
        }
        self.node_ids = np.array(
            [s.node.node_id for s in self.servers], dtype=np.intp
        )

        # -- immutable per-server parameters -----------------------------
        self.static_power = np.array(
            [s.model.static_power for s in self.servers]
        )
        self.standby_power = np.array(
            [s.model.standby_power for s in self.servers]
        )
        self.slope = np.array([s.model.slope for s in self.servers])
        self.t_ambient = np.array(
            [s.thermal_params.t_ambient for s in self.servers]
        )
        self.t_limit = np.array(
            [s.thermal_params.t_limit for s in self.servers]
        )
        self.c1 = np.array([s.thermal_params.c1 for s in self.servers])
        self.c2 = np.array([s.thermal_params.c2 for s in self.servers])
        self.thermal_window = np.array(
            [s.thermal_window for s in self.servers]
        )
        # exp(-c2 * dt) for the tick-length integration step and for the
        # Eq. 3 adjustment window; both are fixed for the whole run.
        self.decay_tick = np.exp(-self.c2 * config.delta_d)
        self.decay_window = np.exp(-self.c2 * self.thermal_window)
        self.circuit_limit = float(config.circuit_limit)
        if config.thermal_enabled and config.thermal_mode == "window_reset":
            # Constant zone caps: Eq. 3 evaluated at each zone's ambient.
            zone_cap = power_cap_arrays(
                self.t_ambient,
                t_ambient=self.t_ambient,
                t_limit=self.t_limit,
                c1=self.c1,
                c2=self.c2,
                decay=self.decay_window,
            )
            self.window_caps = np.minimum(self.circuit_limit, zone_cap)
        else:
            self.window_caps = None

        # -- mutable state, seeded from the objects ----------------------
        # Sleep masks and cost lanes are filled by :meth:`gather`.
        servers = self.servers

        def lane(values, dtype=float):
            return np.fromiter(values, dtype, n)

        self.awake = np.zeros(n, dtype=bool)
        self.asleep = np.zeros(n, dtype=bool)
        self.waking = np.zeros(n, dtype=bool)
        self.mig_cost = np.zeros(n)
        self.budget = lane(s.budget for s in servers)
        self.temperature = lane(s.thermal.temperature for s in servers)
        self.peak = lane(s.thermal.peak for s in servers)
        self.violations = lane(
            (s.thermal.violations for s in servers), np.int64
        )
        self.raw = lane(s.raw_demand for s in servers)
        self.served = lane(s.served_power for s in servers)
        # ExponentialSmoother keeps None until primed; mirror that into
        # the (value, primed) lane pair.
        self.smoother = VectorSmoother(config.alpha, n)
        for i, s in enumerate(servers):
            value = s.smoother._value
            if value is not None:
                self.smoother.values[i] = value
                self.smoother.primed[i] = True
        #: The demand lane of the site's home VMs, once they are bound
        #: (see :class:`VmDemandLane`).
        self.vm_lane: Optional[VmDemandLane] = None

    def bind(self) -> None:
        """Make every server, its thermal integrator and its smoother a
        view onto its row of the lanes: reading or writing
        ``server.raw_demand`` reads or writes the ``raw`` lane."""
        for row, server in enumerate(self.servers):
            _bind(server, LaneServerRuntime, self, row)
            _bind(server.thermal, LaneThermal, self, row)
            _bind(server.smoother, LaneSmoother, self, row)

    # -------------------------------------------------------------- gather
    def gather(self) -> None:
        """Re-read every sleep mask and pending migration-cost lane from
        the objects: the state that scalar code (consolidation, wake-ups,
        migrations, restores) changes through methods, not views."""
        self.gather_sleep()
        self.gather_costs()

    def gather_sleep(self) -> None:
        """Refresh every sleep-state mask."""
        self.gather_sleep_rows(range(self.n))

    def gather_costs(self) -> None:
        """Refresh every pending migration-cost lane."""
        self.gather_cost_rows(range(self.n))

    def gather_sleep_rows(self, rows) -> None:
        """Refresh the sleep-state masks of ``rows`` (row indices)."""
        servers = self.servers
        states = [servers[r].sleep_state for r in rows]
        awake = [state is SleepState.AWAKE for state in states]
        waking = [state is SleepState.WAKING for state in states]
        self.awake[rows] = awake
        self.waking[rows] = waking
        self.asleep[rows] = [
            not (a or w) for a, w in zip(awake, waking)
        ]

    def gather_cost_rows(self, rows) -> None:
        """Refresh the pending migration-cost lanes of ``rows``."""
        servers = self.servers
        self.mig_cost[rows] = [
            servers[r].migration_cost_demand
            if servers[r]._pending_costs
            else 0.0
            for r in rows
        ]

    # ---------------------------------------------------------------- caps
    def hard_caps(self) -> np.ndarray:
        """Per-server ``min(thermal cap, circuit rating)`` like
        :meth:`ServerRuntime.hard_cap`, over the whole fleet."""
        if not self.config.thermal_enabled:
            return np.full(self.n, self.circuit_limit)
        if self.window_caps is not None:
            return self.window_caps
        thermal_cap = power_cap_arrays(
            self.temperature,
            t_ambient=self.t_ambient,
            t_limit=self.t_limit,
            c1=self.c1,
            c2=self.c2,
            decay=self.decay_window,
        )
        return np.minimum(self.circuit_limit, thermal_cap)


#: FleetState array fields concatenated into the federation block.  The
#: immutable parameter arrays ride along so federation-wide sweeps (raw
#: demand, Eq. 3/4, serving) touch exactly one contiguous buffer each.
_BLOCK_FIELDS = (
    "static_power",
    "standby_power",
    "slope",
    "t_ambient",
    "t_limit",
    "c1",
    "c2",
    "thermal_window",
    "decay_tick",
    "decay_window",
    "awake",
    "asleep",
    "waking",
    "mig_cost",
    "budget",
    "temperature",
    "peak",
    "violations",
    "raw",
    "served",
)


class FederationFleet:
    """One struct-of-arrays block spanning one or more site fleets.

    Concatenates the member :class:`FleetState` arrays into shared
    buffers and *rebinds* each site's arrays (and its
    :class:`~repro.power.smoothing.VectorSmoother` lanes) to basic
    slices of the block.  Basic slicing shares memory, so per-site code
    (gathers, the rebalance pre-screens, the bound runtime objects,
    which look their lane up on every access) keeps working unchanged
    while the array tick's sweeps -- demand, Eq. 4 smoothing, Eq. 2/3
    thermal, serving -- run once over the whole block.  A single-site
    block is how
    :class:`~repro.core.vectorized.VectorizedWillowController` ticks.

    Sites may differ in ``alpha`` (per-lane array, bit-identical to the
    per-site scalar broadcast) and in thermal mode.
    """

    def __init__(self, fleets: List[FleetState]):
        if not fleets:
            raise ValueError("FederationFleet needs at least one site fleet")
        self.fleets = list(fleets)
        sizes = np.array([f.n for f in self.fleets], dtype=np.intp)
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        self.n = int(bounds[-1])
        self.site_slices = [
            slice(int(bounds[i]), int(bounds[i + 1]))
            for i in range(len(self.fleets))
        ]

        for name in _BLOCK_FIELDS:
            block = np.concatenate(
                [getattr(f, name) for f in self.fleets]
            )
            setattr(self, name, block)
            for f, sl in zip(self.fleets, self.site_slices):
                setattr(f, name, block[sl])

        # Shared smoother lanes: per-lane alpha so sites with different
        # Eq. 4 weights still advance in one elementwise update.
        self.smoother_values = np.concatenate(
            [f.smoother.values for f in self.fleets]
        )
        self.smoother_primed = np.concatenate(
            [f.smoother.primed for f in self.fleets]
        )
        self.alpha = np.concatenate(
            [np.full(f.n, f.smoother.alpha) for f in self.fleets]
        )
        for f, sl in zip(self.fleets, self.site_slices):
            f.smoother.values = self.smoother_values[sl]
            f.smoother.primed = self.smoother_primed[sl]


# ------------------------------------------------------------------ views
# A view looks its lane up on every access, so it follows
# FederationFleet's rebinding.  Reads return Python floats and ints,
# never NumPy scalars (whose reprs differ, and digests hash reprs).
def _lane(name: str) -> property:
    """The object's row of the fleet lane ``name`` (dotted for the
    smoother's), as a read/write attribute."""
    lane_of = operator.attrgetter(name)

    def get(self):
        return lane_of(self._fleet).item(self._row)

    def set(self, value):
        lane_of(self._fleet)[self._row] = value

    return property(get, set)


def _bind(obj, cls, fleet: FleetState, row: int) -> None:
    """Turn ``obj`` into a ``cls`` view of ``fleet``'s row ``row``.  The
    lanes already hold the values, so the plain attributes go."""
    for name in cls._LANES:
        obj.__dict__.pop(name, None)
    obj._fleet = fleet
    obj._row = row
    obj.__class__ = cls


class LaneServerRuntime(ServerRuntime):
    """A server of an array site: demands and served power are views."""

    _LANES = ("raw_demand", "smoothed_demand", "served_power")
    raw_demand = _lane("raw")
    smoothed_demand = _lane("smoother.values")
    served_power = _lane("served")

    @property
    def vm_demand(self) -> float:
        """The plain class's left-to-right sum, with the bound home VMs
        (the ids with a plan row here) read straight off the lane, so
        consolidation's pass over every VM touches no VM object."""
        lane = self._fleet.vm_lane
        if lane is None:
            return ServerRuntime.vm_demand.fget(self)
        view, row, vms = lane.view, lane.row, self.vms
        total = 0
        for vm_id in vms:
            r = row.get(vm_id)
            total += view[r] if r is not None else vms[vm_id].current_demand
        return total


class LaneThermal(TemperatureIntegrator):
    """A server's thermal state on an array site, as views."""

    _LANES = ("temperature", "peak", "violations")
    temperature = _lane("temperature")
    peak = _lane("peak")
    violations = _lane("violations")


class LaneSmoother(ExponentialSmoother):
    """A server's Eq. 4 state on an array site: ``_value`` is the value
    lane (shared with ``smoothed_demand``) while the primed lane is set,
    else ``None``."""

    _LANES = ("_value",)

    @property
    def _value(self) -> Optional[float]:
        smoother = self._fleet.smoother
        if smoother.primed.item(self._row):
            return smoother.values.item(self._row)
        return None

    @_value.setter
    def _value(self, value: Optional[float]) -> None:
        smoother = self._fleet.smoother
        if value is not None:
            smoother.values[self._row] = value
        smoother.primed[self._row] = value is not None


class VmDemandLane:
    """The demand lane of one site's home VMs, and the VM class that
    reads it: ``sample`` holds each VM's demand by plan row (``row``
    maps a vm_id to it), read through a memoryview, which yields Python
    floats with no per-tick conversion."""

    __slots__ = ("row", "sample", "view", "vm_class")

    def __init__(self, row: Dict[int, int], vms: List[VM], away) -> None:
        self.row = row
        self.set_sample(
            np.fromiter((vm.current_demand for vm in vms), float, len(vms))
        )
        #: The site's bound VM class; its instances read this lane.
        self.vm_class = type("SiteVM", (LaneVM,), {"_lanes": self})
        for vm, gone in zip(vms, away):
            if not gone:
                vm.__class__ = self.vm_class

    def set_sample(self, sample: np.ndarray) -> None:
        self.sample = sample
        self.view = memoryview(sample)

    def write(self, vm_id: int, value: float) -> None:
        self.sample[self.row[vm_id]] = value

    def bind(self, vm: VM) -> None:
        """Make the plain home VM ``vm`` a view, its value moving into
        the lane."""
        self.write(vm.vm_id, vm.current_demand)
        vm.__class__ = self.vm_class

    @staticmethod
    def unbind(vm: VM) -> None:
        """Make the bound VM ``vm`` plain again, holding its value."""
        vm.__dict__["current_demand"] = vm.current_demand
        vm.__class__ = VM


#: ``object``'s own ``__class__`` slot, which LaneVM's property shadows.
_CLASS_SLOT = object.__dict__["__class__"]


class LaneVM(VM):
    """A home VM of an array site: ``current_demand`` is its row of the
    site's :class:`VmDemandLane` (each site binds its own subclass).

    A bound VM adds no attribute (its dict keeps a shadowed
    ``current_demand`` entry, in field order), reports ``VM`` as its
    ``__class__`` and reduces to a plain VM holding its current value,
    so pickling (byte for byte), copying, ``==`` and ``repr`` see a
    plain VM.
    """

    _lanes: VmDemandLane

    @property
    def __class__(self):
        return VM

    @__class__.setter
    def __class__(self, cls) -> None:
        _CLASS_SLOT.__set__(self, cls)

    @property
    def current_demand(self) -> float:
        lanes = self._lanes
        return lanes.view[lanes.row[self.vm_id]]

    @current_demand.setter
    def current_demand(self, value: float) -> None:
        self._lanes.write(self.vm_id, value)

    def __reduce_ex__(self, protocol):
        plain = object.__new__(VM)
        plain.__dict__.update(self.__dict__)
        plain.current_demand = self.current_demand
        return plain.__reduce_ex__(protocol)
