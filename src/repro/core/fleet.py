"""Struct-of-arrays view of a server fleet for the array tick.

:class:`FleetState` mirrors a fixed, ordered list of
:class:`~repro.core.state.ServerRuntime` objects into flat NumPy arrays:
immutable per-server parameters (static/standby power, dynamic range,
thermal constants, precomputed exponential decay factors) are captured
once at construction, while mutable control state (sleep flags, pending
migration costs, smoother lanes, budgets, temperatures) is gathered
from the objects wherever scalar code (consolidation, wake-ups,
migrations) has changed them.

:class:`FederationFleet` concatenates one or more site fleets into one
block and rebinds each site's arrays to views of it; the array tick in
:mod:`repro.core.vectorized` sweeps the block.  Between scalar sync
points the arrays are the truth and the objects are refreshed by the
tick's flush -- see docs/performance.md for the layout and the
equivalence contract.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.config import WillowConfig
from repro.core.state import ServerRuntime, SleepState
from repro.power.smoothing import VectorSmoother
from repro.thermal.model import power_cap_arrays

__all__ = [
    "FleetState",
    "FederationFleet",
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
    """Array mirror of an ordered server fleet.

    Parameters
    ----------
    servers:
        Server runtimes in a fixed order (the controller uses
        ``tree.servers()`` order, which matches its ``servers`` dict's
        insertion order).
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

        # -- per-tick mutable state (gathered from the objects) -----------
        self.awake = np.zeros(n, dtype=bool)
        self.asleep = np.zeros(n, dtype=bool)
        self.waking = np.zeros(n, dtype=bool)
        self.mig_cost = np.zeros(n)
        self.budget = np.zeros(n)
        self.temperature = np.zeros(n)
        self.raw = np.zeros(n)
        self.served = np.zeros(n)
        self.smoother = VectorSmoother(config.alpha, n)

    # -------------------------------------------------------------- gather
    def gather(self) -> None:
        """Refresh every mutable array from the runtime objects."""
        self.gather_sleep()
        self.gather_costs()
        smoother = self.smoother
        values = smoother.values
        primed = smoother.primed
        budget = self.budget
        temperature = self.temperature
        for i, s in enumerate(self.servers):
            # ExponentialSmoother keeps None until primed; mirror that
            # into the (value, primed) lane pair.
            v = s.smoother._value
            if v is None:
                values[i] = 0.0
                primed[i] = False
            else:
                values[i] = v
                primed[i] = True
            budget[i] = s.budget
            temperature[i] = s.thermal.temperature

    def gather_sleep(self) -> None:
        """Refresh only the sleep-state masks (cheap mid-tick resync)."""
        awake = self.awake
        waking = self.waking
        for i, s in enumerate(self.servers):
            state = s.sleep_state
            awake[i] = state is SleepState.AWAKE
            waking[i] = state is SleepState.WAKING
        np.logical_not(awake | waking, out=self.asleep)

    def gather_costs(self) -> None:
        """Refresh pending migration-cost demand (changes on migrations)."""
        mig_cost = self.mig_cost
        for i, s in enumerate(self.servers):
            mig_cost[i] = (
                s.migration_cost_demand if s._pending_costs else 0.0
            )

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
    "raw",
    "served",
)


class FederationFleet:
    """One struct-of-arrays block spanning one or more site fleets.

    Concatenates the member :class:`FleetState` arrays into shared
    buffers and *rebinds* each site's arrays (and its
    :class:`~repro.power.smoothing.VectorSmoother` lanes) to basic
    slices of the block.  Basic slicing shares memory, so per-site code
    (gathers, consolidation resync, the rebalance pre-screens) keeps
    working unchanged while the array tick's sweeps -- demand, Eq. 4
    smoothing, Eq. 2/3 thermal, serving -- run once over the whole
    block.  A single-site block is how
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
