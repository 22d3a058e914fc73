"""Workload placement and stochastic demand generation (Sec. V-B1).

"On each server we placed a random mix of 4 different application types
that have a relative average power requirement of 1, 2, 5 and 9.  The
average power demand in a server is the sum of all the average power
requirements of the applications that are hosted in it.  The power
demand in each node was assumed to have a Poisson distribution."

Demands are sampled per-VM as Poisson draws in the catalog's *relative*
units, then scaled to watts by a placement-wide factor chosen so the
fleet's expected utilization hits a target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.sim.rng import RandomStreams
from repro.workload.applications import AppType
from repro.workload.vm import VM

__all__ = [
    "PlacementPlan",
    "random_placement",
    "scale_for_target_utilization",
    "DemandGenerator",
]


@dataclass
class PlacementPlan:
    """An initial placement of VMs onto servers.

    Attributes
    ----------
    vms:
        All VMs, ids dense from 0.
    scale:
        Watts per relative demand unit (see
        :func:`scale_for_target_utilization`).
    """

    vms: List[VM]
    scale: float = 1.0

    def by_host(self) -> Dict[int, List[VM]]:
        """VMs grouped by current host id."""
        grouped: Dict[int, List[VM]] = {}
        for vm in self.vms:
            grouped.setdefault(vm.host_id, []).append(vm)
        return grouped

    def mean_demand_per_host(self) -> Dict[int, float]:
        """Expected power demand (W) of each host under this placement."""
        result: Dict[int, float] = {}
        for vm in self.vms:
            result[vm.host_id] = (
                result.get(vm.host_id, 0.0) + vm.app.mean_power * self.scale
            )
        return result


def random_placement(
    server_ids: Sequence[int],
    apps: Sequence[AppType],
    rng: np.random.Generator,
    *,
    vms_per_server: int = 4,
) -> PlacementPlan:
    """Place a random mix of ``apps`` on each server.

    Each server receives ``vms_per_server`` VMs, each hosting an
    application type drawn uniformly from the catalog.
    """
    if not server_ids:
        raise ValueError("need at least one server")
    if not apps:
        raise ValueError("need at least one application type")
    if vms_per_server < 1:
        raise ValueError(f"vms_per_server must be >= 1, got {vms_per_server}")
    vms: List[VM] = []
    for host in server_ids:
        choices = rng.integers(0, len(apps), size=vms_per_server)
        for choice in choices:
            vms.append(VM(vm_id=len(vms), app=apps[int(choice)], host_id=host))
    return PlacementPlan(vms=vms)


def scale_for_target_utilization(
    plan: PlacementPlan,
    dynamic_capacity: float,
    target_utilization: float,
) -> PlacementPlan:
    """Set the plan's watts-per-unit scale to hit a mean utilization.

    ``dynamic_capacity`` is the per-server dynamic power range (the
    slope of the server power model); utilization here means the
    fraction of that range consumed by demand, matching the paper's
    power-follows-utilization testbed observation.
    """
    if not 0.0 < target_utilization <= 1.0:
        raise ValueError(
            f"target_utilization must be in (0, 1], got {target_utilization}"
        )
    if dynamic_capacity <= 0:
        raise ValueError("dynamic_capacity must be positive")
    hosts = plan.by_host()
    if not hosts:
        raise ValueError("placement has no VMs")
    total_relative = sum(vm.app.mean_power for vm in plan.vms)
    mean_per_server = total_relative / len(hosts)
    plan.scale = target_utilization * dynamic_capacity / mean_per_server
    return plan


class BurstyDemandGenerator:
    """Markov-modulated Poisson demand: calm/burst regimes per VM.

    The paper warns that "as the computing moves towards more real-time
    data mining driven answers to user queries, the demand side
    variations could become significantly more severe."  This generator
    models that: each VM flips between a *calm* state (demand around a
    fraction of its rating) and a *burst* state (a multiple of it),
    with geometric sojourn times, Poisson-sampling within the state.

    Long-run mean demand equals the rated mean when
    ``calm_level * p_calm + burst_level * p_burst == 1`` for the
    stationary probabilities implied by the flip rates; the constructor
    rescales the levels to enforce this so fleets stay comparable with
    the plain :class:`DemandGenerator`.
    """

    def __init__(
        self,
        plan: PlacementPlan,
        streams: RandomStreams,
        *,
        calm_level: float = 0.6,
        burst_level: float = 3.0,
        p_enter_burst: float = 0.05,
        p_exit_burst: float = 0.25,
    ):
        if calm_level <= 0 or burst_level <= calm_level:
            raise ValueError("need 0 < calm_level < burst_level")
        if not 0.0 < p_enter_burst < 1.0 or not 0.0 < p_exit_burst < 1.0:
            raise ValueError("flip probabilities must be in (0, 1)")
        self.plan = plan
        self.streams = streams
        # Stationary distribution of the two-state chain.
        p_burst = p_enter_burst / (p_enter_burst + p_exit_burst)
        p_calm = 1.0 - p_burst
        mean = calm_level * p_calm + burst_level * p_burst
        self.calm_level = calm_level / mean
        self.burst_level = burst_level / mean
        self.p_enter_burst = p_enter_burst
        self.p_exit_burst = p_exit_burst
        self._bursting: Dict[int, bool] = {vm.vm_id: False for vm in plan.vms}

    def sample_tick(self) -> Dict[int, float]:
        """Advance regimes and sample every VM's demand for one tick."""
        per_host: Dict[int, float] = {}
        for vm in self.plan.vms:
            stream = self.streams[f"bursty/vm-{vm.vm_id}"]
            if self._bursting[vm.vm_id]:
                if stream.random() < self.p_exit_burst:
                    self._bursting[vm.vm_id] = False
            else:
                if stream.random() < self.p_enter_burst:
                    self._bursting[vm.vm_id] = True
            level = (
                self.burst_level if self._bursting[vm.vm_id] else self.calm_level
            )
            demand = (
                float(stream.poisson(vm.app.mean_power * level)) * self.plan.scale
            )
            vm.current_demand = demand
            per_host[vm.host_id] = per_host.get(vm.host_id, 0.0) + demand
        return per_host

    def burst_fraction(self) -> float:
        """Fraction of VMs currently in the burst regime."""
        if not self._bursting:
            return 0.0
        return sum(self._bursting.values()) / len(self._bursting)

    def state_dict(self) -> Dict[str, object]:
        """Checkpoint: the per-VM regime map (streams are owned by the
        controller's :class:`RandomStreams` and snapshotted there)."""
        return {"bursting": dict(self._bursting)}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self._bursting = dict(state["bursting"])  # type: ignore[arg-type]


class DiurnalDemandGenerator:
    """Daily-rhythm demand: a sinusoidal day profile times Poisson noise.

    Real transactional fleets follow their users' day: demand peaks in
    business hours and troughs overnight.  Each VM's instantaneous mean
    is ``rated * profile(t)`` where

        profile(t) = base + (peak - base) * (1 + sin(2*pi*(t/day - 1/4))) / 2

    runs from ``base`` at midnight to ``peak`` mid-day; demand is a
    Poisson draw around that mean.  Combined with
    :func:`repro.power.supply.renewable_supply` this reproduces the
    renewable-data-center scenario end to end.
    """

    def __init__(
        self,
        plan: PlacementPlan,
        streams: RandomStreams,
        *,
        day_length: float = 96.0,
        base: float = 0.3,
        peak: float = 1.6,
        phase: float = 0.0,
    ):
        if day_length <= 0:
            raise ValueError(f"day_length must be positive, got {day_length}")
        if not 0.0 < base < peak:
            raise ValueError("need 0 < base < peak")
        self.plan = plan
        self.streams = streams
        self.day_length = day_length
        self.base = base
        self.peak = peak
        self.phase = phase
        self._tick = 0

    def profile(self, tick: float) -> float:
        """The day multiplier at a given tick."""
        import math

        wave = (
            1.0
            + math.sin(
                2.0 * math.pi * (tick / self.day_length + self.phase - 0.25)
            )
        ) / 2.0
        return self.base + (self.peak - self.base) * wave

    def sample_tick(self) -> Dict[int, float]:
        factor = self.profile(self._tick)
        self._tick += 1
        per_host: Dict[int, float] = {}
        for vm in self.plan.vms:
            stream = self.streams[f"diurnal/vm-{vm.vm_id}"]
            demand = (
                float(stream.poisson(vm.app.mean_power * factor))
                * self.plan.scale
            )
            vm.current_demand = demand
            per_host[vm.host_id] = per_host.get(vm.host_id, 0.0) + demand
        return per_host

    def state_dict(self) -> Dict[str, object]:
        """Checkpoint: position within the day profile."""
        return {"tick": self._tick}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self._tick = int(state["tick"])  # type: ignore[arg-type]


class DemandGenerator:
    """Per-tick Poisson demand sampling for a placement.

    Each VM draws ``Poisson(mean_relative)`` in catalog units and is
    scaled to watts.  Every VM has its own named random stream so that
    migrating a VM does not perturb any other VM's future demands
    (a prerequisite for clean A/B comparisons between controllers).

    Draws are *block-prefetched*: every ``block_size`` ticks each VM
    stream emits its next ``block_size`` Poisson values in one call, and
    ``sample_tick`` consumes one tick of the block.  Because
    ``Generator.poisson(lam, size=k)`` advances a stream exactly like
    ``k`` successive scalar draws, the per-(seed, VM) demand sequence is
    bit-identical to unbatched sampling while the per-tick cost drops to
    a single vector read (see docs/performance.md for the contract).

    The block is stored tick-major, ``(block_size, n_vms)``, so a tick
    reads one contiguous row, in the narrowest unsigned dtype that holds
    its draws: uint8 for the paper's catalog, widened (never wrapped)
    when a draw does not fit.
    """

    #: VMs whose draws are staged in the int64 scratch at a time.
    FILL_CHUNK = 256

    def __init__(
        self,
        plan: PlacementPlan,
        streams: RandomStreams,
        *,
        block_size: int = 256,
    ):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.plan = plan
        self.streams = streams
        self._block_size = int(block_size)
        self._block: np.ndarray | None = None  # (block, n_vms) raw draws
        self._cursor = 0
        # Per plan row, the VM's stream and mean, for the vm ids in
        # ``_row_ids``; rebuilt when the plan's VMs change.
        self._row_ids: List[int] = []
        self._rows: List[tuple] = []

    def _draw_rows(self) -> List[tuple]:
        """``(stream, mean)`` per plan row, creating missing streams in
        one pass (:meth:`RandomStreams.many`)."""
        vms = self.plan.vms
        ids = [vm.vm_id for vm in vms]
        if ids != self._row_ids:
            streams = self.streams.many([f"demand/vm-{i}" for i in ids])
            self._rows = list(zip(streams, [vm.app.mean_power for vm in vms]))
            self._row_ids = ids
        return self._rows

    def _refill(self) -> None:
        rows = self._draw_rows()
        n, size = len(rows), self._block_size
        block = self._block
        if block is None or block.shape[1] != n:
            block = np.empty((size, n), dtype=np.uint8)
        scratch = np.empty((min(self.FILL_CHUNK, n), size), dtype=np.int64)
        for lo in range(0, n, self.FILL_CHUNK):
            chunk = rows[lo : lo + self.FILL_CHUNK]
            for j, (stream, mean) in enumerate(chunk):
                scratch[j] = stream.poisson(mean, size=size)
            draws = scratch[: len(chunk)]
            block = _widened(block, int(draws.max()))
            block[:, lo : lo + len(chunk)] = draws.T
        self._block = block
        self._cursor = 0

    def sample_tick_array(self, write_objects: bool = True) -> np.ndarray:
        """Sample one tick for all VMs; return demands (W) by plan order.

        Updates each ``vm.current_demand`` in place, exactly like
        :meth:`sample_tick`, but returns the flat demand vector (indexed
        like ``plan.vms``) for array-based consumers.  Callers that keep
        the truth in arrays (the array segment tick) pass
        ``write_objects=False`` to skip the per-VM scatter and flush the
        objects themselves only when scalar code needs them.
        """
        if self._block is None or self._cursor >= self._block_size:
            self._refill()
        draws = self._block[self._cursor]
        self._cursor += 1
        demands = draws.astype(float) * self.plan.scale
        if write_objects:
            for vm, demand in zip(self.plan.vms, demands.tolist()):
                vm.current_demand = demand
        return demands

    def sample_tick(self) -> Dict[int, float]:
        """Sample every VM's demand for one tick.

        Updates each ``vm.current_demand`` in place and returns the
        aggregate demand per host id (W).
        """
        self.sample_tick_array()
        per_host: Dict[int, float] = {}
        for vm in self.plan.vms:
            per_host[vm.host_id] = (
                per_host.get(vm.host_id, 0.0) + vm.current_demand
            )
        return per_host

    def expected_host_demand(self) -> Dict[int, float]:
        """Expected (mean) per-host demand in watts."""
        return self.plan.mean_demand_per_host()

    def state_dict(self) -> Dict[str, object]:
        """Checkpoint: the prefetched Poisson block and the read cursor.

        The buffer must travel with the RNG states: the per-VM streams
        have already advanced past the whole block, so resuming without
        the unconsumed draws would skip up to ``block_size`` ticks of
        demand.  It is stored VM-major, as a C-contiguous
        ``(n_vms, block_size)`` int64 array, whatever the in-memory
        layout.
        """
        return {
            "buffer": (
                None
                if self._block is None
                else self._block.T.astype(np.int64, order="C")
            ),
            "cursor": self._cursor,
            "block_size": self._block_size,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        block_size = int(state["block_size"])  # type: ignore[arg-type]
        if block_size != self._block_size:
            raise ValueError(
                f"demand block_size mismatch: snapshot has {block_size}, "
                f"generator was built with {self._block_size}"
            )
        buffer = state["buffer"]
        self._block = None
        if buffer is not None:
            draws = np.asarray(buffer, dtype=np.int64)
            if draws.size and int(draws.min()) < 0:
                raise ValueError("demand buffer holds negative draws")
            top = int(draws.max()) if draws.size else 0
            self._block = draws.T.astype(np.min_scalar_type(top), order="C")
        self._cursor = int(state["cursor"])  # type: ignore[arg-type]


def _widened(block: np.ndarray, top: int) -> np.ndarray:
    """``block``, or a copy in a wider unsigned dtype when ``top`` (a
    non-negative draw) does not fit its dtype."""
    if top <= np.iinfo(block.dtype).max:
        return block
    return block.astype(np.min_scalar_type(top))
