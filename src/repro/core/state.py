"""Runtime state attached to hierarchy nodes during a Willow run.

Two flavours:

* :class:`ServerRuntime` -- leaf servers: hosted VMs, thermal
  integrator, sleep state, demand smoother, temporary migration costs.
* :class:`NodeRuntime` -- internal PMU nodes: aggregated smoothed
  demand, budget, and the budget-reduced flag the unidirectional rule
  consults.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from repro.core.config import WillowConfig
from repro.power.smoothing import ExponentialSmoother
from repro.thermal.model import TemperatureIntegrator, ThermalParams
from repro.topology.tree import Node
from repro.workload.vm import VM

__all__ = ["SleepState", "ServerRuntime", "NodeRuntime"]


class SleepState(enum.Enum):
    """Server activity state (S3/S4 sleep per Sec. IV-C)."""

    AWAKE = "awake"
    ASLEEP = "asleep"
    WAKING = "waking"
    #: Hard-stopped by a crash or thermal emergency (plant-fault layer).
    #: Unlike ASLEEP the server may still hold VMs awaiting evacuation.
    FAILED = "failed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class NodeRuntime:
    """Control state for one internal PMU node."""

    def __init__(self, node: Node, config: WillowConfig):
        self.node = node
        self.budget: float = 0.0
        self.previous_budget: float = 0.0
        self.smoother = ExponentialSmoother(config.alpha)
        self.smoothed_demand: float = 0.0
        self.budget_reduced: bool = False

    def observe_demand(self, demand: float) -> float:
        """Absorb this tick's aggregated child demand (Eq. 4)."""
        self.smoothed_demand = self.smoother.update(demand)
        return self.smoothed_demand

    def set_budget(self, budget: float) -> None:
        """Apply a supply-side budget update, tracking reductions."""
        self.previous_budget = self.budget
        self.budget = float(budget)
        self.budget_reduced = self.budget < self.previous_budget - 1e-9


class ServerRuntime:
    """Control and physical state for one leaf server."""

    def __init__(
        self,
        node: Node,
        config: WillowConfig,
        thermal_params: Optional[ThermalParams] = None,
    ):
        self.node = node
        self.config = config
        self.model = config.server_model
        self.thermal_params = thermal_params or config.thermal
        self.thermal = TemperatureIntegrator(self.thermal_params)
        self.thermal_window = config.resolved_thermal_window()
        self.devices = None
        if config.device_classes is not None:
            from repro.devices.model import DeviceSet

            self.devices = DeviceSet(
                config.device_classes,
                t_ambient=self.thermal_params.t_ambient,
            )
        self.smoother = ExponentialSmoother(config.alpha)
        self.vms: Dict[int, VM] = {}
        self.budget: float = 0.0
        self.previous_budget: float = 0.0
        self.budget_reduced: bool = False
        self.sleep_state = SleepState.AWAKE
        self.wake_ticks_left: int = 0
        # Temporary migration-cost demand: remaining-ticks -> watts.
        self._pending_costs: Dict[int, float] = {}
        self.raw_demand: float = 0.0
        self.smoothed_demand: float = 0.0
        self.served_power: float = 0.0  # dynamic watts served this tick
        self.asleep_ticks: int = 0
        self.failed_ticks: int = 0

    # -- demand ------------------------------------------------------------
    @property
    def vm_demand(self) -> float:
        """Aggregate demand (W) of currently hosted VMs this tick."""
        return sum(vm.current_demand for vm in self.vms.values())

    @property
    def migration_cost_demand(self) -> float:
        """Temporary demand from in-flight migration costs (W)."""
        return sum(self._pending_costs.values())

    def observe_demand(self) -> float:
        """Compute and smooth this tick's *wall* power demand.

        All node-level quantities (demands, budgets, surpluses) are
        measured in wall watts; VM demands are dynamic watts on top of
        the static floor an awake server always pays.
        """
        if self.sleep_state is SleepState.FAILED:
            # A crashed server draws nothing and wants nothing; its
            # smoothed demand decays so allocations flow elsewhere.
            self.raw_demand = 0.0
        elif self.sleep_state is SleepState.ASLEEP:
            self.raw_demand = self.model.standby_power
        elif self.sleep_state is SleepState.WAKING:
            # Keep reporting the wake forecast (primed at begin_wake)
            # so the next allocation reserves the ramp-in budget; the
            # hardware itself only draws the static floor meanwhile.
            self.raw_demand = self.model.static_power
            return self.smoothed_demand
        else:
            self.raw_demand = (
                self.model.static_power
                + self.vm_demand
                + self.migration_cost_demand
            )
        self.smoothed_demand = self.smoother.update(self.raw_demand)
        return self.smoothed_demand

    def charge_migration_cost(self, watts: float, ticks: int) -> None:
        """Add a temporary power demand for ``ticks`` future ticks."""
        if watts <= 0 or ticks <= 0:
            return
        costs = self._pending_costs
        costs[ticks] = costs.get(ticks, 0.0) + watts

    def expire_costs(self) -> None:
        """Advance migration-cost bookkeeping by one tick."""
        costs = self._pending_costs
        if not costs:
            return
        self._pending_costs = {
            ticks - 1: watts for ticks, watts in costs.items() if ticks - 1 > 0
        }

    # -- budgets -----------------------------------------------------------
    def set_budget(self, budget: float) -> None:
        self.previous_budget = self.budget
        self.budget = float(budget)
        self.budget_reduced = self.budget < self.previous_budget - 1e-9

    def hard_cap(self, temperature: Optional[float] = None) -> float:
        """Hard constraint: min(thermal cap, circuit rating) in watts.

        In ``window_reset`` mode the thermal cap is the constant zone
        cap (Eq. 3 evaluated at the zone ambient) -- e.g. 450 W for the
        25 C zone and 300 W for the 40 C zone with the paper's
        constants.  In ``integrated`` mode it depends on the current
        integrated temperature.

        ``temperature`` overrides the Eq. 3 starting temperature ``t0``
        (both modes): the sensor-fault layer passes its *believed*
        temperature here, which may be more pessimistic than the plant
        truth while a sensor is quarantined.
        """
        cap = self.config.circuit_limit
        if self.config.thermal_enabled:
            from repro.thermal.model import power_cap

            if self.devices is not None:
                return min(cap, self.devices.server_cap())
            if self.config.thermal_mode == "window_reset":
                t0 = (
                    self.thermal_params.t_ambient
                    if temperature is None
                    else temperature
                )
                thermal_cap = power_cap(
                    self.thermal_params, t0, self.thermal_window
                )
            elif temperature is None:
                thermal_cap = self.thermal.power_cap(self.thermal_window)
            else:
                thermal_cap = power_cap(
                    self.thermal_params, temperature, self.thermal_window
                )
            cap = min(cap, thermal_cap)
        return cap

    def set_ambient(self, t_ambient: float) -> None:
        """Move this server's inlet ambient (cooling degradation).

        Callers must keep ``t_ambient`` strictly below ``t_limit``
        (:class:`ThermalParams` rejects anything else).
        """
        self.thermal_params = self.thermal_params.with_ambient(t_ambient)
        self.thermal.params = self.thermal_params

    def update_temperature(self, wall_power: float, dt: float) -> float:
        """Advance the server temperature given this tick's wall power."""
        from repro.thermal.model import temperature_after

        if self.devices is not None:
            self.devices.update(wall_power)

        if self.config.thermal_mode == "window_reset":
            # Paper Sec. V-B2: temperature settles within the window, so
            # each tick re-derives it from ambient at the tick's power.
            self.thermal.temperature = temperature_after(
                self.thermal_params,
                self.thermal_params.t_ambient,
                wall_power,
                self.thermal_window,
            )
            if self.thermal.temperature > self.thermal.peak:
                self.thermal.peak = self.thermal.temperature
            if self.thermal.temperature > self.thermal_params.t_limit + 1e-6:
                self.thermal.violations += 1
            return self.thermal.temperature
        return self.thermal.step(wall_power, dt)

    @property
    def temperature(self) -> float:
        """Current component temperature (deg C)."""
        return self.thermal.temperature

    # -- power -------------------------------------------------------------
    @property
    def is_awake(self) -> bool:
        return self.sleep_state is SleepState.AWAKE

    @property
    def utilization(self) -> float:
        """Fraction of the dynamic power range in use this tick."""
        if not self.is_awake:
            return 0.0
        return min(self.served_power / self.model.slope, 1.0)

    def actual_power(self) -> float:
        """Wall power this tick: static floor + served dynamic demand,
        or standby draw while asleep/waking."""
        if self.sleep_state is SleepState.FAILED:
            return 0.0
        if self.sleep_state is SleepState.ASLEEP:
            return self.model.standby_power
        if self.sleep_state is SleepState.WAKING:
            # Waking hardware draws the static floor but serves nothing.
            return self.model.static_power
        return self.model.static_power + self.served_power

    # -- sleep management ----------------------------------------------------
    def sleep(self) -> None:
        if self.vms:
            raise RuntimeError(
                f"{self.node.name} cannot sleep while hosting {len(self.vms)} VMs"
            )
        self.sleep_state = SleepState.ASLEEP
        self.served_power = 0.0

    def begin_wake(self) -> None:
        if self.sleep_state is not SleepState.ASLEEP:
            raise RuntimeError(f"{self.node.name} is not asleep")
        if self.config.wake_latency_ticks == 0:
            self.sleep_state = SleepState.AWAKE
        else:
            self.sleep_state = SleepState.WAKING
            self.wake_ticks_left = self.config.wake_latency_ticks

    def tick_wake(self) -> None:
        """Advance wake latency; call once per tick."""
        if self.sleep_state is SleepState.WAKING:
            self.wake_ticks_left -= 1
            if self.wake_ticks_left <= 0:
                self.sleep_state = SleepState.AWAKE
        elif self.sleep_state is SleepState.ASLEEP:
            self.asleep_ticks += 1
        elif self.sleep_state is SleepState.FAILED:
            self.failed_ticks += 1

    def fail(self) -> None:
        """Hard-stop this server (crash or thermal emergency).

        Unlike :meth:`sleep` this tolerates hosted VMs -- a crash does
        not wait for a drain.  The VMs stay attached so the controller
        can evacuate them; wall power drops to zero immediately and any
        in-flight migration-cost demand is forgotten with the host.
        """
        self.sleep_state = SleepState.FAILED
        self.served_power = 0.0
        self.wake_ticks_left = 0
        self._pending_costs = {}

    def repair(self) -> None:
        """Begin restart after a failure.

        Re-admission pays the same S3/S4 resume latency as a wake from
        sleep (Sec. IV-C): the server transitions FAILED -> WAKING and
        becomes AWAKE after ``wake_latency_ticks`` ticks.
        """
        if self.sleep_state is not SleepState.FAILED:
            raise RuntimeError(f"{self.node.name} is not failed")
        if self.config.wake_latency_ticks == 0:
            self.sleep_state = SleepState.AWAKE
        else:
            self.sleep_state = SleepState.WAKING
            self.wake_ticks_left = self.config.wake_latency_ticks
