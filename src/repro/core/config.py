"""Configuration for the Willow controller.

Defaults follow the paper's simulation setup (Sec. V-B): time-constant
multipliers ``eta1 = 4`` and ``eta2 = 7``, consolidation threshold 20 %
(Sec. V-C5), thermal constants ``c1 = 0.08, c2 = 0.05`` with
``Ta = 25 C`` and ``T_limit = 70 C``, and ~450 W maximum device power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.power.server import SIMULATION_SERVER, ServerPowerModel
from repro.power.switch import SIMULATION_SWITCH, SwitchPowerModel
from repro.thermal.model import ThermalParams

__all__ = ["WillowConfig"]


@dataclass(frozen=True)
class WillowConfig:
    """All Willow tunables.

    Time attributes
    ---------------
    delta_d:
        Demand-side adaptation granularity in seconds -- the basic tick
        (Sec. IV-C suggests >= 500 ms is safe; the simulation uses 1 s
        ticks so a tick doubles as the paper's "time unit").
    eta1, eta2:
        Supply-side and consolidation multipliers: ``delta_s = eta1 *
        delta_d`` and ``delta_a = eta2 * delta_d`` with ``eta2 > eta1 > 1``.
    alpha:
        Exponential-smoothing weight for demand trends (Eq. 4).

    Migration attributes
    --------------------
    p_min:
        Power margin (W) that must remain at both the source and the
        target after a migration (Sec. IV-E "Power Margin").
    migration_cost_power:
        Temporary power demand (W) charged to source and target nodes
        for each migration ("this cost is added as a temporary power
        demand to the nodes involved").
    migration_cost_ticks:
        How many ticks the temporary cost persists.
    migration_traffic_factor:
        Units of switch traffic per watt of migrated demand (VM state
        transferred scales with the VM's size).

    Consolidation attributes
    ------------------------
    consolidation_threshold:
        Utilization fraction below which a server becomes a drain
        candidate (the paper sets 20 %).
    wake_latency_ticks:
        Ticks a sleeping server needs to come back up (S3/S4 resume).
    consolidation_enabled:
        Master switch (the Fig. 7 baseline disables it).

    Model attributes
    ----------------
    server_model / switch_model / thermal:
        Power and thermal models applied to every server/switch.  The
        controller accepts per-node ambient overrides for hot/cold
        zones.
    circuit_limit:
        Hard per-server power-circuit rating (W).
    thermal_enabled:
        When False the thermal hard constraint is ignored (the
        ``no_thermal`` baseline), leaving only the circuit limit.
    thermal_mode:
        ``"window_reset"`` (default) applies the paper's conservative
        assumption that temperature settles within one demand window
        (Sec. V-B2): each tick the temperature is re-derived from the
        zone ambient and the tick's power, and the thermal cap is the
        constant zone cap from Eq. 3 evaluated at ambient.  This is the
        only reading under which the paper's own constants (c1=0.08,
        c2=0.05) sustain hundreds of watts; see DESIGN.md.
        ``"integrated"`` integrates the RC model across ticks (true
        dynamics; used for the testbed time-series experiments).
    thermal_window:
        Window length (in seconds) for the Eq. 3 cap.  ``None`` selects
        the paper's implicit calibration: the window making a cool idle
        node's cap equal the maximum device power (circuit_limit).
    """

    # -- time granularity (Sec. IV-C) --
    delta_d: float = 1.0
    eta1: int = 4
    eta2: int = 7
    alpha: float = 0.5

    # -- migration control (Sec. IV-E) --
    p_min: float = 10.0
    migration_cost_power: float = 5.0
    migration_cost_ticks: int = 1
    migration_traffic_factor: float = 1.0
    local_first: bool = True
    #: When True and an IPC graph is supplied to the controller, the
    #: demand-side matcher first tries to place each shed VM on a
    #: server already hosting one of its IPC peers (highest-rate peer
    #: first), falling back to FFDLR for the rest.  Keeps chatty
    #: clusters together across migrations (Sec. VI future work).
    affinity_aware: bool = False

    # -- consolidation (Sec. IV-E / V-C5) --
    consolidation_threshold: float = 0.20
    wake_latency_ticks: int = 2
    consolidation_enabled: bool = True

    # -- models --
    server_model: ServerPowerModel = field(default_factory=lambda: SIMULATION_SERVER)
    switch_model: SwitchPowerModel = field(default_factory=lambda: SIMULATION_SWITCH)
    thermal: ThermalParams = field(default_factory=ThermalParams)
    circuit_limit: float = 450.0
    thermal_enabled: bool = True
    thermal_mode: str = "window_reset"
    thermal_window: float | None = None

    #: How a parent's budget is divided among children.  ``"demand"``
    #: follows Sec. IV-A ("in proportion to their demands"); the
    #: experimental testbed (Sec. V-C4, "the available power supply is
    #: divided proportionally between the servers") divides in
    #: proportion to capacity, which for identical servers is an equal
    #: split -- the only reading under which a global supply plunge
    #: leaves low-utilization servers with the surplus that Fig. 16's
    #: migrations flow into.  See DESIGN.md.
    allocation_mode: str = "demand"

    #: Optional per-component thermal modelling (repro.devices).  When
    #: set (e.g. to ``repro.devices.STANDARD_DEVICES``) every server's
    #: hard cap becomes the tightest component envelope and per-device
    #: temperatures are tracked.  ``None`` keeps the paper's
    #: server-level model.
    device_classes: tuple | None = None

    def __post_init__(self) -> None:
        # NaN passes every ``x < 0`` test below, so non-finite floats
        # are rejected first.
        for name in (
            "delta_d",
            "alpha",
            "p_min",
            "migration_cost_power",
            "migration_traffic_factor",
            "consolidation_threshold",
            "circuit_limit",
            "thermal_window",
        ):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.allocation_mode not in ("demand", "capacity"):
            raise ValueError(
                f"allocation_mode must be 'demand' or 'capacity', "
                f"got {self.allocation_mode!r}"
            )
        if self.thermal_mode not in ("window_reset", "integrated"):
            raise ValueError(
                f"thermal_mode must be 'window_reset' or 'integrated', "
                f"got {self.thermal_mode!r}"
            )
        if self.thermal_window is not None and self.thermal_window <= 0:
            raise ValueError("thermal_window must be positive")
        if self.delta_d <= 0:
            raise ValueError(f"delta_d must be positive, got {self.delta_d}")
        if not (self.eta2 > self.eta1 > 1):
            raise ValueError(
                f"need eta2 > eta1 > 1, got eta1={self.eta1}, eta2={self.eta2}"
            )
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.p_min < 0:
            raise ValueError(f"p_min must be >= 0, got {self.p_min}")
        if self.migration_cost_power < 0:
            raise ValueError("migration_cost_power must be >= 0")
        if self.migration_cost_ticks < 0:
            raise ValueError("migration_cost_ticks must be >= 0")
        if self.migration_traffic_factor < 0:
            raise ValueError("migration_traffic_factor must be >= 0")
        if not 0.0 <= self.consolidation_threshold < 1.0:
            raise ValueError(
                "consolidation_threshold must be in [0, 1), got "
                f"{self.consolidation_threshold}"
            )
        if self.wake_latency_ticks < 0:
            raise ValueError("wake_latency_ticks must be >= 0")
        if self.circuit_limit <= 0:
            raise ValueError("circuit_limit must be positive")

    # -- derived intervals --
    @property
    def delta_s(self) -> float:
        """Supply-side adaptation period (seconds)."""
        return self.eta1 * self.delta_d

    @property
    def delta_a(self) -> float:
        """Consolidation decision period (seconds)."""
        return self.eta2 * self.delta_d

    def resolved_thermal_window(self) -> float:
        """The Eq. 3 cap window, defaulting to the paper's calibration.

        With the paper's constants this is ~1.29 time units: the window
        over which a cool idle node presents exactly ``circuit_limit``
        watts of thermal surplus (Fig. 4's selection criterion).
        """
        if self.thermal_window is not None:
            return self.thermal_window
        from repro.thermal.model import window_for_power_cap

        return window_for_power_cap(self.thermal, self.circuit_limit)
