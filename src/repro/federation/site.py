"""One data center inside a geo-federation.

A :class:`Site` wraps everything Willow already knows how to run for a
single facility -- a PMU :class:`~repro.topology.tree.Tree`, a
:class:`~repro.power.supply.SupplyTrace`, optionally a
:class:`~repro.power.battery.Battery` UPS buffer and a
:class:`~repro.plant_faults.schedule.PlantFaultSchedule` -- plus the
grid-side signals the federation policies consume: a carbon-intensity
trace and an energy-price trace.

The federation layer is one level *up* from the paper's hierarchy: a
data-center PMU becomes a child of a grid-level coordinator, exactly as
Fig. 1 composes.  Sites therefore stay fully self-contained Willow
instances; the coordinator only moves VM load between them on the
supply cadence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.core.config import WillowConfig
from repro.core.controller import WillowController, seeded_placement
from repro.metrics.collector import MetricsCollector
from repro.power.battery import Battery, buffer_supply_with_plan
from repro.power.supply import SupplyTrace, constant_supply
from repro.topology.tree import Tree
from repro.trace.tracer import NULL_TRACER
from repro.workload.applications import SIMULATION_APPS

__all__ = ["SiteSpec", "Site", "build_site"]


@dataclass
class SiteSpec:
    """Declarative description of one federated site.

    Attributes
    ----------
    name:
        Unique site label (appears in summaries and trace events).
    supply:
        The site's raw grid/renewable supply trace.  ``None`` defaults
        to a constant trace at the fleet circuit capacity.
    battery:
        Optional UPS buffer; when given, the supply the controller sees
        is ``buffer_supply(supply, battery)`` over the run horizon.
    plant_faults:
        Optional physical-fault schedule; a non-empty schedule selects
        the sensor-fault-tolerant controller for this site.
    carbon:
        Carbon-intensity signal (gCO2/kWh, any consistent unit); used
        by the ``greedy-greenest`` policy.  Defaults to a constant 1.
    price:
        Energy-price signal ($/MWh, any consistent unit); used by the
        ``price-aware`` policy.  Defaults to a constant 1.
    tree / config:
        The Willow hierarchy and tunables; default to the paper's
        18-server simulation setup.
    target_utilization / vms_per_server / seed:
        Workload knobs, mirroring :func:`repro.core.controller.run_willow`.
    ambient_overrides:
        Per-server ambient map for hot/cold zones inside the site.
    vectorized:
        Run the site on the array-based
        :class:`~repro.core.vectorized.VectorizedWillowController`;
        the coordinator ticks consecutive such sites fused in one
        segment.  Plant-fault and device-class sites keep their scalar
        controller (see the unsupported-combinations table in
        ``docs/federation.md``).
    """

    name: str
    supply: Optional[SupplyTrace] = None
    battery: Optional[Battery] = None
    plant_faults: Optional[object] = None  # PlantFaultSchedule
    carbon: Optional[SupplyTrace] = None
    price: Optional[SupplyTrace] = None
    tree: Optional[Tree] = None
    config: Optional[WillowConfig] = None
    target_utilization: float = 0.5
    vms_per_server: int = 4
    seed: int = 0
    apps: tuple = SIMULATION_APPS
    ambient_overrides: Optional[Mapping[str, float]] = None
    vectorized: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("site name must be non-empty")
        if not 0.0 < self.target_utilization <= 1.0:
            raise ValueError(
                "target_utilization must be in (0, 1], got "
                f"{self.target_utilization}"
            )


@dataclass
class Site:
    """A built, runnable site: spec + controller + its grid signals."""

    spec: SiteSpec
    controller: WillowController
    #: The supply the controller actually sees (battery-buffered when
    #: the spec carries a UPS).
    delivered_supply: SupplyTrace
    carbon: SupplyTrace
    price: SupplyTrace
    #: The UPS charge plan over the run (W*ticks vs time); ``None``
    #: without a battery.  The predictive planner reads it.
    battery_plan: Optional[SupplyTrace] = None
    #: The UPS discharge limit (W); 0 without a battery.
    battery_rate: float = 0.0
    #: Cooling actuation, installed by the coordinator when the
    #: federation config enables it: the overhead-charging supply
    #: wrapper and the standing supply-air setpoint.
    actuated_supply: Optional[object] = None  # ActuatedSupply
    setpoint: Optional[float] = None
    #: Cross-site bookkeeping, filled by the coordinator.
    vms_received: int = 0
    vms_sent: int = 0
    watts_received: float = 0.0
    watts_sent: float = 0.0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def collector(self) -> MetricsCollector:
        return self.controller.collector

    @property
    def config(self) -> WillowConfig:
        return self.controller.config

    # -- federation-facing state ------------------------------------------
    def smoothed_demand(self) -> float:
        """The site root's Eq. 4 smoothed demand (wall watts)."""
        root = self.controller.tree.root
        return self.controller.internals[root.node_id].smoothed_demand

    def supply_at(self, now: float) -> float:
        """Delivered (post-UPS, post-cooling-overhead) supply at ``now``."""
        if self.actuated_supply is not None:
            return self.actuated_supply.at(now)
        return self.delivered_supply.at(now)

    def battery_charge_at(self, now: float) -> float:
        """Planned UPS state of charge (W*ticks) at ``now``; 0 without
        a battery."""
        if self.battery_plan is None:
            return 0.0
        return self.battery_plan.at(now)

    # -- cooling actuation ------------------------------------------------
    def install_cooling(self, control) -> None:
        """Wire the cooling actuator in: wrap the controller's supply in
        an overhead-charging :class:`ActuatedSupply` and start at the
        nominal setpoint.  Called once by the coordinator."""
        from repro.federation.predictive import ActuatedSupply

        self.actuated_supply = ActuatedSupply(self.delivered_supply)
        self.controller.supply = self.actuated_supply
        self.setpoint = control.nominal_setpoint

    def apply_setpoint(self, value: float) -> None:
        """Move every rack's supply-air temperature to ``value``.

        The fault-tolerant controller routes through its
        ``set_base_ambient`` so an in-progress CRAC-derate ramp keeps
        composing with the new base; plain controllers set the ambient
        directly (their next eta1 allocation -- the same tick, since
        rebalances ride the supply cadence -- re-derives the Eq. 3
        caps).
        """
        self.setpoint = value
        controller = self.controller
        set_base = getattr(controller, "set_base_ambient", None)
        if set_base is not None:
            set_base(value)
            return
        for sid in sorted(controller.servers):
            server = controller.servers[sid]
            ceiling = server.thermal_params.t_limit - 2.0
            target = min(value, ceiling)
            if abs(target - server.thermal_params.t_ambient) > 1e-12:
                server.set_ambient(target)

    def headroom(self, now: float) -> float:
        """Supply minus smoothed demand; negative means a deficit."""
        return self.supply_at(now) - self.smoothed_demand()

    def carbon_at(self, now: float) -> float:
        return self.carbon.at(now)

    def price_at(self, now: float) -> float:
        return self.price.at(now)

def build_site(
    spec: SiteSpec,
    *,
    n_ticks: int,
    vm_id_offset: int = 0,
    tracer=None,
) -> Site:
    """Instantiate the controller (and workload) for one site.

    ``vm_id_offset`` renumbers the site's VMs so ids are unique across
    the federation (VM objects travel between controllers).  Offset 0 --
    always the first site -- leaves ids untouched, which is what keeps a
    single-site federation bit-exact with the scalar controller: the
    per-VM demand streams are keyed by VM id.
    """
    from repro.topology.builders import build_paper_simulation

    tree = spec.tree or build_paper_simulation()
    config = spec.config or WillowConfig()
    raw_supply = spec.supply or constant_supply(
        len(tree.servers()) * config.circuit_limit
    )
    delivered = raw_supply
    battery_plan = None
    battery_rate = 0.0
    if spec.battery is not None:
        delivered, battery_plan = buffer_supply_with_plan(
            raw_supply,
            spec.battery,
            duration=max(n_ticks * config.delta_d, config.delta_d),
            dt=config.delta_d,
        )
        battery_rate = spec.battery.max_rate

    placement = seeded_placement(
        tree,
        config,
        seed=spec.seed,
        target_utilization=spec.target_utilization,
        apps=spec.apps,
        vms_per_server=spec.vms_per_server,
    )
    if vm_id_offset:
        for vm in placement.vms:
            vm.vm_id += vm_id_offset

    kwargs = dict(
        ambient_overrides=spec.ambient_overrides,
        seed=spec.seed,
        tracer=tracer if tracer is not None else NULL_TRACER,
    )
    schedule = spec.plant_faults
    if schedule is not None and not schedule.empty:
        from repro.plant_faults.controller import FaultTolerantWillowController

        controller = FaultTolerantWillowController(
            tree, config, delivered, placement,
            plant_faults=schedule, **kwargs
        )
    elif spec.vectorized and config.device_classes is None:
        from repro.core.vectorized import VectorizedWillowController

        controller = VectorizedWillowController(
            tree, config, delivered, placement, **kwargs
        )
    else:
        controller = WillowController(
            tree, config, delivered, placement, **kwargs
        )

    return Site(
        spec=spec,
        controller=controller,
        delivered_supply=delivered,
        carbon=spec.carbon or constant_supply(1.0),
        price=spec.price or constant_supply(1.0),
        battery_plan=battery_plan,
        battery_rate=battery_rate,
    )
