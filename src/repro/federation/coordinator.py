"""The grid-level coordinator: N Willow sites run as one system.

Willow's hierarchy composes upward (Fig. 1): a data-center PMU can be
the child of a grid-level controller.  The
:class:`FederationCoordinator` is that next level, implemented exactly
in the paper's idiom:

* **Tick-locked execution.**  All sites share the demand cadence
  ``Delta_D`` and advance in lock step; each site remains a complete,
  unmodified Willow instance (scalar or fault-tolerant).
* **Supply-cadence decisions.**  Every ``Delta_S = eta1`` ticks the
  coordinator snapshots per-site headroom/deficit from *smoothed*
  demand (Eq. 4) against the delivered (post-UPS) supply and asks the
  configured policy (:mod:`repro.federation.policies`) for transfer
  directives.
* **FFDLR repack.**  Directives are realised as whole-VM moves: the
  deficit site sheds its largest over-budget VMs (the Sec. IV-E
  shedding rule), the destination site's eligible servers become
  receivers (surplus minus the ``P_min`` margin and the WAN migration
  cost), and :func:`repro.binpack.ffdlr.ffdlr_pack` matches them.  Unplaceable
  items simply stay home -- cross-site shifting is opportunistic, never
  a new source of drops.
* **WAN cost as temporary power demand.**  Exactly as Sec. IV-E charges
  intra-site migrations, a cross-site move charges
  ``wan_cost_power`` watts for ``wan_cost_ticks`` ticks to *both* end
  servers -- just scaled up, because state now crosses a WAN.

* **Fused array sites.**  Consecutive sites on the vectorized
  controller tick as one array segment
  (:class:`~repro.core.vectorized._Segment`) over one shared
  :class:`~repro.core.fleet.FederationFleet` block: tree levels of
  different sites concatenate into one fold / one ``allocate_level``
  call per level.  The sites' per-server and per-VM objects are views
  onto the block's lanes, so hooks, the rebalance and snapshots read
  current objects with nothing written back.  The rebalance's shed and
  receiver screens are therefore one set of object walks for every
  site, scalar, fault-tolerant or fused.

Equivalence contract (enforced by ``tests/test_federation.py``): a
federation of one site under the ``neutral`` policy reproduces the
scalar :class:`~repro.core.controller.WillowController` bit-exactly --
same decisions, same float trajectories.  The same contract the
distributed and fault-tolerant layers honor, and what keeps this
subsystem testable.  Fused sites decide exactly as the scalar
controllers would (``tests/test_federation_vectorized.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.binpack.ffdlr import ffdlr_pack
from repro.binpack.items import Item, Receivers
from repro.core.fleet import FederationFleet
from repro.core.vectorized import VectorizedWillowController, _Segment
from repro.federation.forecasts import ForecastModel, resolve_forecast_model
from repro.federation.policies import (
    POLICIES,
    SiteStatus,
    Transfer,
    as_policy,
)
from repro.federation.predictive import (
    CoolingControl,
    CoolingSetpoint,
    PredictivePlanner,
    SiteForecast,
)
from repro.federation.site import Site, SiteSpec, build_site
from repro.trace.tracer import Tracer, active_tracer
from repro.workload.generator import DemandGenerator

__all__ = [
    "FederationConfig",
    "CrossSiteMigration",
    "FederationCoordinator",
    "build_federation",
    "run_federation",
]

_EPS = 1e-9


def _largest_first(server) -> List[Tuple[float, int, object]]:
    """``server``'s VMs as ``(demand, vm_id, vm)``, largest demand
    first and vm id breaking ties.  Each demand is read once: on an
    array site it is a view onto the site's demand lane."""
    return sorted(
        [(vm.current_demand, vm.vm_id, vm) for vm in server.vms.values()],
        key=lambda t: (-t[0], t[1]),
    )


@dataclass(frozen=True)
class FederationConfig:
    """Tunables of the grid-level control loop.

    Attributes
    ----------
    policy:
        Policy slug from :data:`repro.federation.policies.POLICIES` or
        a callable with the same signature.
    wan_cost_power:
        Temporary power demand (W) charged to both end servers of a
        cross-site move.  ``None`` defaults to 4x the intra-site
        ``migration_cost_power`` -- WAN state transfer is strictly more
        expensive than a rack-local move.
    wan_cost_ticks:
        How many ticks the WAN cost persists; ``None`` defaults to 2x
        the intra-site ``migration_cost_ticks``.
    margin:
        Watts of headroom a donor site always keeps (the federation
        analogue of ``P_min``); ``None`` defaults to the site config's
        ``p_min``.
    horizon:
        Lookahead steps (supply periods) for forecast-aware policies;
        0 keeps even ``predictive`` exactly proportional.
    discount:
        Per-step geometric discount on predicted deficits.
    cooling:
        Optional :class:`~repro.federation.predictive.CoolingControl`:
        charges the modeled cooling-plant overhead against every site's
        budget and lets the predictive planner actuate supply-air
        setpoints.  ``None`` (the default) changes nothing.
    forecast:
        Supply forecast model for forecast-aware policies and the gym
        environment's observations: a
        :class:`~repro.federation.forecasts.ForecastModel`, a spec
        string (``"oracle"``, ``"persistence"``,
        ``"noisy-oracle:SIGMA[:SEED]"``, ``"ar1:RHO:SIGMA[:SEED]"``) or
        ``None``/``"oracle"`` for the PR 9 perfect-lookahead behaviour.
    """

    policy: Union[str, Callable] = "neutral"
    wan_cost_power: Optional[float] = None
    wan_cost_ticks: Optional[int] = None
    margin: Optional[float] = None
    horizon: int = 0
    discount: float = 0.6
    cooling: Optional[CoolingControl] = None
    forecast: Union[str, ForecastModel, None] = "oracle"

    def __post_init__(self) -> None:
        # Zero is a real ablation; a negative charge would silently
        # mean zero (charge_migration_cost ignores it).
        for name in ("wan_cost_power", "wan_cost_ticks"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError(
                f"discount must be in (0, 1], got {self.discount}"
            )

    def resolve_policy(self) -> Callable:
        """The policy callable, normalised to the registration protocol.

        Registry slugs come back as registered (every shipped policy
        carries explicit ``policy_name``/``forecast_aware`` attributes
        from the ``@policy`` decorator); bare callables are stamped
        with conservative defaults by
        :func:`~repro.federation.policies.as_policy` so the coordinator
        never probes with ``getattr`` defaults.
        """
        if callable(self.policy):
            return as_policy(self.policy)
        try:
            return POLICIES[self.policy]
        except KeyError:
            raise ValueError(
                f"unknown federation policy {self.policy!r}; "
                f"choose from {sorted(POLICIES)}"
            ) from None


@dataclass(frozen=True, slots=True)
class CrossSiteMigration:
    """One executed cross-site VM move with its decision inputs.

    ``src_deficit`` and ``dst_surplus`` are the Eq. 5-9 quantities the
    shift was justified by, captured when the move was decided: the
    source server's observed demand beyond its budget at shedding time,
    and the destination bin's remaining surplus (budget minus demand,
    ``P_min`` margin, WAN cost, and any load already packed this round)
    just before this VM landed.  Both are strictly positive by
    construction -- a shift is only taken from a deficit into room.
    """

    time: float
    vm_id: int
    src_site: str
    dst_site: str
    src_node: int
    dst_node: int
    demand: float  # VM demand (W) at shift time
    wan_cost_power: float
    src_deficit: float
    dst_surplus: float


class FederationCoordinator:
    """Runs N sites tick-locked with supply-aware load shifting.

    Sites on :class:`~repro.core.vectorized.VectorizedWillowController`
    tick fused in array segments (see the module docstring); every
    other site ticks its own controller at its position.
    """

    def __init__(
        self,
        sites: Sequence[Site],
        *,
        federation: Optional[FederationConfig] = None,
        tracer: Optional[Tracer] = None,
    ):
        if not sites:
            raise ValueError("federation needs at least one site")
        names = [site.name for site in sites]
        if len(set(names)) != len(names):
            raise ValueError(f"site names must be unique, got {names}")
        first = sites[0].config
        for site in sites[1:]:
            if site.config.delta_d != first.delta_d:
                raise ValueError(
                    "tick-locked federation requires identical delta_d "
                    f"across sites; {site.name} differs"
                )
            if site.config.eta1 != first.eta1:
                raise ValueError(
                    "tick-locked federation requires identical eta1 "
                    f"across sites; {site.name} differs"
                )
        self.sites: List[Site] = list(sites)
        self._by_name: Dict[str, Site] = {s.name: s for s in self.sites}
        self.federation = federation or FederationConfig()
        self._policy = self.federation.resolve_policy()
        self.delta_d = first.delta_d
        self.eta1 = first.eta1

        #: The receding-horizon planner, for forecast-aware policies
        #: with a positive horizon; ``None`` keeps the plain
        #: ``policy(statuses, margin=...)`` call (and ``predictive`` at
        #: ``horizon=0`` therefore stays bit-exact with proportional).
        self._planner: Optional[PredictivePlanner] = None
        if self._policy.forecast_aware and self.federation.horizon > 0:
            self._planner = PredictivePlanner(
                horizon=self.federation.horizon,
                discount=self.federation.discount,
                policy=self._policy,
            )
        #: The supply forecast model behind :meth:`site_forecasts`.
        self.forecast_model: ForecastModel = resolve_forecast_model(
            self.federation.forecast
        )
        #: Cooling setpoint directives per shift tick.
        self.setpoint_log: List[Tuple[int, List[CoolingSetpoint]]] = []
        if self.federation.cooling is not None:
            self._install_cooling()

        #: Executed cross-site moves, time-ordered.
        self.cross_migrations: List[CrossSiteMigration] = []
        #: Policy directives per shift tick: ``(tick, [Transfer, ...])``.
        self.transfer_log: List[Tuple[int, List[Transfer]]] = []
        self._tick_index = 0

        #: Observer hooks run *between* ticks --
        #: ``hook(coordinator, completed_ticks)`` fires after every
        #: site's tick and clock advance, so a checkpoint taken here
        #: needs no fixup (see :mod:`repro.checkpoint`).  Every site's
        #: runtime objects are current here, fused sites' included.
        self.on_tick: List[Callable] = []

        self.tracer = tracer if tracer is not None else active_tracer()
        if self.tracer.enabled:
            self.tracer.write_federation_meta(
                names,
                self.federation.policy
                if isinstance(self.federation.policy, str)
                else getattr(self._policy, "__name__", "custom"),
            )
        self._partition()

    def _partition(self) -> None:
        """Split the sites into the parts a tick runs, in site order.

        Consecutive untraced vectorized sites over a Poisson
        :class:`~repro.workload.generator.DemandGenerator` share one
        segment over one :class:`~repro.core.fleet.FederationFleet`.
        A traced array site ticks as a one-site segment, so its frames
        keep site-major order.  Every other site (scalar, plant-fault,
        another demand source) ticks its own controller.  Runs at
        construction and again at the end of :meth:`restore_state`,
        whose restored objects the segments must mirror afresh.
        """
        plan: List[object] = []
        run: List[int] = []
        for idx, site in enumerate(self.sites):
            controller = site.controller
            fusable = isinstance(
                controller, VectorizedWillowController
            ) and isinstance(controller.demand_source, DemandGenerator)
            if fusable and not controller.tracer.enabled:
                run.append(idx)
                continue
            if run:
                plan.append(run)
                run = []
            plan.append([idx] if fusable else site)
        if run:
            plan.append(run)

        fused = [i for part in plan if isinstance(part, list) for i in part]
        self.fed_fleet: Optional[FederationFleet] = None
        if fused:
            self.fed_fleet = FederationFleet(
                [self.sites[i].controller.fleet for i in fused]
            )
            block_slice = dict(zip(fused, self.fed_fleet.site_slices))
        #: vm_id -> index of the VM's *home* site, for the segments'
        #: late-pair staleness rule; filled by :meth:`_index_vm_homes`.
        self._vm_home: Dict[int, int] = {}
        self._plan: List[Union[_Segment, Site]] = []
        self.segments: List[_Segment] = []
        for part in plan:
            if not isinstance(part, list):
                self._plan.append(part)
                continue
            segment = _Segment(
                self.fed_fleet,
                [(self.sites[i].controller, i, block_slice[i]) for i in part],
                self._vm_home,
            )
            self.segments.append(segment)
            self._plan.append(segment)

    def _index_vm_homes(self) -> None:
        """Fill the VM-home map from the placements (each site's home
        VMs) on the first cross-site move: until then no segment has
        late pairs, and an empty map lets every segment tick skip the
        late-pair scan."""
        if self.segments and not self._vm_home:
            self._vm_home.update(
                (vm.vm_id, i)
                for i, site in enumerate(self.sites)
                for vm in site.controller.placement.vms
            )

    # ------------------------------------------------------------------ run
    def run(self, n_ticks: int) -> "FederationCoordinator":
        """Advance every site ``n_ticks`` demand windows, shifting load
        on the supply cadence.  Returns ``self`` for chaining."""
        if n_ticks < 1:
            raise ValueError(f"n_ticks must be >= 1, got {n_ticks}")
        for _ in range(n_ticks):
            self._tick()
        for site in self.sites:
            site.controller.tracer.flush()
        self.tracer.flush()
        return self

    def _tick(self) -> None:
        tick = self._tick_index
        now = tick * self.delta_d
        # Grid-level decisions happen on the supply cadence, *before*
        # the sites' own ticks, so this tick's Delta_S allocation at
        # each site already sees the shifted workload.  Tick 0 is
        # skipped: smoothed demand carries no information yet.
        if tick > 0 and tick % self.eta1 == 0:
            self._rebalance(tick, now)
        for part in self._plan:
            if isinstance(part, _Segment):
                # The sites' own clock, which their scalar ticks read.
                part.tick(part.controllers[0].env.now)
            else:
                part.controller._tick()
        for site in self.sites:
            site.controller.env.advance(site.config.delta_d)
        self._tick_index += 1
        for hook in self.on_tick:
            hook(self, self._tick_index)

    # ----------------------------------------------------------- shifting
    def statuses(self, now: float) -> List[SiteStatus]:
        """Per-site supply-period snapshot the policy decides from."""
        return [
            SiteStatus(
                name=site.name,
                supply=site.supply_at(now),
                smoothed_demand=site.smoothed_demand(),
                carbon=site.carbon_at(now),
                price=site.price_at(now),
            )
            for site in self.sites
        ]

    def _install_cooling(self) -> None:
        """Wrap every site's supply in the overhead-charging actuator.

        Rejected for vectorized site controllers: their thermal state
        lives in fleet arrays, so per-server setpoint actuation has no
        object path to write through.
        """
        cooling = self.federation.cooling
        for site in self.sites:
            if isinstance(site.controller, VectorizedWillowController):
                raise ValueError(
                    "cooling actuation needs per-server object thermal "
                    f"state; site {site.name!r} runs the vectorized "
                    "controller (build with vectorized=False and "
                    "SiteSpec.vectorized=False)"
                )
            site.install_cooling(cooling)

    def _update_cooling(self, now: float) -> None:
        """Refresh each site's charged cooling-plant overhead.

        Smoothed IT demand over the COP at the standing setpoint --
        recomputed on the supply cadence, *before* statuses are taken,
        so the policy sees supply net of the cooling it is paying for.
        """
        cooling = self.federation.cooling
        if cooling is None or not cooling.charge_overhead:
            return
        for site in self.sites:
            if site.actuated_supply is None:
                continue
            setpoint = (
                site.setpoint
                if site.setpoint is not None
                else cooling.nominal_setpoint
            )
            site.actuated_supply.overhead = cooling.overhead_power(
                site.smoothed_demand(), setpoint
            )

    def forecasts(self, now: float) -> List[SiteForecast]:
        """One K-step lookahead per site, for the predictive planner.

        The horizon is the planner's (0 without one); see
        :meth:`site_forecasts` for the construction contract.
        """
        horizon = self._planner.horizon if self._planner is not None else 0
        return self.site_forecasts(now, horizon)

    def site_forecasts(self, now: float, horizon: int) -> List[SiteForecast]:
        """One ``horizon``-step lookahead per site.

        ``supplies[k]`` comes from the configured
        :class:`~repro.federation.forecasts.ForecastModel` (the default
        oracle is the segment-exact mean of the *delivered*, post-UPS
        supply over future supply period ``k``), minus the site's
        standing cooling overhead, clamped at zero; the battery fields
        come from the UPS charge plan precomputed at build time.  Both
        the predictive planner and the gym environment's observations
        (:mod:`repro.gym`) read through here.
        """
        step = self.eta1 * self.delta_d
        model = self.forecast_model
        out: List[SiteForecast] = []
        for site in self.sites:
            overhead = (
                site.actuated_supply.overhead
                if site.actuated_supply is not None
                else 0.0
            )
            supplies = tuple(
                max(s - overhead, 0.0)
                for s in model.supplies(site, now, horizon, step)
            )
            out.append(
                SiteForecast(
                    name=site.name,
                    supplies=supplies,
                    battery_charge=site.battery_charge_at(now),
                    battery_rate=site.battery_rate,
                )
            )
        return out

    def _wan_break_even(self) -> float:
        """Energy (W * time units) one WAN move charges, both ends.

        The planner's gate for pre-emptive shifts; the max across sites
        keeps the gate conservative when WAN costs differ.
        """
        return max(
            2.0 * power * ticks * self.delta_d
            for power, ticks in (self._wan_cost(site) for site in self.sites)
        )

    def _rebalance(self, tick: int, now: float) -> None:
        self._update_cooling(now)
        statuses = self.statuses(now)
        margin = self.federation.margin
        if margin is None:
            margin = max(site.config.p_min for site in self.sites)
        setpoints: List[CoolingSetpoint] = []
        if self._planner is not None:
            transfers, setpoints = self._planner.plan(
                statuses,
                self.forecasts(now),
                margin=margin,
                step=self.eta1 * self.delta_d,
                wan_break_even=self._wan_break_even(),
                cooling=self.federation.cooling,
            )
        else:
            transfers = self._policy(statuses, margin=margin)
        if self.tracer.enabled:
            self.tracer.begin_tick(tick, now)
            for status in statuses:
                self.tracer.record_site_grant(
                    status.name,
                    status.supply,
                    status.smoothed_demand,
                    status.headroom,
                    status.carbon,
                    status.price,
                )
            if self._planner is not None:
                for status in statuses:
                    deficits = self._planner.last_plan.get(status.name)
                    if deficits:
                        self.tracer.record_planner(
                            status.name,
                            self._planner.horizon,
                            deficits,
                            setpoint=self._planner.setpoints.get(status.name),
                        )
        if setpoints:
            self.setpoint_log.append((tick, list(setpoints)))
            for directive in setpoints:
                self._by_name[directive.site].apply_setpoint(
                    directive.base_ambient
                )
        if not transfers:
            return
        self.transfer_log.append((tick, list(transfers)))
        for transfer in transfers:
            self._execute_transfer(transfer, now)

    def _wan_cost(self, site: Site) -> Tuple[float, int]:
        config = site.config
        power = self.federation.wan_cost_power
        if power is None:
            power = 4.0 * config.migration_cost_power
        ticks = self.federation.wan_cost_ticks
        if ticks is None:
            ticks = 2 * config.migration_cost_ticks
        return power, ticks

    def _shed_candidates(
        self, site: Site, watts: float
    ) -> List[Tuple[int, float, Item]]:
        """Whole VMs the deficit site would send away, largest first.

        Mirrors the Sec. IV-E shedding rule per server (shed until the
        remaining demand fits under ``budget - P_min``), capped globally
        at the transfer directive -- a VM bigger than the remaining
        directive is skipped, never overshooting what the policy asked.
        The servers are those the site planner's deficient screen
        picks, most deficient first.
        """
        config = site.config
        controller = site.controller
        deficient = sorted(
            controller.migration_planner._deficient(controller.servers),
            key=lambda s: (s.budget - s.raw_demand, s.node.node_id),
        )
        remaining_directive = watts
        out: List[Tuple[int, float, Item]] = []
        for server in deficient:
            if remaining_directive <= _EPS:
                break
            deficit = server.raw_demand - server.budget
            goal = max(server.budget - config.p_min, 0.0)
            remaining = server.raw_demand
            for demand, vm_id, vm in _largest_first(server):
                if remaining <= goal + _EPS or remaining_directive <= _EPS:
                    break
                if demand <= 0:
                    continue
                if demand > remaining_directive + _EPS:
                    continue  # would overshoot the directive
                out.append(
                    (
                        server.node.node_id,
                        deficit,
                        Item(key=vm_id, size=demand, payload=vm),
                    )
                )
                remaining -= demand
                remaining_directive -= demand
        return out

    def _preshed_candidates(
        self, site: Site, watts: float
    ) -> List[Tuple[int, float, Item]]:
        """Whole VMs a *pre-emptive* transfer ships out, ahead of a crunch.

        The source has no over-budget servers yet (that is the point of
        shifting early), so the Sec. IV-E rule has nothing to shed.
        Instead take the largest VMs from the least-headroom awake
        servers -- the ones the forecast dims first -- capped at the
        directive.  The recorded ``src_deficit`` is the directive
        itself: the *predicted*, not observed, deficit.
        """
        controller = site.controller
        candidates = sorted(
            (
                s
                for s in controller.servers.values()
                if s.is_awake and s.vms
            ),
            key=lambda s: (s.budget - s.raw_demand, s.node.node_id),
        )
        remaining_directive = watts
        out: List[Tuple[int, float, Item]] = []
        for server in candidates:
            if remaining_directive <= _EPS:
                break
            for demand, vm_id, vm in _largest_first(server):
                if remaining_directive <= _EPS:
                    break
                if demand <= 0:
                    continue
                if demand > remaining_directive + _EPS:
                    continue  # would overshoot the directive
                out.append(
                    (
                        server.node.node_id,
                        watts,
                        Item(key=vm_id, size=demand, payload=vm),
                    )
                )
                remaining_directive -= demand
        return out

    def _destination_receivers(self, site: Site, wan_power: float) -> Receivers:
        """Eligible receivers at the destination site, node-ordered.

        Same screening as the intra-site matcher: awake, not deficient,
        not squeezed by the unidirectional rule (the site's sinking
        internal nodes are collected once per screen); capacity is the
        surplus minus ``P_min`` and the WAN cost the move will charge.
        """
        config = site.config
        controller = site.controller
        planner = controller.migration_planner
        sinking = planner._sinking_ids(controller.internals)
        keys: List[int] = []
        caps: List[float] = []
        for node_id in sorted(controller.servers):
            server = controller.servers[node_id]
            if not server.is_awake:
                continue
            raw, budget = server.raw_demand, server.budget
            if raw > budget + _EPS:
                continue
            capacity = budget - raw - config.p_min - wan_power
            if not capacity > _EPS:
                continue
            if planner._squeezed_under(server, sinking):
                continue
            keys.append(node_id)
            caps.append(capacity)
        return Receivers(keys, caps)

    def _execute_transfer(self, transfer: Transfer, now: float) -> None:
        src_site = self._by_name[transfer.src]
        dst_site = self._by_name[transfer.dst]
        shed = (
            self._preshed_candidates
            if transfer.preemptive
            else self._shed_candidates
        )
        items = shed(src_site, transfer.watts)
        if not items:
            return
        receivers = self._destination_receivers(
            dst_site, self._wan_cost(dst_site)[0]
        )
        if not receivers.keys:
            return
        src_of = {
            item.key: (node_id, deficit) for node_id, deficit, item in items
        }
        result = ffdlr_pack([item for _node, _deficit, item in items], receivers)
        for bin_ in result.bins:
            surplus = bin_.capacity
            for item in bin_.contents:
                src_node, src_deficit = src_of[item.key]
                self._move_vm(
                    item.payload,
                    src_site,
                    src_node,
                    dst_site,
                    bin_.key,
                    now,
                    src_deficit=src_deficit,
                    dst_surplus=surplus,
                )
                surplus -= item.size

    def _move_vm(
        self,
        vm,
        src_site: Site,
        src_node: int,
        dst_site: Site,
        dst_node: int,
        now: float,
        *,
        src_deficit: float,
        dst_surplus: float,
    ) -> None:
        self._index_vm_homes()
        src = src_site.controller.servers[src_node]
        dst = dst_site.controller.servers[dst_node]
        wan_power, wan_ticks = self._wan_cost(dst_site)

        del src.vms[vm.vm_id]
        dst.vms[vm.vm_id] = vm
        src_site.controller.vm_departed(vm)
        dst_site.controller.vm_arrived(vm, dst_node)
        if dst.node.node_id == vm.host_id:
            # Node-id spaces are per-site, so a cross-site move can land
            # on the same numeric id; record the hop without the core
            # same-host guard tripping.
            vm.last_migration_time = now
            vm.host_history.append((now, dst.node.node_id))
        else:
            vm.place(dst.node.node_id, now)
        src.charge_migration_cost(wan_power, wan_ticks)
        dst.charge_migration_cost(wan_power, wan_ticks)
        # The VM's demand stream stays with its *home* placement (the
        # home controller's demand source keeps updating the shared VM
        # object every tick); only the hosting runtime changes hands.
        src_site.controller._vm_by_id.pop(vm.vm_id, None)
        dst_site.controller._vm_by_id[vm.vm_id] = vm

        src_site.vms_sent += 1
        src_site.watts_sent += vm.current_demand
        dst_site.vms_received += 1
        dst_site.watts_received += vm.current_demand

        record = CrossSiteMigration(
            time=now,
            vm_id=vm.vm_id,
            src_site=src_site.name,
            dst_site=dst_site.name,
            src_node=src_node,
            dst_node=dst_node,
            demand=vm.current_demand,
            wan_cost_power=wan_power,
            src_deficit=src_deficit,
            dst_surplus=dst_surplus,
        )
        self.cross_migrations.append(record)
        if self.tracer.enabled:
            self.tracer.record_federation_migration(
                vm.vm_id,
                src_site.name,
                dst_site.name,
                src_node,
                dst_node,
                vm.current_demand,
                src_deficit,
                dst_surplus,
                wan_power,
            )

    # --------------------------------------------------- checkpoint/restore
    def snapshot_state(self) -> Dict:
        """Capture the whole federation between ticks.

        Per-site controller snapshots plus the coordinator's own run
        state, in one structure: pickling it as a single payload
        preserves VM object identity across sites, so a VM hosted away
        from home is restored as *one* object referenced by both its
        home placement and the hosting server's runtime.
        """
        state = {
            "controller": type(self).__name__,
            "tick": self._tick_index,
            "sites": [
                {
                    "name": site.name,
                    "controller": site.controller.snapshot_state(),
                    "vms_received": site.vms_received,
                    "vms_sent": site.vms_sent,
                    "watts_received": site.watts_received,
                    "watts_sent": site.watts_sent,
                }
                for site in self.sites
            ],
            "cross_migrations": list(self.cross_migrations),
            "transfer_log": list(self.transfer_log),
        }
        if self._planner is not None or self.federation.cooling is not None:
            state["planner"] = {
                "planner": (
                    self._planner.state_dict()
                    if self._planner is not None
                    else None
                ),
                "setpoint_log": list(self.setpoint_log),
                "sites": {
                    site.name: {
                        "setpoint": site.setpoint,
                        "overhead": (
                            site.actuated_supply.overhead
                            if site.actuated_supply is not None
                            else None
                        ),
                    }
                    for site in self.sites
                },
            }
        return state

    def restore_state(self, state: Dict) -> None:
        """Overlay a snapshot onto a freshly built, identical federation.

        The coordinator must have been rebuilt from the same site specs
        (same names, same order, same ``n_ticks`` horizon — battery
        buffering is precomputed over the run horizon at build time).
        The fused segments are rebuilt over the restored objects, and
        so is the VM-home map once any VM has crossed sites.
        """
        from repro.checkpoint.errors import CheckpointError

        names = [entry["name"] for entry in state["sites"]]
        if names != [site.name for site in self.sites]:
            raise CheckpointError(
                f"snapshot sites {names} do not match this federation "
                f"({[site.name for site in self.sites]})"
            )
        self._tick_index = int(state["tick"])
        for site, entry in zip(self.sites, state["sites"]):
            site.controller.restore_state(entry["controller"])
            site.vms_received = entry["vms_received"]
            site.vms_sent = entry["vms_sent"]
            site.watts_received = entry["watts_received"]
            site.watts_sent = entry["watts_sent"]
        self.cross_migrations[:] = state["cross_migrations"]
        self.transfer_log[:] = state["transfer_log"]
        extra = state.get("planner")
        if extra is not None:
            self._restore_planner(extra)
        self._partition()
        if self.cross_migrations:
            self._index_vm_homes()

    def _restore_planner(self, extra: Dict) -> None:
        """Overlay a snapshot's predictive-planner and cooling state."""
        from repro.checkpoint.errors import CheckpointError

        if extra["planner"] is not None:
            if self._planner is None:
                raise CheckpointError(
                    "snapshot carries predictive-planner state but this "
                    "federation was not built with a forecast-aware "
                    "policy and positive horizon"
                )
            self._planner.load_state_dict(extra["planner"])
        self.setpoint_log[:] = extra["setpoint_log"]
        for site in self.sites:
            entry = extra["sites"].get(site.name)
            if entry is None:
                continue
            # Per-server thermal state was already restored with the
            # controller snapshot; only the standing-setpoint label and
            # the charged overhead live on the Site.
            site.setpoint = entry["setpoint"]
            if (
                site.actuated_supply is not None
                and entry["overhead"] is not None
            ):
                site.actuated_supply.overhead = entry["overhead"]

    # ------------------------------------------------------------ helpers
    def site(self, name: str) -> Site:
        """Look up a site by name."""
        return self._by_name[name]

    def total_cross_watts(self) -> float:
        """Total demand (W) shifted across sites over the run."""
        return float(sum(m.demand for m in self.cross_migrations))


def build_federation(
    specs: Sequence[SiteSpec],
    *,
    n_ticks: int = 100,
    policy: Union[str, Callable] = "neutral",
    wan_cost_power: Optional[float] = None,
    wan_cost_ticks: Optional[int] = None,
    margin: Optional[float] = None,
    horizon: int = 0,
    discount: float = 0.6,
    cooling: Optional[CoolingControl] = None,
    forecast: Union[str, ForecastModel, None] = "oracle",
    tracer: Optional[Tracer] = None,
    vectorized: bool = False,
    site_tracer: Optional[Tracer] = None,
) -> FederationCoordinator:
    """Build a geo-federation without running it.

    Each :class:`SiteSpec` becomes a self-contained Willow instance
    (VM ids renumbered to be federation-unique; the first site keeps
    offset 0, preserving the single-site equivalence contract).

    ``vectorized=True`` sets :attr:`SiteSpec.vectorized` on every
    spec, so each site that can run the array controller does, and
    consecutive such sites tick fused (see
    :class:`FederationCoordinator`).  Plant-fault and device-class
    sites keep their scalar controller either way.
    """
    if n_ticks < 1:
        raise ValueError(f"n_ticks must be >= 1, got {n_ticks}")
    sites: List[Site] = []
    offset = 0
    for spec in specs:
        if vectorized and not spec.vectorized:
            from dataclasses import replace

            spec = replace(spec, vectorized=True)
        site = build_site(
            spec, n_ticks=n_ticks, vm_id_offset=offset, tracer=site_tracer
        )
        offset += len(site.controller.placement.vms)
        sites.append(site)
    config = FederationConfig(
        policy=policy,
        wan_cost_power=wan_cost_power,
        wan_cost_ticks=wan_cost_ticks,
        margin=margin,
        horizon=horizon,
        discount=discount,
        cooling=cooling,
        forecast=forecast,
    )
    return FederationCoordinator(sites, federation=config, tracer=tracer)


def run_federation(
    specs: Sequence[SiteSpec],
    *,
    n_ticks: int = 100,
    policy: Union[str, Callable] = "neutral",
    wan_cost_power: Optional[float] = None,
    wan_cost_ticks: Optional[int] = None,
    margin: Optional[float] = None,
    horizon: int = 0,
    discount: float = 0.6,
    cooling: Optional[CoolingControl] = None,
    forecast: Union[str, ForecastModel, None] = "oracle",
    tracer: Optional[Tracer] = None,
    vectorized: bool = False,
) -> FederationCoordinator:
    """Build and run a geo-federation in one call.

    See :func:`build_federation` for the construction contract.
    Returns the finished :class:`FederationCoordinator`; summarise it
    with :func:`repro.metrics.federation.summarize_federation`.
    """
    coordinator = build_federation(
        specs,
        n_ticks=n_ticks,
        policy=policy,
        wan_cost_power=wan_cost_power,
        wan_cost_ticks=wan_cost_ticks,
        margin=margin,
        horizon=horizon,
        discount=discount,
        cooling=cooling,
        forecast=forecast,
        tracer=tracer,
        vectorized=vectorized,
    )
    return coordinator.run(n_ticks)
