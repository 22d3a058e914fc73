"""Receding-horizon (MPC) federation control with cooling as an actuator.

The shipped federation policies are myopic: they react to the current
:class:`~repro.federation.policies.SiteStatus` snapshot, and cooling
only ever appears as a *fault* (a CRAC derate).  This module adds the
predictive layer the ROADMAP calls for, in the spirit of Abera & Chen's
joint compute/cooling optimization and Van Damme et al.'s thermal-aware
optimal control (PAPERS.md), grafted onto Willow's proportional
budget-division core:

* :func:`predictive_policy` -- a K-step receding-horizon planner.  At
  every supply period it reads each site's forecast window (segment-
  exact :meth:`~repro.power.supply.SupplyTrace.mean_between` averages
  of the *delivered*, post-UPS supply), the battery plan's state of
  charge, and the WAN migration cost, and solves a small LP-shaped
  greedy waterfall over the horizon:

  - **donor screening over the whole window** -- a site only donates
    headroom it keeps at *every* step of the horizon, so load is never
    parked somewhere the forecast says will dim (the myopic policies'
    ping-pong moves, each paying WAN cost twice);
  - **pre-emptive shedding** -- a site whose forecast shows a deficit
    ahead ships load out *before* the crunch (while both ends have
    slack), but only when the discounted predicted-drop energy exceeds
    the WAN energy of at least one move -- the explicit trade of WAN
    cost now against predicted deficits later.

  ``horizon=0`` degrades *exactly* to
  :func:`~repro.federation.policies.proportional` (pinned by test).

* :class:`CoolingSetpoint` / :class:`CoolingControl` -- cooling
  promoted from disturbance to actuator.  The planner raises a
  deficit site's supply-air setpoint (cheaper cooling -> more IT watts
  from the same facility feed, at the price of lower Eq. 3 thermal
  caps) and restores it on recovery; the modeled cooling-plant
  overhead is charged against the site budget through
  :class:`ActuatedSupply`, and setpoint changes compose with any
  in-progress CRAC-derate ramp (see
  ``FaultTolerantWillowController.set_base_ambient``).

* :class:`PredictivePlanner` -- the stateful wrapper the coordinator
  drives: it carries the last plan (per-site per-step predicted
  deficits, for trace frames) and the standing setpoints, and
  round-trips through ``snapshot_state()``/``restore_state()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cooling.model import CoolingModel
from repro.federation.policies import (
    SiteStatus,
    Transfer,
    proportional,
    _EPS,
)

__all__ = [
    "SiteForecast",
    "CoolingSetpoint",
    "CoolingControl",
    "ActuatedSupply",
    "predictive_policy",
    "PredictivePlanner",
]


@dataclass(frozen=True)
class SiteForecast:
    """One site's K-step lookahead, as the planner sees it.

    ``supplies[k]`` is the segment-exact mean delivered (post-UPS,
    post-cooling-overhead) supply over future supply period ``k``;
    ``supplies[0]`` covers the period starting now.  ``battery_charge``
    is the UPS plan's state of charge (W*ticks) at the window start and
    ``battery_rate`` its discharge limit (W); both are 0 for sites
    without a battery.
    """

    name: str
    supplies: Tuple[float, ...]
    battery_charge: float = 0.0
    battery_rate: float = 0.0

    def __post_init__(self) -> None:
        if not self.supplies:
            raise ValueError("forecast needs at least the current period")
        if any(s < 0 for s in self.supplies):
            raise ValueError("forecast supplies must be non-negative")
        if self.battery_charge < 0 or self.battery_rate < 0:
            raise ValueError("battery charge/rate must be non-negative")


@dataclass(frozen=True)
class CoolingSetpoint:
    """A directive to move ``site``'s supply-air setpoint (deg C)."""

    site: str
    base_ambient: float

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("setpoint site must be non-empty")
        if not -20.0 < self.base_ambient < 60.0:
            raise ValueError(
                f"setpoint {self.base_ambient} is outside any plausible "
                "supply-air range"
            )


@dataclass(frozen=True)
class CoolingControl:
    """Cooling-actuation tunables for a federation.

    Attributes
    ----------
    model:
        The :class:`CoolingModel` translating setpoints into COP.
    outside_temp:
        Outside air temperature (deg C) the chiller works against.
    nominal_setpoint:
        Supply-air temperature every site starts (and recovers) at.
    max_setpoint:
        Ceiling the planner may raise a deficit site's setpoint to.
    charge_overhead:
        Charge the modeled cooling-plant power against each site's
        budget (through :class:`ActuatedSupply`).  Applies to *every*
        site uniformly, whatever the policy, so policy comparisons under
        cooling accounting stay apples-to-apples.
    """

    model: CoolingModel = field(default_factory=CoolingModel)
    outside_temp: float = 30.0
    nominal_setpoint: float = 25.0
    max_setpoint: float = 32.0
    charge_overhead: bool = True

    def __post_init__(self) -> None:
        if not math.isfinite(self.outside_temp):
            raise ValueError(
                f"outside_temp must be finite, got {self.outside_temp}"
            )
        if self.max_setpoint < self.nominal_setpoint:
            raise ValueError(
                "max_setpoint must be >= nominal_setpoint, got "
                f"{self.max_setpoint} < {self.nominal_setpoint}"
            )

    def overhead_power(self, it_power: float, setpoint: float) -> float:
        """Cooling-plant watts charged against a site budget."""
        return self.model.setpoint_cooling_power(
            max(it_power, 0.0),
            setpoint,
            self.outside_temp,
            reference=self.nominal_setpoint,
        )


class ActuatedSupply:
    """A delivered supply minus the live cooling-plant overhead.

    Controllers only ever call ``supply.at(now)``, so this thin wrapper
    is all it takes to charge the cooling plant against the site
    budget; the coordinator updates :attr:`overhead` on the supply
    cadence (smoothed IT demand over the COP at the standing setpoint).
    """

    def __init__(self, inner):
        self.inner = inner
        self.overhead = 0.0

    def at(self, time: float) -> float:
        return max(self.inner.at(time) - self.overhead, 0.0)


def _drain(
    needy: str,
    want: float,
    donatable: Dict[str, float],
    transfers: List[Transfer],
    *,
    preemptive: bool,
) -> None:
    """One proportional waterfall step: spread ``want`` over donors."""
    total = sum(donatable.values())
    if total <= _EPS:
        return
    take = min(want, total)
    shares = {name: room / total for name, room in sorted(donatable.items())}
    for name, share in shares.items():
        watts = min(take * share, donatable[name])
        if watts <= _EPS:
            continue
        transfers.append(
            Transfer(src=needy, dst=name, watts=watts, preemptive=preemptive)
        )
        donatable[name] -= watts


def predictive_policy(
    statuses: Sequence[SiteStatus],
    *,
    margin: float = 0.0,
    horizon: int = 0,
    forecasts: Optional[Sequence[SiteForecast]] = None,
    discount: float = 0.6,
    step: float = 1.0,
    wan_break_even: float = 0.0,
    plan: Optional[Dict[str, Tuple[float, ...]]] = None,
) -> List[Transfer]:
    """The K-step receding-horizon waterfall.

    Parameters beyond the common policy signature:

    ``horizon``
        Lookahead steps K (supply periods).  0 delegates to
        :func:`proportional` verbatim -- same transfers, same floats.
    ``forecasts``
        One :class:`SiteForecast` per site (any order).  ``None`` also
        degrades to proportional.
    ``discount``
        Per-step geometric discount on predicted deficits (model
        confidence decays with lead time).
    ``step``
        Length of one supply period in simulation time units (converts
        predicted deficit watts into energies).
    ``wan_break_even``
        Energy of one WAN move (W*time units, both end servers).  A
        pre-emptive shed is only worth taking when the discounted
        predicted-drop energy it avoids exceeds this.
    ``plan``
        Optional out-parameter: filled with each site's per-step
        predicted deficit vector ``(d_0 .. d_K)`` for tracing.

    When ``plan`` is given it is filled even for sites that end up
    needing nothing -- the trace shows the planner *considered* them.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if not 0.0 < discount <= 1.0:
        raise ValueError(f"discount must be in (0, 1], got {discount}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if horizon == 0 or not forecasts:
        return proportional(statuses, margin=margin)

    by_name = {f.name: f for f in forecasts}
    missing = [s.name for s in statuses if s.name not in by_name]
    if missing:
        raise ValueError(f"no forecast for site(s) {missing}")

    donatable: Dict[str, float] = {}
    urgent: List[SiteStatus] = []
    #: (discounted worst predicted deficit, name, watts to pre-shift)
    preshift: List[Tuple[float, str]] = []
    preshift_watts: Dict[str, float] = {}

    for status in statuses:
        forecast = by_name[status.name]
        demand = status.smoothed_demand
        steps = min(horizon, len(forecast.supplies) - 1)
        future_headroom = [
            forecast.supplies[k] - demand for k in range(1, steps + 1)
        ]
        future_deficits = [max(-h, 0.0) for h in future_headroom]
        if plan is not None:
            plan[status.name] = tuple([status.deficit] + future_deficits)

        if status.deficit > _EPS:
            # The WAN break-even gate applies to reactive shifts too:
            # a deficit whose drop energy over the whole window is
            # smaller than one move's WAN energy is cheaper to drop
            # than to ship (the WAN cost is itself demand charged to
            # both end servers, and at a deficit site it drops).
            energy = status.deficit * step + sum(
                discount ** (k + 1) * d * step
                for k, d in enumerate(future_deficits)
            )
            if energy >= wan_break_even - _EPS:
                urgent.append(status)
            continue
        floor = min([status.headroom] + future_headroom)
        room = floor - margin
        if room > _EPS:
            donatable[status.name] = room
            continue
        if not any(d > _EPS for d in future_deficits):
            continue
        # Predicted crunch at a currently-healthy site: worth shipping
        # load out early only if the discounted avoided-drop energy
        # beats the WAN energy of a move.  The battery plan's remaining
        # charge is subtracted first -- delivered supply is already
        # post-UPS, so this is a deliberate extra conservatism: never
        # pre-pay WAN cost for a dip the UPS might still carry.
        energy = sum(
            discount ** (k + 1) * d * step
            for k, d in enumerate(future_deficits)
        )
        if energy < wan_break_even - _EPS:
            continue
        relief = min(
            forecast.battery_rate,
            forecast.battery_charge / step,
        )
        urgency, watts = max(
            (discount ** (k + 1) * d, d)
            for k, d in enumerate(future_deficits)
        )
        watts -= relief
        if watts > _EPS:
            preshift.append((urgency, status.name))
            preshift_watts[status.name] = watts

    transfers: List[Transfer] = []
    # Current deficits first (they are dropping demand *now*), worst
    # first -- the proportional rule against horizon-screened donors.
    for needy in sorted(urgent, key=lambda s: (-s.deficit, s.name)):
        _drain(
            needy.name,
            min(needy.deficit, sum(donatable.values())),
            donatable,
            transfers,
            preemptive=False,
        )
    # Then the pre-emptive shifts, most imminent crunch first.
    for _urgency, name in sorted(preshift, key=lambda p: (-p[0], p[1])):
        _drain(
            name,
            preshift_watts[name],
            donatable,
            transfers,
            preemptive=True,
        )
    return transfers


class PredictivePlanner:
    """The coordinator-side stateful wrapper around the policy.

    Holds the horizon configuration, the last computed plan (per-site
    per-step predicted deficits -- what the tracer's planner frames
    show), and the standing cooling setpoints.  All of it round-trips
    through :meth:`state_dict`/:meth:`load_state_dict` so a
    checkpointed predictive federation resumes bit-exactly.
    """

    def __init__(
        self,
        *,
        horizon: int,
        discount: float = 0.6,
        policy=None,
    ):
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        if not 0.0 < discount <= 1.0:
            raise ValueError(f"discount must be in (0, 1], got {discount}")
        self.horizon = horizon
        self.discount = discount
        #: The forecast-aware policy this planner drives.  ``None``
        #: keeps :func:`predictive_policy`; a learned policy registered
        #: with ``forecast_aware=True`` (see :mod:`repro.gym.agents`)
        #: receives the identical planner signature.
        self.policy = policy if policy is not None else predictive_policy
        #: Last rebalance's per-site predicted deficit vectors.
        self.last_plan: Dict[str, Tuple[float, ...]] = {}
        #: Standing supply-air setpoint per site (cooling control only).
        self.setpoints: Dict[str, float] = {}
        self.rebalances = 0

    def plan(
        self,
        statuses: Sequence[SiteStatus],
        forecasts: Sequence[SiteForecast],
        *,
        margin: float,
        step: float,
        wan_break_even: float,
        cooling: Optional[CoolingControl] = None,
    ) -> Tuple[List[Transfer], List[CoolingSetpoint]]:
        """One receding-horizon decision: transfers plus setpoints."""
        plan: Dict[str, Tuple[float, ...]] = {}
        transfers = self.policy(
            statuses,
            margin=margin,
            horizon=self.horizon,
            forecasts=forecasts,
            discount=self.discount,
            step=step,
            wan_break_even=wan_break_even,
            plan=plan,
        )
        self.last_plan = plan
        self.rebalances += 1
        setpoints: List[CoolingSetpoint] = []
        if cooling is not None and self.horizon > 0:
            for status in statuses:
                deficits = plan.get(status.name, (status.deficit,))
                # Raise the setpoint into a (predicted) crunch, restore
                # it once the window ahead is clear: warmer supply air
                # trades thermal-cap headroom for IT watts exactly when
                # the watts are the binding constraint.
                crunch = deficits[0] > _EPS or (
                    len(deficits) > 1 and deficits[1] > _EPS
                )
                target = (
                    cooling.max_setpoint if crunch else cooling.nominal_setpoint
                )
                standing = self.setpoints.get(
                    status.name, cooling.nominal_setpoint
                )
                if abs(target - standing) > 1e-12:
                    setpoints.append(
                        CoolingSetpoint(site=status.name, base_ambient=target)
                    )
                self.setpoints[status.name] = target
        return transfers, setpoints

    # --------------------------------------------------- checkpoint state
    def state_dict(self) -> Dict:
        return {
            "horizon": self.horizon,
            "discount": self.discount,
            "last_plan": dict(self.last_plan),
            "setpoints": dict(self.setpoints),
            "rebalances": self.rebalances,
        }

    def load_state_dict(self, state: Dict) -> None:
        if state["horizon"] != self.horizon:
            raise ValueError(
                f"snapshot horizon {state['horizon']} does not match "
                f"this planner's {self.horizon}"
            )
        self.discount = state["discount"]
        self.last_plan = dict(state["last_plan"])
        self.setpoints = dict(state["setpoints"])
        self.rebalances = state["rebalances"]
