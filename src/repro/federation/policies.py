"""Supply-aware load-shifting policies for the federation coordinator.

On every supply period the coordinator snapshots each site's state into
a :class:`SiteStatus` (delivered supply, Eq. 4 smoothed demand, the
headroom/deficit they imply, and the site's carbon/price signals) and
asks a policy to turn those into :class:`Transfer` directives -- "move
up to W watts of VM load from site A to site B".

Policies are pure functions of the statuses; they never touch
controllers.  The coordinator is responsible for realising directives
as actual VM moves (FFDLR repack with WAN cost), so a policy may ask
for more watts than whole-VM granularity can deliver.

Shipped policies:

* ``neutral``        -- never shifts; the bit-exactness baseline.
* ``proportional``   -- each deficit draws from every surplus site in
  proportion to its headroom.
* ``greedy-greenest``-- deficits fill from the lowest-carbon surplus
  site first.
* ``price-aware``    -- deficits fill from the cheapest surplus site
  first, and only when it is no more expensive than the deficit site.
* ``predictive``     -- receding-horizon MPC over each site's supply
  forecast and battery plan (:mod:`repro.federation.predictive`);
  ``horizon=0`` degrades exactly to ``proportional``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

__all__ = [
    "SiteStatus",
    "Transfer",
    "POLICIES",
    "policy",
    "register_policy",
    "unregister_policy",
    "as_policy",
    "neutral",
    "proportional",
    "greedy_greenest",
    "price_aware",
    "predictive",
]

_EPS = 1e-9

#: Policy registry keyed by CLI/experiment slug; populated by the
#: :func:`policy` decorator below (shipped policies) and by
#: :func:`register_policy` (learned policies, see :mod:`repro.gym`).
POLICIES: Dict[str, Callable[..., List[Transfer]]] = {}


def policy(name: str, *, forecast_aware: bool = False) -> Callable:
    """Register a federation policy under ``name``.

    This is the *whole* policy protocol: a policy is a callable
    ``fn(statuses, margin=...) -> List[Transfer]`` carrying two explicit
    attributes the coordinator reads --

    * ``policy_name`` -- the registry slug;
    * ``forecast_aware`` -- ``True`` selects the stateful
      :class:`~repro.federation.predictive.PredictivePlanner` drive
      path when the federation's ``horizon`` is positive, in which case
      the callable is invoked with the full planner signature
      (``horizon``, ``forecasts``, ``discount``, ``step``,
      ``wan_break_even``, ``plan``) in addition to ``statuses`` and
      ``margin``.

    Learned policies (:class:`repro.gym.agents.LearnedPolicy`) register
    through exactly the same decorator machinery, so they run under the
    coordinator (fused array sites included) and the experiments
    harness without special cases.
    """
    def decorate(fn: Callable) -> Callable:
        fn.policy_name = name
        fn.forecast_aware = forecast_aware
        POLICIES[name] = fn
        return fn

    return decorate


def register_policy(
    name: str, fn: Callable, *, forecast_aware: bool = False
) -> Callable:
    """Imperative form of the :func:`policy` decorator.

    Unlike the decorator (shipped policies, import-time, collisions are
    bugs), runtime registration refuses to silently shadow an existing
    slug.
    """
    if name in POLICIES:
        raise ValueError(f"policy {name!r} is already registered")
    return policy(name, forecast_aware=forecast_aware)(fn)


def unregister_policy(name: str) -> None:
    """Remove a runtime-registered policy (no-op for unknown names)."""
    POLICIES.pop(name, None)


def as_policy(fn: Callable) -> Callable:
    """Normalise a bare callable to the policy protocol.

    Callables passed straight to ``FederationConfig(policy=...)`` --
    closures in tests, ad-hoc lambdas -- may not carry the protocol
    attributes.  Stamp conservative defaults so the coordinator can
    read ``fn.forecast_aware`` unconditionally; objects with read-only
    attribute namespaces are wrapped instead.
    """
    if hasattr(fn, "forecast_aware"):
        return fn
    try:
        fn.forecast_aware = False
        if not hasattr(fn, "policy_name"):
            fn.policy_name = getattr(fn, "__name__", "custom")
    except (AttributeError, TypeError):
        wrapped = lambda statuses, **kwargs: fn(statuses, **kwargs)  # noqa: E731
        wrapped.forecast_aware = False
        wrapped.policy_name = getattr(fn, "__name__", "custom")
        return wrapped
    return fn


@dataclass(frozen=True)
class SiteStatus:
    """One site's supply-period snapshot, as policies see it."""

    name: str
    supply: float  # delivered (post-UPS) watts
    smoothed_demand: float  # Eq. 4 smoothed wall watts
    carbon: float  # carbon intensity signal
    price: float  # energy price signal

    @property
    def headroom(self) -> float:
        """Spare watts (negative when the site is in deficit)."""
        return self.supply - self.smoothed_demand

    @property
    def deficit(self) -> float:
        """Unmet smoothed demand (zero when the site has headroom)."""
        return max(-self.headroom, 0.0)


@dataclass(frozen=True)
class Transfer:
    """A directive to shift ``watts`` of VM load ``src`` -> ``dst``.

    ``preemptive`` marks a *predictive* shift: the source has headroom
    right now but its forecast shows a deficit ahead, so the
    coordinator sheds from its least-headroom servers instead of the
    (empty) set of over-budget ones.
    """

    src: str
    dst: str
    watts: float
    preemptive: bool = False

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("transfer source and destination are the same")
        if self.watts <= 0:
            raise ValueError(f"transfer watts must be positive, got {self.watts}")


def _split(
    statuses: Sequence[SiteStatus], margin: float
) -> tuple[List[SiteStatus], Dict[str, float]]:
    """Deficit sites (worst first) and donatable headroom per surplus site.

    ``margin`` is reserved at every donor: a site only donates watts
    beyond it, the federation-level analogue of the paper's ``P_min``
    power margin that prevents shift ping-pong.
    """
    deficits = sorted(
        (s for s in statuses if s.deficit > _EPS),
        key=lambda s: (-s.deficit, s.name),
    )
    donatable = {
        s.name: s.headroom - margin
        for s in statuses
        if s.headroom - margin > _EPS
    }
    return deficits, donatable


@policy("neutral")
def neutral(
    statuses: Sequence[SiteStatus], *, margin: float = 0.0
) -> List[Transfer]:
    """Never shift anything (isolated sites; the equivalence contract)."""
    return []


@policy("proportional")
def proportional(
    statuses: Sequence[SiteStatus], *, margin: float = 0.0
) -> List[Transfer]:
    """Spread each deficit over all donors pro rata to their headroom."""
    deficits, donatable = _split(statuses, margin)
    transfers: List[Transfer] = []
    for needy in deficits:
        total = sum(donatable.values())
        if total <= _EPS:
            break
        want = min(needy.deficit, total)
        # Shares computed against the *current* pool so later deficit
        # sites see what earlier ones left behind.
        shares = {
            name: room / total for name, room in sorted(donatable.items())
        }
        for name, share in shares.items():
            watts = min(want * share, donatable[name])
            if watts <= _EPS:
                continue
            transfers.append(Transfer(src=needy.name, dst=name, watts=watts))
            donatable[name] -= watts
    return transfers


def _ordered_fill(
    statuses: Sequence[SiteStatus],
    margin: float,
    key: Callable[[SiteStatus], tuple],
    eligible: Callable[[SiteStatus, SiteStatus], bool] = lambda needy, donor: True,
) -> List[Transfer]:
    """Greedy fill: each deficit drains donors in ``key`` order."""
    deficits, donatable = _split(statuses, margin)
    by_name = {s.name: s for s in statuses}
    order = [s.name for s in sorted(statuses, key=key) if s.name in donatable]
    transfers: List[Transfer] = []
    for needy in deficits:
        want = needy.deficit
        for name in order:
            if want <= _EPS:
                break
            if not eligible(needy, by_name[name]):
                continue
            watts = min(want, donatable[name])
            if watts <= _EPS:
                continue
            transfers.append(Transfer(src=needy.name, dst=name, watts=watts))
            donatable[name] -= watts
            want -= watts
    return transfers


@policy("greedy-greenest")
def greedy_greenest(
    statuses: Sequence[SiteStatus], *, margin: float = 0.0
) -> List[Transfer]:
    """Fill deficits from the lowest-carbon surplus sites first."""
    return _ordered_fill(statuses, margin, key=lambda s: (s.carbon, s.name))


@policy("price-aware")
def price_aware(
    statuses: Sequence[SiteStatus], *, margin: float = 0.0
) -> List[Transfer]:
    """Fill deficits from the cheapest surplus sites first.

    A donor is only eligible while its energy is no more expensive than
    the deficit site's -- shifting load somewhere pricier would trade a
    QoS loss for a cost increase, which this policy refuses.
    """
    return _ordered_fill(
        statuses,
        margin,
        key=lambda s: (s.price, s.name),
        eligible=lambda needy, donor: donor.price <= needy.price + _EPS,
    )


@policy("predictive", forecast_aware=True)
def predictive(
    statuses: Sequence[SiteStatus], *, margin: float = 0.0, **kwargs
) -> List[Transfer]:
    """Receding-horizon MPC over supply forecasts and battery plans.

    Thin registry shim around
    :func:`repro.federation.predictive.predictive_policy` (the import
    is deferred to keep the registry free of the planner's
    dependencies).  Called with only ``statuses`` -- no forecasts, no
    horizon -- it degrades to :func:`proportional`, so the registry
    entry honours the common policy signature.  ``forecast_aware=True``
    selects the coordinator's :class:`~repro.federation.predictive.
    PredictivePlanner` drive path whenever ``horizon > 0``.
    """
    from repro.federation.predictive import predictive_policy

    return predictive_policy(statuses, margin=margin, **kwargs)
