"""Geo-federated Willow: several sites run as one system.

The federation layer composes the paper's hierarchy one level up
(Fig. 1): each member :class:`Site` is a complete Willow instance with
its own supply trace, optional battery buffer, optional plant-fault
schedule and grid signals; the :class:`FederationCoordinator` runs them
tick-locked and shifts VM load between them on the supply cadence under
a pluggable policy.  See ``docs/federation.md``.
"""

from repro.federation.coordinator import (
    CrossSiteMigration,
    FederationConfig,
    FederationCoordinator,
    build_federation,
    run_federation,
)
from repro.federation.forecasts import (
    AR1Forecast,
    FORECAST_MODELS,
    ForecastModel,
    NoisyOracleForecast,
    OracleForecast,
    PersistenceForecast,
    resolve_forecast_model,
)
from repro.federation.policies import (
    POLICIES,
    SiteStatus,
    Transfer,
    as_policy,
    greedy_greenest,
    neutral,
    policy,
    predictive,
    price_aware,
    proportional,
    register_policy,
    unregister_policy,
)
from repro.federation.predictive import (
    ActuatedSupply,
    CoolingControl,
    CoolingSetpoint,
    PredictivePlanner,
    SiteForecast,
    predictive_policy,
)
from repro.federation.site import Site, SiteSpec, build_site

__all__ = [
    "Site",
    "SiteSpec",
    "build_site",
    "FederationConfig",
    "FederationCoordinator",
    "CrossSiteMigration",
    "build_federation",
    "run_federation",
    "POLICIES",
    "SiteStatus",
    "Transfer",
    "policy",
    "register_policy",
    "unregister_policy",
    "as_policy",
    "neutral",
    "proportional",
    "greedy_greenest",
    "price_aware",
    "predictive",
    "predictive_policy",
    "PredictivePlanner",
    "SiteForecast",
    "CoolingControl",
    "CoolingSetpoint",
    "ActuatedSupply",
    "ForecastModel",
    "OracleForecast",
    "PersistenceForecast",
    "NoisyOracleForecast",
    "AR1Forecast",
    "FORECAST_MODELS",
    "resolve_forecast_model",
]
