"""Tests for WillowConfig."""

import pytest

from repro.core import WillowConfig


def test_paper_defaults():
    config = WillowConfig()
    assert config.eta1 == 4
    assert config.eta2 == 7
    assert config.consolidation_threshold == 0.20
    assert config.thermal.c1 == 0.08
    assert config.thermal.c2 == 0.05
    assert config.circuit_limit == 450.0


def test_derived_periods():
    config = WillowConfig(delta_d=2.0, eta1=3, eta2=5)
    assert config.delta_s == 6.0
    assert config.delta_a == 10.0


def test_eta_ordering_enforced():
    with pytest.raises(ValueError):
        WillowConfig(eta1=4, eta2=4)
    with pytest.raises(ValueError):
        WillowConfig(eta1=1, eta2=7)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(delta_d=0.0),
        dict(alpha=0.0),
        dict(alpha=1.5),
        dict(p_min=-1.0),
        dict(migration_cost_power=-1.0),
        dict(migration_cost_ticks=-1),
        dict(migration_traffic_factor=-0.1),
        dict(consolidation_threshold=1.0),
        dict(consolidation_threshold=-0.1),
        dict(wake_latency_ticks=-1),
        dict(circuit_limit=0.0),
        dict(thermal_mode="bogus"),
        dict(thermal_window=0.0),
        dict(allocation_mode="bogus"),
    ],
)
def test_validation(kwargs):
    with pytest.raises(ValueError):
        WillowConfig(**kwargs)


@pytest.mark.parametrize(
    "name",
    [
        "delta_d",
        "alpha",
        "p_min",
        "migration_cost_power",
        "migration_traffic_factor",
        "consolidation_threshold",
        "circuit_limit",
        "thermal_window",
    ],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_floats_rejected(name, value):
    """NaN slips through an ``x < 0`` test; every float field refuses
    non-finite values outright."""
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        WillowConfig(**{name: value})


def test_resolved_thermal_window_default_calibration():
    config = WillowConfig()
    window = config.resolved_thermal_window()
    # The calibrated window makes a cool idle node's cap = 450 W.
    from repro.thermal import power_cap

    assert power_cap(config.thermal, 25.0, window) == pytest.approx(450.0)


def test_resolved_thermal_window_override():
    config = WillowConfig(thermal_window=2.5)
    assert config.resolved_thermal_window() == 2.5


def test_frozen():
    config = WillowConfig()
    with pytest.raises(Exception):
        config.eta1 = 9
