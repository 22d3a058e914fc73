"""Regression guard for tracing overhead.

The observability layer's cost contract (``docs/observability.md``):
with tracing disabled (the default), the per-tick cost is a handful of
``tracer.enabled`` attribute checks -- bounded here at <= 2% of a tick.

Wall-clock A/B runs cannot resolve a sub-percent delta on a noisy CI
runner, so the disabled bound uses the deterministic model from
:func:`repro.benchmarks.harness.bench_trace`: measured nanoseconds per
guard check times the per-tick record count of an enabled run (itself
an upper bound on guarded sites), as a fraction of the traced-off tick.
The enabled modes get generous wall-clock bounds like the hot-path
guard in ``test_bench_hotpath.py``, on the median of per-pair ratios of
runs advanced in lock step (15 windows of 4 ticks each).
"""

import json
from pathlib import Path

import pytest

_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_tick.json"

#: The cost contract for the default (tracing off) configuration.
_DISABLED_OVERHEAD_PCT = 2.0

#: Enabled tracing may be slow, just not catastrophic: the null sink
#: (frame building alone) within half a tick, the full JSONL sink
#: within one extra tick of work.
_NULL_SINK_OVERHEAD_PCT = 50.0
_JSONL_OVERHEAD_PCT = 100.0


@pytest.fixture(scope="module")
def fresh():
    from repro.benchmarks.harness import bench_trace

    rows = bench_trace(ticks=60)
    return {row["mode"]: row for row in rows}


def test_disabled_tracing_within_two_percent(fresh):
    model = fresh["disabled_guard_model"]
    assert model["overhead_pct"] <= _DISABLED_OVERHEAD_PCT, (
        f"disabled tracing models to {model['overhead_pct']:.2f}% of a "
        f"tick ({model['guard_ns_per_site']:.0f} ns/site x "
        f"{model['sites_per_tick']:.0f} sites/tick); the guard structure "
        f"has regressed (unguarded record calls on the hot path?)"
    )


def test_guard_model_inputs_are_sane(fresh):
    model = fresh["disabled_guard_model"]
    # At 64 servers a tick emits at least one demand record per server;
    # if this collapses the model is no longer counting real sites.
    assert model["sites_per_tick"] >= 64
    assert 0.0 < model["guard_ns_per_site"] < 1000.0


def test_enabled_tracing_cost_bounded(fresh):
    assert fresh["null_sink"]["overhead_pct"] <= _NULL_SINK_OVERHEAD_PCT
    assert fresh["jsonl"]["overhead_pct"] <= _JSONL_OVERHEAD_PCT
    # The JSONL sink must actually have written frames.
    assert fresh["jsonl"]["bytes_per_tick"] > 0


def test_trace_baseline_not_regressed(fresh):
    if not _BASELINE.is_file():
        pytest.skip("no recorded baseline (run: python -m repro.cli bench)")
    baseline = json.loads(_BASELINE.read_text())
    recorded = {row["mode"]: row for row in baseline.get("trace", [])}
    if "disabled_guard_model" not in recorded:
        pytest.skip("recorded baseline predates the trace suite")
    # The recorded model must honour the same contract CI enforces.
    assert (
        recorded["disabled_guard_model"]["overhead_pct"]
        <= _DISABLED_OVERHEAD_PCT
    )
