"""Regression guard for the fused federation hot path (array sites).

Mirrors ``test_bench_hotpath.py``: a fresh quick measurement is
compared against the recorded ``federation`` section of
``BENCH_tick.json`` at the repo root (written by ``python -m repro.cli
bench``).  Tolerances are generous -- CI runners and laptops differ by
integer factors -- so only a genuine regression fails: fused array
sites falling behind scalar site controllers, the steady-state
speedup collapsing below the pinned floor, or an order-of-magnitude
slowdown against the recording.  Skips when no baseline (or an old
baseline without a ``federation`` section) has been recorded.
"""

import json
from pathlib import Path

import pytest

_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_tick.json"

#: A fresh run may be this many times slower than the recorded baseline
#: before we call it a regression (absorbs machine-to-machine spread).
_SLOWDOWN_TOLERANCE = 10.0

#: Pinned floor for the steady-state speedup at 512+ servers.  The
#: recorded headline is ~5-6x; guard well below it so shared-runner
#: noise cannot flake the suite while a real de-vectorization (the
#: fused tick falling back to per-site scalar work) still fails.
_STEADY_SPEEDUP_FLOOR = 2.0


@pytest.fixture(scope="module")
def baseline():
    if not _BASELINE.is_file():
        pytest.skip("no recorded baseline (run: python -m repro.cli bench)")
    payload = json.loads(_BASELINE.read_text())
    if "federation" not in payload:
        pytest.skip("baseline predates the federation suite (re-run bench)")
    section = dict(payload["federation"])
    section["meta"] = payload.get("meta", {})
    return section


@pytest.fixture(scope="module")
def fresh():
    from repro.benchmarks.harness import bench_federation

    return bench_federation(quick=True)


def test_batched_federation_beats_scalar_loop(fresh):
    for row in fresh["scaling"]:
        assert row["speedup"] > 1.0, (
            f"fused federation no longer beats the per-site scalar "
            f"loop ({row['workload']}, n={row['n_servers']}): "
            f"{row['speedup']:.2f}x"
        )


def test_steady_state_speedup_keeps_floor(fresh):
    steady = [r for r in fresh["scaling"] if r["workload"] == "steady"]
    assert steady, "harness stopped emitting steady-state scaling rows"
    for row in steady:
        assert row["speedup"] >= _STEADY_SPEEDUP_FLOOR, (
            f"steady-state speedup at n={row['n_servers']} dropped to "
            f"{row['speedup']:.2f}x (floor {_STEADY_SPEEDUP_FLOOR}x)"
        )


def test_batched_tick_not_regressed_vs_baseline(baseline, fresh):
    recorded = {
        (row["workload"], row["n_servers"]): row["fused_ms_per_tick"]
        for row in baseline.get("scaling", [])
    }
    for row in fresh["scaling"]:
        key = (row["workload"], row["n_servers"])
        if key not in recorded:
            continue
        assert row["fused_ms_per_tick"] <= recorded[key] * _SLOWDOWN_TOLERANCE, (
            f"fused federation tick at {key} is "
            f"{row['fused_ms_per_tick']:.3f} ms vs recorded "
            f"{recorded[key]:.3f} ms (> {_SLOWDOWN_TOLERANCE}x slower)"
        )


def test_recorded_frontier_hits_realtime_at_10k(baseline):
    # The recorded full run must include the 10k-server row and it must
    # have ticked at/faster than realtime (wall <= delta_d).  This pins
    # the scaling story without re-running a 10k build on CI.
    rows = {row["label"]: row for row in baseline.get("frontier", [])}
    ten_k = rows.get("10k_realtime")
    assert ten_k is not None, "baseline frontier lacks the 10k row"
    if baseline.get("meta", {}).get("quick") or ten_k["n_servers"] < 10_000:
        pytest.skip("baseline was recorded quick-sized")
    assert ten_k["realtime_ok"], (
        f"recorded 10k-server federation ticked at "
        f"{ten_k['ms_per_tick']:.0f} ms vs the "
        f"{ten_k['realtime_budget_ms']:.0f} ms realtime budget"
    )


def test_fresh_frontier_row_is_realtime(fresh):
    # Even the quick-sized frontier row (a ~2k-server fused build)
    # must tick far inside the realtime budget on any machine.
    for row in fresh["frontier"]:
        assert row["realtime_ok"], (
            f"frontier row {row['label']} ({row['n_servers']} servers) "
            f"ticked at {row['ms_per_tick']:.0f} ms vs the "
            f"{row['realtime_budget_ms']:.0f} ms budget"
        )
