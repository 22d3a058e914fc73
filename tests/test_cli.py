"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import SUBCOMMANDS, main


def test_default_run(capsys):
    assert main(["--ticks", "5"]) == 0
    out = capsys.readouterr().out
    assert "18 servers" in out
    assert "fleet power" in out


def test_hot_zone_flag(capsys):
    assert main(["--ticks", "5", "--hot", "4"]) == 0
    assert "hot zone on last 4" in capsys.readouterr().out


def test_custom_branching(capsys):
    assert main(["--ticks", "3", "--branching", "3,3"]) == 0
    assert "9 servers" in capsys.readouterr().out


def test_supply_dip_runs(capsys):
    assert main(
        ["--ticks", "12", "--supply-dip", "0.4", "--dip-at", "6"]
    ) == 0


def test_export_json(tmp_path, capsys):
    target = tmp_path / "run.json"
    assert main(["--ticks", "4", "--export-json", str(target)]) == 0
    document = json.loads(target.read_text())
    assert len(document["servers"]) == 4 * 18


def test_export_csv(tmp_path, capsys):
    assert main(["--ticks", "4", "--export-csv", str(tmp_path)]) == 0
    assert (tmp_path / "servers.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--utilization", "0"],
        ["--utilization", "1.5"],
        ["--ticks", "0"],
        ["--supply-dip", "1.0"],
        ["--branching", "3,x"],
        ["--hot", "99"],
    ],
)
def test_invalid_arguments_rejected(argv, capsys):
    assert main(argv) == 2


def test_degraded_subcommand(capsys):
    assert main(
        ["degraded", "--ticks", "8", "--drop", "0.1", "--latency", "1",
         "--crashes", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "transport stats" in out
    assert "divergence vs ideal controller" in out
    assert "thermal safety" in out
    assert "VIOLATED" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["degraded", "--drop", "1.5"],
        ["degraded", "--ticks", "0"],
        ["degraded", "--utilization", "0"],
        ["degraded", "--latency", "-1"],
    ],
)
def test_degraded_invalid_arguments_rejected(argv, capsys):
    assert main(argv) == 2


def test_thermal_time_to_limit_exposed():
    # The CLI story relies on the calibrated window; sanity-check the
    # new thermal utility agrees with it end to end.
    from repro.core import WillowConfig
    from repro.thermal import ThermalParams, time_to_limit

    config = WillowConfig()
    window = config.resolved_thermal_window()
    t = time_to_limit(ThermalParams(), 25.0, 450.0)
    assert t == pytest.approx(window, rel=1e-9)


def test_time_to_limit_properties():
    import numpy as np

    from repro.thermal import ThermalParams, temperature_after, time_to_limit

    params = ThermalParams()
    # Monotone: more power, less time.
    times = time_to_limit(params, 30.0, np.array([100.0, 200.0, 400.0]))
    finite = times[np.isfinite(times)]
    assert np.all(np.diff(finite) < 0)
    # Inversion: T(time_to_limit) == T_limit when finite.
    t = time_to_limit(params, 30.0, 400.0)
    assert temperature_after(params, 30.0, 400.0, t) == pytest.approx(70.0)
    # Sustainable power never reaches the limit.
    assert time_to_limit(params, 30.0, 10.0) == float("inf")
    # Already over the limit.
    assert time_to_limit(params, 75.0, 100.0) == 0.0
    with pytest.raises(ValueError):
        time_to_limit(params, 25.0, -1.0)


def test_supply_csv_option(tmp_path, capsys):
    csv_path = tmp_path / "supply.csv"
    csv_path.write_text("time,budget\n0,8100\n5,4000\n")
    assert main(["--ticks", "10", "--supply-csv", str(csv_path)]) == 0


def test_supply_csv_missing_file(tmp_path, capsys):
    assert main(["--ticks", "3", "--supply-csv", str(tmp_path / "nope.csv")]) == 2


def test_version_flag(capsys):
    import re

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert re.match(r"repro \d+\.\d+\.\d+", out)


def test_battery_flag_runs(capsys):
    assert main(["--ticks", "8", "--battery", "500:100"]) == 0
    assert "fleet power" in capsys.readouterr().out


@pytest.mark.parametrize(
    "spec", ["", "abc", "10:-1", "-5", "1:2:3", "0"]
)
def test_battery_flag_rejects_bad_specs(spec, capsys):
    assert main(["--ticks", "5", "--battery", spec]) == 2
    assert "battery" in capsys.readouterr().err.lower()


# ------------------------------------------------------- usage-error contract
_FORECASTS = "['ar1', 'noisy-oracle', 'oracle', 'persistence']"
_NOT_FORECAST_AWARE = (
    "needs a forecast-aware policy (predictive); 'proportional' ignores it"
)

#: Every usage error reachable from argv alone: ``(argv, stderr line)``.
#: ``{tmp}`` stands for a fresh empty directory.
USAGE_ERRORS = [
    (["--utilization", "0"], "--utilization must be in (0, 1]"),
    (["--utilization", "1.5"], "--utilization must be in (0, 1]"),
    (["--ticks", "0"], "--ticks must be >= 1"),
    (["--supply-dip", "1.0"], "--supply-dip must be in [0, 1)"),
    (["--branching", "3,x"], "--branching must be comma-separated ints"),
    (["--branching", "0,3"], "--branching factors must be >= 1"),
    (["--hot", "99"], "--hot exceeds server count"),
    (["--hot", "-2"], "--hot must be >= 0"),
    (["--p-min", "-5"], "--p-min: p_min must be >= 0, got -5.0"),
    (["--p-min", "nan"], "--p-min: p_min must be finite, got nan"),
    (["--p-min", "inf"], "--p-min: p_min must be finite, got inf"),
    (["--supply-dip", "0.5", "--dip-at", "-3"], "--dip-at must be >= 1"),
    (["--supply-dip", "0.5", "--dip-at", "0"], "--dip-at must be >= 1"),
    (["--supply-factor", "-1"],
     "--supply-factor: budgets must be non-negative"),
    (["--battery", "abc"],
     "--battery: battery spec must be CAPACITY[:RATE], got 'abc'"),
    (["--battery", "0"],
     "--battery: battery capacity/rate must be positive, got '0'"),
    (["--supply-csv", "{tmp}/nope.csv"],
     "--supply-csv: [Errno 2] No such file or directory: '{tmp}/nope.csv'"),
    (["bench", "--sizes", "1,x"], "--sizes must be comma-separated ints"),
    (["bench", "--sizes", "7"], "--sizes must be from [18, 64, 256], got [7]"),
    (["bench", "--profile", "{tmp}/no/p.prof"],
     "--profile: directory {tmp}/no does not exist "
     "(create it first, or check the path)"),
    (["degraded", "--utilization", "0"], "--utilization must be in (0, 1]"),
    (["degraded", "--ticks", "0"], "--ticks must be >= 1"),
    (["degraded", "--drop", "1.5"], "--drop must be in [0, 1)"),
    (["degraded", "--dup", "-0.1"], "--dup must be in [0, 1)"),
    (["degraded", "--reorder", "1"], "--reorder must be in [0, 1)"),
    (["degraded", "--latency", "-1"], "--latency/--jitter must be >= 0"),
    (["degraded", "--jitter", "-1"], "--latency/--jitter must be >= 0"),
    (["degraded", "--crashes", "-1"], "--crashes/--partitions must be >= 0"),
    (["degraded", "--partitions", "-1"],
     "--crashes/--partitions must be >= 0"),
    (["degraded", "--ttl", "-1"], "--ttl: ttl_ticks must be >= 1 (or None)"),
    (["resilience", "--utilization", "1.5"],
     "--utilization must be in (0, 1]"),
    (["resilience", "--ticks", "0"], "--ticks must be >= 1"),
    (["resilience", "--crashes", "-1"], "--crashes must be >= 0"),
    (["resilience", "--sensor-faults", "-1"], "--sensor-faults must be >= 0"),
    (["resilience", "--cooling-events", "-1"],
     "--cooling-events must be >= 0"),
    (["resilience", "--trips", "-1"], "--trips must be >= 0"),
    (["resilience", "--outside", "nan"],
     "--outside: outside_temp must be finite, got nan"),
    (["federation", "--sites", "0"], "--sites must be >= 1"),
    (["federation", "--ticks", "0"], "--ticks must be >= 1"),
    (["federation", "--utilization", "0"], "--utilization must be in (0, 1]"),
    (["federation", "--horizon", "-1"], "--horizon must be >= 0"),
    (["federation", "--cooling", "--vectorized"],
     "--cooling is incompatible with --vectorized"),
    (["federation", "--policy", "nope"],
     "--policy must be one of greedy-greenest, neutral, predictive, "
     "price-aware, proportional"),
    (["federation", "--horizon", "2"], "--horizon " + _NOT_FORECAST_AWARE),
    (["federation", "--cooling"], "--cooling " + _NOT_FORECAST_AWARE),
    (["federation", "--forecast", "nope"],
     f"--forecast: unknown forecast model 'nope'; choose from {_FORECASTS}"),
    (["federation", "--battery", "abc"],
     "--battery: battery spec must be CAPACITY[:RATE], got 'abc'"),
    (["federation", "--solar-peak", "0"], "--solar-peak must be > 0"),
    (["federation", "--solar-peak", "-5"], "--solar-peak must be > 0"),
    (["federation", "--wan-cost", "-5"], "--wan-cost must be >= 0"),
    (["federation", "--wan-ticks", "-1"], "--wan-ticks must be >= 0"),
    (["federation", "--policy", "predictive", "--horizon", "2", "--cooling",
      "--outside-temp", "nan"],
     "--outside-temp: outside_temp must be finite, got nan"),
    (["trace", "{tmp}/nope.trace"],
     "trace: no trace segments found for {tmp}/nope.trace"),
    (["serve", "{tmp}/a.jsonl", "--ticks", "0"], "--ticks must be >= 1"),
    (["serve", "{tmp}/a.jsonl", "--tick-seconds", "0"],
     "--tick-seconds must be positive"),
    (["serve", "{tmp}/a.jsonl", "--queue-bound", "0"],
     "--queue-bound must be >= 1"),
    (["serve", "{tmp}/a.jsonl", "--load", "0"],
     "--load needs a positive count and the TCP server (drop --no-listen)"),
    (["serve", "{tmp}/a.jsonl", "--load", "5", "--no-listen"],
     "--load needs a positive count and the TCP server (drop --no-listen)"),
    (["serve", "{tmp}/a.jsonl", "--checkpoint-every", "0"],
     "--checkpoint-every must be >= 1"),
    (["serve", "{tmp}/a.jsonl", "--checkpoint-every", "4"],
     "--checkpoint-every needs --checkpoint-dir"),
    (["serve", "{tmp}/no/a.jsonl"],
     "audit path: directory {tmp}/no does not exist "
     "(create it first, or check the path)"),
    (["serve", "{tmp}/a.jsonl", "--branching", "3,x"],
     "--branching must be comma-separated ints"),
    (["serve", "{tmp}/a.jsonl", "--branching", "0,3"],
     "--branching factors must be >= 1"),
    (["serve", "{tmp}/a.jsonl", "--utilization", "0"],
     "serve: utilization must be in (0, 1]"),
    (["serve", "{tmp}/a.jsonl", "--supply-factor", "-1"],
     "serve: supply_factor must be positive"),
    (["serve", "{tmp}/a.jsonl", "--vms-per-server", "-1"],
     "serve: vms_per_server must be >= 0"),
    (["serve", "{tmp}/a.jsonl", "--outside", "nan"],
     "serve: outside_temp must be finite, got nan"),
    (["serve", "{tmp}/a.jsonl", "--port", "99999"],
     "--port must be in 0-65535"),
    (["serve", "{tmp}/a.jsonl", "--port", "-1"],
     "--port must be in 0-65535"),
    (["serve", "{tmp}/a.jsonl", "--load", "5", "--vms-per-server", "0"],
     "--load needs an initial fleet (--vms-per-server > 0)"),
    (["serve", "{tmp}/a.jsonl", "--recover"],
     "serve --recover: no audit log found at {tmp}/a.jsonl"),
    (["replay", "{tmp}/a.jsonl"], "replay: no audit log found at {tmp}/a.jsonl"),
    (["checkpoint", "{tmp}/c", "--ticks", "0"], "--ticks must be >= 1"),
    (["checkpoint", "{tmp}/c", "--every", "0"], "--every must be >= 1"),
    (["checkpoint", "{tmp}/c", "--utilization", "2.0"],
     "--utilization must be in (0, 1]"),
    (["checkpoint", "{tmp}/c", "--branching", "a,b"],
     "--branching must be comma-separated ints"),
    (["checkpoint", "{tmp}/c", "--branching", "0,3"],
     "--branching factors must be >= 1"),
    (["checkpoint", "{tmp}/c", "--supply-factor", "-1"],
     "--supply-factor: budgets must be non-negative"),
    (["checkpoint", "{tmp}/c", "--vms-per-server", "0"],
     "--vms-per-server must be >= 1"),
    (["checkpoint", "{tmp}/c", "--keep", "0"], "--keep: keep must be >= 1, got 0"),
    (["resume", "{tmp}/c"],
     "resume: {tmp}/c is not a directory "
     "(run 'python -m repro.cli checkpoint {tmp}/c' first?)"),
    (["resume", "{tmp}"], "resume: no valid checkpoint found in {tmp}"),
    (["gym", "--sites", "0"], "--sites must be >= 1"),
    (["gym", "--windows", "0"], "--windows must be >= 1"),
    (["gym", "--horizon", "-1"], "--horizon must be >= 0"),
    (["gym", "--iterations", "0"], "--iterations must be >= 1"),
    (["gym", "--population", "1"], "--population must be >= 2"),
    (["gym", "--episodes", "0"], "--episodes must be >= 1"),
    (["gym", "--utilization", "0"], "--utilization must be in (0, 1]"),
    (["gym", "--battery", "-1"], "--battery must be >= 0"),
    (["gym", "--forecast", "nope"],
     f"--forecast: unknown forecast model 'nope'; choose from {_FORECASTS}"),
]


@pytest.mark.parametrize(
    "argv, message", USAGE_ERRORS, ids=[" ".join(a) for a, _ in USAGE_ERRORS]
)
def test_usage_error_is_one_stderr_line(argv, message, tmp_path, capsys):
    tmp = str(tmp_path)
    assert main([arg.format(tmp=tmp) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message.format(tmp=tmp) + "\n"


@pytest.mark.parametrize("command", [[]] + [[name] for name in SUBCOMMANDS])
def test_every_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(command + ["--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: python -m repro.cli")


def test_serve_imports_only_the_serve_path(tmp_path):
    """``serve`` start-up time counts every import: it must not load
    the federation, gym, control-plane or benchmark code."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import sys\n"
        "from repro.cli import serve_main\n"
        "code = serve_main([sys.argv[1], '--ticks', '1', '--no-listen',\n"
        "                   '--tick-seconds', '0.01'])\n"
        "assert code == 0, code\n"
        "print(' '.join(sorted({m.split('.')[1] for m in sys.modules\n"
        "                       if m.startswith('repro.')})))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "audit.jsonl")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    imported = set(done.stdout.splitlines()[-1].split())
    assert imported <= {
        "binpack", "checkpoint", "cli", "cooling", "core", "metrics",
        "plant_faults", "power", "service", "sim", "thermal", "topology",
        "trace", "workload",
    }
