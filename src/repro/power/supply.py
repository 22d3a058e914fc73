"""Time-varying power-supply traces.

Willow's whole premise is a *varying* power budget at the root of the
hierarchy: renewable sources, under-provisioned circuits, cooling
deficits.  A :class:`SupplyTrace` maps simulation time to the total
budget available to the data-center PMU.  Constructors reproduce the
paper's experimental profiles:

* :func:`deficit_supply_trace` -- the Fig. 15 energy-deficient pattern
  with deep plunges at chosen instants (the paper's plunges sit at time
  units 7, 12 and 25 with the first persisting until unit 10).
* :func:`plenty_supply_trace` -- the Fig. 19 energy-plenty pattern with
  the mean near the full-utilization draw of all servers (~750 W for
  the 3-server testbed).
* :func:`renewable_supply` -- a solar-like diurnal profile with cloud
  noise, for the renewable-energy examples.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SupplyTrace",
    "constant_supply",
    "step_supply",
    "deficit_supply_trace",
    "plenty_supply_trace",
    "renewable_supply",
]


@dataclass(frozen=True)
class SupplyTrace:
    """Piecewise-constant total power budget over time.

    ``times`` are the start instants of each segment (strictly
    increasing, first entry 0); ``budgets`` the corresponding budgets in
    watts.  The final budget holds forever.
    """

    times: tuple
    budgets: tuple

    def __post_init__(self) -> None:
        if len(self.times) != len(self.budgets):
            raise ValueError("times and budgets must have equal length")
        if not self.times:
            raise ValueError("trace must have at least one segment")
        # NaN slips through ordering comparisons (every comparison with
        # NaN is False), so finiteness is checked explicitly.
        if any(not math.isfinite(t) for t in self.times):
            raise ValueError("times must be finite")
        if any(not math.isfinite(b) for b in self.budgets):
            raise ValueError("budgets must be finite")
        if self.times[0] != 0:
            raise ValueError(f"first segment must start at 0, got {self.times[0]}")
        if any(b < 0 for b in self.budgets):
            raise ValueError("budgets must be non-negative")
        if any(t1 >= t2 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")

    def at(self, time: float) -> float:
        """Budget in force at simulation ``time``."""
        # NaN compares False with 0, so check finiteness explicitly.
        if not math.isfinite(time) or time < 0:
            raise ValueError(f"time must be finite and >= 0, got {time}")
        index = bisect_right(self.times, time) - 1
        return float(self.budgets[index])

    def mean(self, horizon: float) -> float:
        """Time-average budget over ``[0, horizon]``."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return self.mean_between(0.0, horizon)

    def mean_between(self, t0: float, t1: float) -> float:
        """Segment-exact time-average budget over ``[t0, t1]``.

        The final budget holds forever, so the window may extend past
        the last segment start.  A ``t0`` landing exactly on a segment
        boundary reads the segment *starting* there (the same half-open
        convention as :meth:`at`).
        """
        if not math.isfinite(t0) or t0 < 0:
            raise ValueError(f"t0 must be finite and >= 0, got {t0}")
        if not math.isfinite(t1) or t1 <= t0:
            raise ValueError(f"t1 must be finite and > t0, got {t1}")
        index = bisect_right(self.times, t0) - 1
        total = 0.0
        while True:
            seg_end = (
                self.times[index + 1]
                if index + 1 < len(self.times)
                else math.inf
            )
            lo = max(self.times[index], t0)
            hi = min(seg_end, t1)
            if hi > lo:
                total += self.budgets[index] * (hi - lo)
            if seg_end >= t1:
                break
            index += 1
        return total / (t1 - t0)

    def window(self, t0: float, horizon: float) -> "SupplyTrace":
        """The forecast window ``[t0, t0 + horizon)`` re-based to time 0.

        Returns a new :class:`SupplyTrace` whose segment boundaries are
        the clipped originals; the budget in force at ``t0`` becomes the
        first segment.  Receding-horizon planners read this instead of
        the whole trace.
        """
        if not math.isfinite(t0) or t0 < 0:
            raise ValueError(f"t0 must be finite and >= 0, got {t0}")
        if not math.isfinite(horizon) or horizon <= 0:
            raise ValueError(f"horizon must be finite and positive, got {horizon}")
        start = bisect_right(self.times, t0) - 1
        times = [0.0]
        budgets = [self.budgets[start]]
        end = t0 + horizon
        for t, b in zip(self.times[start + 1:], self.budgets[start + 1:]):
            if t >= end:
                break
            times.append(t - t0)
            budgets.append(b)
        return SupplyTrace(tuple(times), tuple(budgets))

    def scaled(self, factor: float) -> "SupplyTrace":
        """A copy with every budget multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return SupplyTrace(self.times, tuple(b * factor for b in self.budgets))

    def series(self, times: Sequence[float]) -> np.ndarray:
        """Vector of budgets sampled at each instant in ``times``.

        One vectorized ``searchsorted`` lookup (the federation planner
        samples every site's trace each supply period), with the same
        finite/``>= 0`` validation as :meth:`at`.
        """
        t = np.asarray(times, dtype=float)
        if t.size == 0:
            return np.empty(0, dtype=float)
        if not np.all(np.isfinite(t)) or np.any(t < 0):
            raise ValueError("times must be finite and >= 0")
        index = np.searchsorted(np.asarray(self.times), t, side="right") - 1
        return np.asarray(self.budgets, dtype=float)[index]


def constant_supply(budget: float) -> SupplyTrace:
    """A flat budget."""
    return SupplyTrace((0.0,), (float(budget),))


def supply_from_csv(path) -> SupplyTrace:
    """Load a trace from CSV with ``time,budget`` rows.

    A single non-numeric header row is tolerated.  Times must start at
    0 and increase strictly, as for :func:`step_supply`.
    """
    import csv as _csv
    from pathlib import Path

    segments = []
    with Path(path).open(newline="") as handle:
        for record in _csv.reader(handle):
            if not record:
                continue
            try:
                segments.append((float(record[0]), float(record[1])))
            except (ValueError, IndexError):
                if segments:
                    raise ValueError(
                        f"malformed row after data began: {record!r}"
                    )
                continue  # header
    if not segments:
        raise ValueError(f"no supply rows found in {path}")
    return step_supply(segments)


def step_supply(segments: Sequence[tuple]) -> SupplyTrace:
    """Build a trace from explicit ``(start_time, budget)`` pairs."""
    times = tuple(float(t) for t, _ in segments)
    budgets = tuple(float(b) for _, b in segments)
    return SupplyTrace(times, budgets)


def deficit_supply_trace(
    nominal: float,
    *,
    plunge_depth: float = 0.45,
    plunges: Sequence[tuple] = ((7.0, 10.0), (12.0, 14.0), (25.0, 27.0)),
    ripple: float = 0.05,
    period: float = 30.0,
    resolution: float = 1.0,
    rng: np.random.Generator | None = None,
) -> SupplyTrace:
    """The Fig. 15 energy-deficient pattern.

    ``nominal`` watts with small ripple, interrupted by deep plunges
    (to ``(1 - plunge_depth) * nominal``) over the given
    ``(start, end)`` windows.  Defaults place plunges at time units
    7-10, 12-14 and 25-27 as read off Fig. 15/16.
    """
    if not 0.0 < plunge_depth < 1.0:
        raise ValueError("plunge_depth must be in (0, 1)")
    if rng is None:
        rng = np.random.default_rng(2011)
    times = np.arange(0.0, period, resolution)
    budgets = np.full(len(times), nominal, dtype=float)
    if ripple > 0:
        budgets *= 1.0 + rng.uniform(-ripple, ripple, size=len(times))
    for start, end in plunges:
        mask = (times >= start) & (times < end)
        budgets[mask] = nominal * (1.0 - plunge_depth)
    return SupplyTrace(tuple(times.tolist()), tuple(budgets.tolist()))


def plenty_supply_trace(
    full_power: float,
    *,
    ripple: float = 0.06,
    period: float = 30.0,
    resolution: float = 1.0,
    rng: np.random.Generator | None = None,
) -> SupplyTrace:
    """The Fig. 19 energy-plenty pattern.

    Mean budget near ``full_power`` (the draw of all servers at 100 %
    utilization; ~750 W for the testbed) with mild variation and no
    sustained deficit.
    """
    if rng is None:
        rng = np.random.default_rng(2019)
    times = np.arange(0.0, period, resolution)
    budgets = full_power * (1.0 + rng.uniform(-ripple, ripple, size=len(times)))
    return SupplyTrace(tuple(times.tolist()), tuple(budgets.tolist()))


def renewable_supply(
    peak: float,
    *,
    base_fraction: float = 0.25,
    day_length: float = 96.0,
    cloud_noise: float = 0.15,
    resolution: float = 1.0,
    days: int = 1,
    phase: float = 0.0,
    rng: np.random.Generator | None = None,
) -> SupplyTrace:
    """A solar-like diurnal budget: grid base plus a sinusoidal solar hump.

    ``base_fraction * peak`` is always available (grid/UPS); the solar
    contribution follows a half-sine over each day with multiplicative
    cloud noise.  ``phase`` shifts the day by that fraction of
    ``day_length`` -- e.g. 0.5 puts a site half a day ahead, which is
    how the federation experiment builds anti-correlated solar across
    longitudes.  Used by the renewable-data-center example.
    """
    if not 0.0 <= base_fraction <= 1.0:
        raise ValueError("base_fraction must be in [0, 1]")
    if not peak >= 0:
        raise ValueError(f"peak must be >= 0, got {peak}")
    if rng is None:
        rng = np.random.default_rng(7)
    times = np.arange(0.0, day_length * days, resolution)
    day_pos = ((times % day_length) / day_length + phase) % 1.0  # 0..1/day
    solar = np.clip(np.sin(np.pi * day_pos), 0.0, None)
    if cloud_noise > 0:
        solar = solar * np.clip(
            1.0 + rng.normal(0.0, cloud_noise, size=len(times)), 0.0, None
        )
    budgets = peak * (base_fraction + (1.0 - base_fraction) * solar)
    return SupplyTrace(tuple(times.tolist()), tuple(budgets.tolist()))
