"""Exponential demand smoothing (paper Eq. 4).

"Although it is possible to use sophisticated ARIMA type of models, a
simple exponential smoothing is often adequate":

    CP'_{l,i} = alpha * CP_{l,i} + (1 - alpha) * CP'^{old}_{l,i}
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "ExponentialSmoother",
    "smooth_lanes",
    "smooth_series",
]


class ExponentialSmoother:
    """Stateful exponential smoother for one demand signal.

    Parameters
    ----------
    alpha:
        Smoothing weight in (0, 1]; 1 disables smoothing.  The paper
        requires ``0 < alpha < 1``; we additionally allow 1 so the
        smoother can be turned off in ablations.
    initial:
        Starting smoothed value; if omitted, the first observation
        initialises the state (avoiding a cold-start transient).
    """

    def __init__(self, alpha: float, initial: float | None = None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self._value: float | None = None if initial is None else float(initial)

    @property
    def value(self) -> float:
        """Current smoothed value."""
        if self._value is None:
            raise RuntimeError("smoother has not observed any value yet")
        return self._value

    @property
    def primed(self) -> bool:
        """True once at least one observation has been absorbed."""
        return self._value is not None

    def update(self, observation: float) -> float:
        """Absorb one observation and return the new smoothed value."""
        if self._value is None:
            self._value = float(observation)
        else:
            self._value = (
                self.alpha * float(observation) + (1.0 - self.alpha) * self._value
            )
        return self._value

    def reset(self, initial: float | None = None) -> None:
        self._value = None if initial is None else float(initial)


class HoltSmoother:
    """Double exponential (Holt) smoothing: level plus linear trend.

    The paper notes "it is possible to use sophisticated ARIMA type of
    models" for demand trending; Holt's method is the simplest member
    of that family that can *anticipate* a ramp instead of lagging it.
    Used by the smoothing ablation; plain Eq. 4 smoothing remains the
    default.

    Parameters
    ----------
    alpha:
        Level smoothing weight in (0, 1].
    beta:
        Trend smoothing weight in (0, 1].
    """

    def __init__(self, alpha: float, beta: float):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self._level: float | None = None
        self._trend: float = 0.0

    @property
    def primed(self) -> bool:
        return self._level is not None

    @property
    def value(self) -> float:
        """Current one-step-ahead forecast (level + trend)."""
        if self._level is None:
            raise RuntimeError("smoother has not observed any value yet")
        return self._level + self._trend

    def update(self, observation: float) -> float:
        """Absorb one observation; return the new one-step forecast."""
        observation = float(observation)
        if self._level is None:
            self._level = observation
            self._trend = 0.0
            return self.value
        previous_level = self._level
        self._level = self.alpha * observation + (1.0 - self.alpha) * (
            previous_level + self._trend
        )
        self._trend = (
            self.beta * (self._level - previous_level)
            + (1.0 - self.beta) * self._trend
        )
        return self.value

    def reset(self, initial: float | None = None) -> None:
        self._level = None if initial is None else float(initial)
        self._trend = 0.0


def smooth_lanes(
    values: np.ndarray,
    primed: np.ndarray,
    alpha,
    observations: np.ndarray,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Eq. 4 for many signals in one array op: the one array kernel.

    Each lane advances like its own :class:`ExponentialSmoother`: the
    same IEEE-754 expression ``alpha * obs + (1 - alpha) * value``
    elementwise, with ``alpha`` a scalar or one weight per lane, so
    every lane's sequence is bit-identical to a scalar smoother fed the
    same observations.  An unprimed lane is seeded by its first
    observation, exactly like the scalar cold-start rule.  ``mask``
    selects the lanes that absorb this tick (None = all); the others
    keep their value and primed state.

    ``values`` and ``primed`` are updated strictly in place and
    returned, so callers may pass views into a larger block (the
    federation block in :class:`~repro.core.fleet.FederationFleet`)
    without the update detaching them.
    """
    smoothed = alpha * observations + (1.0 - alpha) * values
    fresh = np.where(primed, smoothed, observations)
    if mask is None:
        values[...] = fresh
        primed[...] = True
    else:
        np.copyto(values, fresh, where=mask)
        primed |= mask
    return values


def smooth_series(values: Sequence[float], alpha: float) -> np.ndarray:
    """Vectorised smoothing of a whole series (first value seeds state)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) == 0:
        raise ValueError("values must be a non-empty 1-D sequence")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    out = np.empty_like(values)
    out[0] = values[0]
    for i in range(1, len(values)):
        out[i] = alpha * values[i] + (1.0 - alpha) * out[i - 1]
    return out
