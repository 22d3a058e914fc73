"""Tests for exponential smoothing (paper Eq. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power import ExponentialSmoother, HoltSmoother, smooth_series


class TestExponentialSmoother:
    def test_first_observation_seeds_state(self):
        smoother = ExponentialSmoother(0.5)
        assert not smoother.primed
        assert smoother.update(10.0) == 10.0
        assert smoother.primed

    def test_eq4_recurrence(self):
        smoother = ExponentialSmoother(0.3, initial=100.0)
        assert smoother.update(50.0) == pytest.approx(0.3 * 50 + 0.7 * 100)

    def test_alpha_one_disables_smoothing(self):
        smoother = ExponentialSmoother(1.0, initial=0.0)
        assert smoother.update(42.0) == 42.0

    def test_value_before_priming_raises(self):
        with pytest.raises(RuntimeError):
            _ = ExponentialSmoother(0.5).value

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_alpha_validated(self, alpha):
        with pytest.raises(ValueError):
            ExponentialSmoother(alpha)

    def test_reset(self):
        smoother = ExponentialSmoother(0.5, initial=5.0)
        smoother.reset()
        assert not smoother.primed
        smoother.reset(initial=9.0)
        assert smoother.value == 9.0

    def test_converges_to_constant_signal(self):
        smoother = ExponentialSmoother(0.4, initial=0.0)
        for _ in range(100):
            smoother.update(77.0)
        assert smoother.value == pytest.approx(77.0, abs=1e-6)

    def test_smooths_variance(self):
        rng = np.random.default_rng(0)
        signal = 100.0 + rng.normal(0, 10, 500)
        smoother = ExponentialSmoother(0.2)
        smoothed = np.array([smoother.update(x) for x in signal])
        assert smoothed[50:].std() < signal[50:].std()


class TestHoltSmoother:
    def test_first_observation_seeds_level(self):
        holt = HoltSmoother(0.5, 0.3)
        assert not holt.primed
        assert holt.update(10.0) == 10.0
        assert holt.primed

    def test_anticipates_a_ramp(self):
        # On a steady ramp, Holt's forecast overtakes plain smoothing,
        # which always lags.
        holt = HoltSmoother(0.5, 0.5)
        plain = ExponentialSmoother(0.5)
        signal = list(range(1, 30))
        for x in signal:
            holt.update(float(x))
            plain.update(float(x))
        assert holt.value > plain.value
        assert holt.value == pytest.approx(signal[-1] + 1, abs=1.0)

    def test_converges_on_constant_signal(self):
        holt = HoltSmoother(0.4, 0.4)
        for _ in range(200):
            holt.update(50.0)
        assert holt.value == pytest.approx(50.0, abs=1e-6)

    def test_value_before_priming_raises(self):
        with pytest.raises(RuntimeError):
            _ = HoltSmoother(0.5, 0.5).value

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.5), (0.5, 0.0), (1.5, 0.5)])
    def test_weights_validated(self, alpha, beta):
        with pytest.raises(ValueError):
            HoltSmoother(alpha, beta)

    def test_reset(self):
        holt = HoltSmoother(0.5, 0.5)
        holt.update(10.0)
        holt.update(20.0)
        holt.reset(initial=5.0)
        assert holt.value == 5.0  # trend cleared


class TestSmoothSeries:
    def test_matches_stateful_smoother(self):
        values = [3.0, 7.0, 1.0, 9.0, 4.0]
        vectorised = smooth_series(values, 0.6)
        smoother = ExponentialSmoother(0.6)
        stateful = [smoother.update(v) for v in values]
        assert np.allclose(vectorised, stateful)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            smooth_series([], 0.5)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            smooth_series([1.0], 0.0)


class TestSmoothLanes:
    """The one array Eq. 4 kernel equals independent scalar smoothers."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_lanes_match_scalar_smoothers_bit_for_bit(self, data):
        from repro.power.smoothing import smooth_lanes

        n = data.draw(st.integers(1, 8), label="lanes")
        ticks = data.draw(st.integers(1, 6), label="ticks")
        unit = st.floats(0.01, 1.0)
        watts = st.floats(0.0, 1e4)
        alphas = data.draw(st.lists(unit, min_size=n, max_size=n))
        starts = data.draw(
            st.lists(st.none() | watts, min_size=n, max_size=n)
        )
        scalars = [ExponentialSmoother(a, s) for a, s in zip(alphas, starts)]
        values = np.array([0.0 if s is None else s for s in starts])
        primed = np.array([s is not None for s in starts])
        for _ in range(ticks):
            obs = data.draw(st.lists(watts, min_size=n, max_size=n))
            mask = data.draw(
                st.none() | st.lists(st.booleans(), min_size=n, max_size=n)
            )
            out = smooth_lanes(
                values, primed, np.array(alphas), np.array(obs),
                None if mask is None else np.array(mask),
            )
            assert out is values
            for i, smoother in enumerate(scalars):
                if mask is None or mask[i]:
                    smoother.update(obs[i])
                assert bool(primed[i]) == smoother.primed
                if smoother.primed:
                    assert values[i] == smoother.value
