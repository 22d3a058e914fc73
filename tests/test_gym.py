"""Tests for the gym environment and learned schedulers (:mod:`repro.gym`).

The load-bearing contracts:

* determinism -- same seed, same episode, bit for bit;
* feasibility -- no projected action ever exceeds a donor's headroom
  or a source's own demand (property-based);
* transfer -- a policy learned in the env makes *identical* decisions
  when registered and run through the normal federation coordinator,
  so the env adds observation plumbing, not alternative physics.
"""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.errors import CheckpointError
from repro.federation import POLICIES, run_federation
from repro.federation.policies import SiteStatus
from repro.gym import (
    BanditAgent,
    CEMAgent,
    GymConfig,
    LearnedPolicy,
    RewardWeights,
    WillowFedEnv,
    linear_policy_fn,
    linear_shift_matrix,
    matrix_to_transfers,
    project_shift_matrix,
)

THETA = (1.4, 0.3)


def rollout_digest(env, theta=THETA, seed=5):
    """SHA-256 over every observation and reward of one episode."""
    agent = CEMAgent()
    obs, info = env.reset(seed=seed)
    sha = hashlib.sha256()
    sha.update(obs.tobytes())
    truncated = False
    while not truncated:
        obs, reward, terminated, truncated, info = env.step(
            agent.act(info, theta)
        )
        assert not terminated
        sha.update(obs.tobytes())
        sha.update(np.float64(reward).tobytes())
    return sha.hexdigest()


class TestDeterminism:
    def test_same_seed_episodes_bit_identical(self):
        config = GymConfig(windows=8)
        assert rollout_digest(WillowFedEnv(config)) == rollout_digest(
            WillowFedEnv(config)
        )

    def test_reset_after_steps_restarts_cleanly(self):
        """A mid-episode reset reproduces the fresh-env episode."""
        config = GymConfig(windows=8)
        env = WillowFedEnv(config)
        _obs, info = env.reset(seed=5)
        for _ in range(3):
            env.step(CEMAgent().act(info, THETA))
        assert rollout_digest(env) == rollout_digest(WillowFedEnv(config))

    def test_seedless_resets_advance_episodes(self):
        env = WillowFedEnv(GymConfig(windows=8))
        _obs, info1 = env.reset(seed=5)
        _obs, info2 = env.reset()
        assert info1["site_seed"] != info2["site_seed"]

    def test_observation_matches_space(self):
        env = WillowFedEnv(GymConfig(windows=4))
        obs, _info = env.reset(seed=0)
        assert obs.shape == env.observation_space.shape
        assert obs.dtype == np.float64
        assert env.observation_space.contains(obs)


def status_lists(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    statuses = []
    for i in range(n):
        supply = draw(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
        )
        demand = draw(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
        )
        statuses.append(
            SiteStatus(
                name=f"site{i}",
                supply=supply,
                smoothed_demand=demand,
                carbon=1.0,
                price=1.0,
            )
        )
    return statuses


@st.composite
def projection_cases(draw):
    statuses = status_lists(draw)
    n = len(statuses)
    matrix = draw(
        st.lists(
            st.lists(
                st.floats(
                    min_value=-1e3, max_value=1e5, allow_nan=False
                ),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    )
    margin = draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    return statuses, matrix, margin


class TestProjection:
    @settings(max_examples=200, deadline=None)
    @given(projection_cases())
    def test_projection_is_always_feasible(self, case):
        """Inflow never exceeds donor headroom; outflow never exceeds
        the source's own demand; entries stay non-negative, diagonal
        zero."""
        statuses, matrix, margin = case
        out = project_shift_matrix(statuses, matrix, margin)
        tol = 1e-9 + 1e-12 * np.abs(out).sum()
        assert (out >= 0.0).all()
        assert np.diagonal(out).sum() == 0.0
        for i, status in enumerate(statuses):
            assert out[i].sum() <= max(status.smoothed_demand, 0.0) + tol
            donatable = max(status.headroom - margin, 0.0)
            assert out[:, i].sum() <= donatable + tol

    def test_projection_rejects_wrong_shape(self):
        statuses = [
            SiteStatus("a", 10.0, 5.0, 1.0, 1.0),
            SiteStatus("b", 10.0, 5.0, 1.0, 1.0),
        ]
        with pytest.raises(ValueError, match="shape"):
            project_shift_matrix(statuses, np.zeros((3, 3)), 0.0)

    def test_proportional_matrix_passes_through_unchanged(self):
        """The waterfall's own output is a fixed point of the
        projection, which is what makes theta=[1,0] exact."""
        statuses = [
            SiteStatus("a", 100.0, 900.0, 1.0, 1.0),
            SiteStatus("b", 1000.0, 400.0, 1.0, 1.0),
            SiteStatus("c", 800.0, 500.0, 1.0, 1.0),
        ]
        matrix = linear_shift_matrix(statuses, None, (1.0, 0.0), 10.0)
        projected = project_shift_matrix(statuses, matrix, 10.0)
        np.testing.assert_array_equal(matrix, projected)

    def test_transfer_lowering_matches_proportional(self):
        statuses = [
            SiteStatus("a", 100.0, 900.0, 1.0, 1.0),
            SiteStatus("b", 1000.0, 400.0, 1.0, 1.0),
            SiteStatus("c", 800.0, 500.0, 1.0, 1.0),
        ]
        matrix = linear_shift_matrix(statuses, None, (1.0, 0.0), 10.0)
        assert matrix_to_transfers(statuses, matrix) == POLICIES[
            "proportional"
        ](statuses, margin=10.0)


class TestRoundTrip:
    def test_theta_one_zero_reproduces_proportional(self):
        """An env episode driven by gains [1, 0] executes the exact
        transfer schedule run_federation produces under proportional."""
        config = GymConfig(windows=10)
        env = WillowFedEnv(config)
        agent = CEMAgent()
        _obs, info = env.reset(seed=0)
        truncated = False
        while not truncated:
            _o, _r, _t, truncated, info = env.step(agent.act(info, (1.0, 0.0)))
        reference = run_federation(
            env.episode_specs(),
            n_ticks=env.n_ticks,
            policy="proportional",
            margin=config.margin,
        )
        assert env.coordinator.transfer_log == reference.transfer_log

    def test_learned_policy_round_trips_through_run_federation(self):
        """The same theta, run via LearnedPolicy under the planner,
        makes bit-identical decisions to the env rollout."""
        config = GymConfig(windows=10)
        env = WillowFedEnv(config)
        agent = CEMAgent()
        _obs, info = env.reset(seed=0)
        truncated = False
        while not truncated:
            _o, _r, _t, truncated, info = env.step(agent.act(info, THETA))
        learned = LearnedPolicy(linear_policy_fn(THETA), name="cem-test")
        reference = run_federation(
            env.episode_specs(),
            n_ticks=env.n_ticks,
            policy=learned,
            horizon=config.horizon,
            margin=config.margin,
            forecast=config.forecast,
        )
        assert env.coordinator.transfer_log == reference.transfer_log

    def test_learned_policy_registry_round_trip(self):
        before = set(POLICIES)
        learned = LearnedPolicy(linear_policy_fn(THETA), name="cem-test")
        with learned:
            assert POLICIES["cem-test"] is learned
            assert learned.forecast_aware
        assert set(POLICIES) == before

    def test_register_refuses_shadowing(self):
        learned = LearnedPolicy(linear_policy_fn(THETA), name="proportional")
        with pytest.raises(ValueError, match="already registered"):
            learned.register()
        assert POLICIES["proportional"].policy_name == "proportional"

    def test_policy_mode_arm_matches_run_federation(self):
        config = GymConfig(windows=8, action_mode="policy")
        env = WillowFedEnv(config)
        env.reset(seed=0)
        arm = config.policy_arms.index("proportional")
        truncated = False
        while not truncated:
            _o, _r, _t, truncated, _i = env.step(arm)
        reference = run_federation(
            env.episode_specs(),
            n_ticks=env.n_ticks,
            policy="proportional",
            margin=config.margin,
        )
        assert env.coordinator.transfer_log == reference.transfer_log


class TestCheckpoint:
    @staticmethod
    def _mid_episode_parity(config):
        agent = CEMAgent()

        def finish(env, info):
            sha = hashlib.sha256()
            truncated = False
            while not truncated:
                obs, reward, _t, truncated, info = env.step(
                    agent.act(info, THETA)
                )
                sha.update(obs.tobytes())
                sha.update(np.float64(reward).tobytes())
            return sha.hexdigest()

        env = WillowFedEnv(config)
        _obs, info = env.reset(seed=3)
        for _ in range(4):
            _o, _r, _t, _tr, info = env.step(agent.act(info, THETA))
        # Snapshots hold live object references (the checkpoint layer
        # pickles them as one payload); serialize so the twin gets its
        # own state, exactly like a checkpoint/restore cycle.
        snapshot = pickle.loads(pickle.dumps(env.snapshot_state()))

        twin = WillowFedEnv(config)
        twin.restore_state(snapshot)
        assert finish(twin, twin._info()) == finish(env, info)
        return env

    def test_snapshot_restore_mid_episode_digest_parity(self):
        self._mid_episode_parity(GymConfig(windows=10))

    def test_snapshot_restore_mid_episode_digest_parity_vectorized(self):
        """The array path checkpoints too: its sites tick fused."""
        env = self._mid_episode_parity(GymConfig(windows=10, vectorized=True))
        assert env.coordinator.segments

    def test_restore_rejects_foreign_snapshot(self):
        env = WillowFedEnv(GymConfig(windows=4))
        with pytest.raises(CheckpointError, match="snapshot is for"):
            env.restore_state({"env": "SomethingElse"})


class TestRewardAndValidation:
    def test_reward_vector_components_are_costs(self):
        env = WillowFedEnv(GymConfig(windows=4))
        _obs, info = env.reset(seed=0)
        _o, reward, _t, _tr, info = env.step(
            CEMAgent().act(info, (1.0, 0.0))
        )
        vector = info["reward_vector"]
        assert set(vector) == {
            "dropped",
            "energy",
            "carbon",
            "wan_energy",
            "violations",
        }
        assert all(value >= 0.0 for value in vector.values())
        assert reward == GymConfig().weights.scalarize(vector)
        assert reward <= 0.0

    def test_custom_weights_change_scalarization(self):
        weights = RewardWeights(dropped=2.0, energy=1.0)
        vector = {
            "dropped": 3.0,
            "energy": 5.0,
            "carbon": 0.0,
            "wan_energy": 0.0,
            "violations": 0.0,
        }
        assert weights.scalarize(vector) == -(2.0 * 3.0 + 1.0 * 5.0)

    def test_step_without_reset_raises(self):
        env = WillowFedEnv(GymConfig(windows=4))
        with pytest.raises(RuntimeError, match="reset"):
            env.step(np.zeros((2, 2)))

    def test_step_past_truncation_raises(self):
        env = WillowFedEnv(GymConfig(windows=1))
        _obs, info = env.reset(seed=0)
        _o, _r, _t, truncated, _i = env.step(np.zeros((2, 2)))
        assert truncated
        with pytest.raises(RuntimeError, match="reset"):
            env.step(np.zeros((2, 2)))

    def test_matrix_action_shape_validated(self):
        env = WillowFedEnv(GymConfig(windows=4))
        env.reset(seed=0)
        with pytest.raises(ValueError, match="shape"):
            env.step(np.zeros(3))

    def test_policy_action_range_validated(self):
        env = WillowFedEnv(GymConfig(windows=4, action_mode="policy"))
        env.reset(seed=0)
        with pytest.raises(ValueError, match="out of range"):
            env.step(99)

    def test_unknown_policy_arm_rejected_at_config(self):
        with pytest.raises(ValueError, match="unknown policy arms"):
            GymConfig(action_mode="policy", policy_arms=("nope",))

    def test_unknown_action_mode_rejected(self):
        with pytest.raises(ValueError, match="action_mode"):
            GymConfig(action_mode="q-learning")


class TestAgents:
    def test_cem_training_is_deterministic_and_never_below_baseline(self):
        config = GymConfig(windows=8)
        results = []
        for _ in range(2):
            env = WillowFedEnv(config)
            agent = CEMAgent(population=4, seed=1, reset_seed=0)
            agent.train(env, iterations=1)
            results.append((agent.best_theta, agent.best_score))
        assert results[0] == results[1]
        env = WillowFedEnv(config)
        agent = CEMAgent(population=4, seed=1, reset_seed=0)
        baseline = agent.rollout(env, (1.0, 0.0))
        agent.train(env, iterations=1)
        best = agent.rollout(env, agent.best_theta)
        assert best["dropped"] <= baseline["dropped"] + 1e-6

    def test_bandit_update_is_incremental_mean(self):
        bandit = BanditAgent(2, epsilon=0.0, seed=0)
        bandit.update(0, 10.0)
        bandit.update(0, 20.0)
        assert bandit.values[0] == pytest.approx(15.0)
        assert bandit.select() == 0


class TestCLI:
    def test_federation_rejects_horizon_for_myopic_policy(self, capsys):
        from repro.cli import main

        assert (
            main(["federation", "--policy", "proportional", "--horizon", "2"])
            == 2
        )
        assert "forecast-aware" in capsys.readouterr().err

    def test_federation_rejects_cooling_for_myopic_policy(self, capsys):
        from repro.cli import main

        assert (
            main(["federation", "--policy", "greedy-greenest", "--cooling"])
            == 2
        )
        assert "forecast-aware" in capsys.readouterr().err

    def test_federation_rejects_bad_forecast_spec(self, capsys):
        from repro.cli import main

        assert main(["federation", "--forecast", "nope"]) == 2
        assert "forecast model" in capsys.readouterr().err

    def test_gym_subcommand_validates_population(self, capsys):
        from repro.cli import main

        assert main(["gym", "--population", "1"]) == 2
        assert "--population" in capsys.readouterr().err
