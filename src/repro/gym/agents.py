"""Learned federation schedulers: CEM search, bandit, policy adapter.

Two deliberately small learners -- this is a systems repo, not an RL
library, and both are dependency-free and deterministic per seed:

* :class:`CEMAgent` -- cross-entropy method over the two-gain linear
  scheduler family :func:`~repro.gym.actions.linear_shift_matrix`.
  The search mean starts *at* proportional (``theta = [1, 0]``), the
  incumbent is always re-evaluated with each population, and the best
  parameters ever seen are kept -- so the trained agent can match but
  never lose to the proportional baseline on its training objective.
* :class:`BanditAgent` -- epsilon-greedy policy switching over the
  registry arms in the env's ``"policy"`` action mode: per-window
  selection among shipped policies, the lightest possible "learned"
  scheduler.

:class:`LearnedPolicy` closes the loop: it wraps a trained decision
function as a first-class federation policy -- callable with either the
plain ``(statuses, margin=...)`` signature or the planner's
forecast-aware keyword set -- and can register into
:data:`~repro.federation.policies.POLICIES`, after which the CLI, the
federation coordinator (scalar or fused array sites) and the
experiments harness can all run it by name.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.federation.policies import (
    POLICIES,
    Transfer,
    register_policy,
    unregister_policy,
)
from repro.gym.actions import (
    linear_shift_matrix,
    matrix_to_transfers,
    project_shift_matrix,
)
from repro.sim.rng import RandomStreams

__all__ = ["CEMAgent", "BanditAgent", "LearnedPolicy", "linear_policy_fn"]


def linear_policy_fn(theta: Sequence[float]) -> Callable:
    """Freeze ``theta`` into a ``(statuses, forecasts, margin)`` fn."""
    frozen = tuple(float(t) for t in theta)

    def decide(statuses, forecasts, margin: float = 0.0) -> List[Transfer]:
        matrix = linear_shift_matrix(statuses, forecasts, frozen, margin)
        projected = project_shift_matrix(statuses, matrix, margin)
        return matrix_to_transfers(statuses, projected)

    decide.theta = frozen
    return decide


class CEMAgent:
    """Cross-entropy search over the linear scheduler gains.

    Maintains a Gaussian over ``theta = [g_react, g_pre]``; each
    iteration draws a population (the current mean is always member 0),
    rolls one episode per member, refits mean/std to the elite fraction,
    and tracks the best-ever member by ``(dropped demand, scalar
    return)``.  ``theta0`` defaults to proportional's gains, so the
    best-ever can only improve on the baseline.
    """

    def __init__(
        self,
        *,
        theta0: Sequence[float] = (1.0, 0.0),
        std0: Sequence[float] = (0.5, 0.5),
        population: int = 8,
        elite_frac: float = 0.375,
        min_std: float = 0.02,
        seed: int = 0,
        reset_seed: Optional[int] = None,
    ):
        if population < 2:
            raise ValueError(f"population must be >= 2, got {population}")
        self.mean = np.asarray(theta0, dtype=float).copy()
        self.std = np.asarray(std0, dtype=float).copy()
        self.population = int(population)
        self.n_elite = max(1, int(round(elite_frac * population)))
        self.min_std = float(min_std)
        self.streams = RandomStreams(seed)
        #: When set, every rollout resets the env to this seed's first
        #: episode -- train on one fixed scenario (the smoke setup)
        #: instead of a fresh episode per member.
        self.reset_seed = reset_seed
        self.best_theta = tuple(self.mean)
        self.best_score: Optional[tuple] = None
        self.history: List[dict] = []
        self._iteration = 0

    def act(self, env_info, theta: Optional[Sequence[float]] = None):
        """The shift matrix for one env observation (``matrix`` mode)."""
        gains = self.best_theta if theta is None else theta
        return linear_shift_matrix(
            env_info["statuses"],
            env_info["forecasts"],
            gains,
            env_info["margin"],
        )

    def rollout(self, env, theta: Sequence[float]) -> dict:
        """One episode under fixed gains; returns the episode totals."""
        _obs, info = env.reset(seed=self.reset_seed)
        total_reward = 0.0
        dropped = violations = 0.0
        truncated = False
        while not truncated:
            action = self.act(info, theta)
            _obs, reward, _term, truncated, info = env.step(action)
            total_reward += reward
            dropped += info["reward_vector"]["dropped"]
            violations += info["reward_vector"]["violations"]
        return {
            "theta": tuple(float(t) for t in theta),
            "return": total_reward,
            "dropped": dropped,
            "violations": violations,
        }

    def train(self, env, iterations: int = 3) -> dict:
        """Run CEM for ``iterations`` populations; returns the best."""
        for _ in range(iterations):
            rng = self.streams.fork(self._iteration)["cem/population"]
            self._iteration += 1
            population = [np.asarray(self.mean).copy()]
            for _ in range(self.population - 1):
                population.append(
                    self.mean + self.std * rng.standard_normal(len(self.mean))
                )
            scored = []
            for member in population:
                result = self.rollout(env, member)
                # Lexicographic: dropped demand first, scalar return as
                # the tie-breaker -- the smoke contract is on dropped.
                score = (result["dropped"], -result["return"])
                scored.append((score, member, result))
                if self.best_score is None or score < self.best_score:
                    self.best_score = score
                    self.best_theta = result["theta"]
            scored.sort(key=lambda item: item[0])
            elite = np.stack([member for _s, member, _r in scored[: self.n_elite]])
            self.mean = elite.mean(axis=0)
            self.std = np.maximum(elite.std(axis=0), self.min_std)
            self.history.append(
                {
                    "iteration": self._iteration,
                    "mean": tuple(self.mean),
                    "best": scored[0][2],
                }
            )
        return {"theta": self.best_theta, "score": self.best_score}

    def policy_fn(self) -> Callable:
        """The best-so-far gains as a frozen decision function."""
        return linear_policy_fn(self.best_theta)


class BanditAgent:
    """Epsilon-greedy policy switching (env ``"policy"`` action mode).

    Treats each registry arm as a bandit arm with the per-window scalar
    reward as payoff; incremental-mean value estimates, deterministic
    exploration stream, greedy ties broken by arm order.
    """

    def __init__(
        self,
        n_arms: int,
        *,
        epsilon: float = 0.1,
        seed: int = 0,
    ):
        if n_arms < 1:
            raise ValueError(f"n_arms must be >= 1, got {n_arms}")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        self.n_arms = int(n_arms)
        self.epsilon = float(epsilon)
        self.counts = np.zeros(self.n_arms, dtype=int)
        self.values = np.zeros(self.n_arms, dtype=float)
        self._rng = RandomStreams(seed)["bandit/explore"]

    def select(self) -> int:
        if self._rng.random() < self.epsilon:
            return int(self._rng.integers(self.n_arms))
        return int(np.argmax(self.values))

    def update(self, arm: int, reward: float) -> None:
        self.counts[arm] += 1
        self.values[arm] += (reward - self.values[arm]) / self.counts[arm]

    def train(self, env, episodes: int = 5) -> dict:
        """Roll episodes, updating per-window; returns value estimates."""
        for _ in range(episodes):
            _obs, _info = env.reset()
            truncated = False
            while not truncated:
                arm = self.select()
                _obs, reward, _term, truncated, _info = env.step(arm)
                self.update(arm, reward)
        return {
            "values": tuple(self.values),
            "counts": tuple(int(c) for c in self.counts),
            "best_arm": int(np.argmax(self.values)),
        }


class LearnedPolicy:
    """A trained decision function as a first-class federation policy.

    Wraps ``fn(statuses, forecasts, margin) -> [Transfer]`` so the
    coordinator can call it either myopically (``forecasts=None``) or
    through the predictive planner's forecast-aware keyword protocol.
    With ``forecast_aware=True``, run it via ``run_federation(policy=
    learned, horizon=K)`` and the planner feeds it the same
    ``site_forecasts`` the gym env observes -- the round-trip pinned by
    ``tests/test_gym.py``.

    Use as a context manager (or :meth:`register`/:meth:`unregister`)
    to make it addressable by name in
    :data:`~repro.federation.policies.POLICIES`.
    """

    def __init__(
        self,
        fn: Callable,
        *,
        name: str = "learned",
        forecast_aware: bool = True,
    ):
        self.fn = fn
        self.policy_name = name
        self.forecast_aware = bool(forecast_aware)

    def __call__(
        self,
        statuses,
        *,
        margin: float = 0.0,
        forecasts=None,
        **_planner_kwargs,
    ) -> List[Transfer]:
        return self.fn(statuses, forecasts, margin)

    def register(self) -> "LearnedPolicy":
        register_policy(self.policy_name, self, forecast_aware=self.forecast_aware)
        return self

    def unregister(self) -> None:
        if POLICIES.get(self.policy_name) is self:
            unregister_policy(self.policy_name)

    def __enter__(self) -> "LearnedPolicy":
        return self.register()

    def __exit__(self, *exc) -> None:
        self.unregister()
