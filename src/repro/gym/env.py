"""``WillowFedEnv``: the federation as a Gym-style decision process.

One environment step is one *supply period* -- ``eta1`` controller ticks
-- of the same anti-correlated-solar federation the experiments sweep
(:func:`repro.experiments.fig_federation.build_specs`).  At each step
the agent chooses the cross-site load shift for the coming period; the
coordinator then runs the period tick-for-tick exactly as it would
under a shipped policy, so everything learned here transfers verbatim
to :func:`~repro.federation.coordinator.run_federation` via
:class:`~repro.gym.agents.LearnedPolicy`.

API shape follows the Gym 0.26+/gymnasium convention without importing
either: ``reset(seed=...) -> (obs, info)``, ``step(action) -> (obs,
reward, terminated, truncated, info)``, plain-dataclass ``spec`` /
``observation_space`` / ``action_space`` (:mod:`repro.gym.spaces`).

Observations are a flat ``float64`` vector: per site ``[supply,
smoothed_demand, headroom, battery_charge, battery_rate,
thermal_margin]`` plus the ``K``-step supply forecast (read through the
coordinator's configured forecast model, so a noisy model degrades the
agent's information exactly as it degrades the MPC planner's), then one
global episode-progress feature.  The reward is the negated weighted
sum of five per-window costs -- dropped demand, total energy, carbon,
WAN migration energy, thermal violations -- with the raw vector always
available in ``info["reward_vector"]`` for multi-objective training.

Episodes are deterministic per seed (`RandomStreams.fork` per episode),
checkpointable mid-episode (:meth:`WillowFedEnv.snapshot_state`), and
traceable: pass a :class:`~repro.trace.Tracer` and every decision
window lands in the same frame stream the coordinator already writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.federation.coordinator import build_federation
from repro.federation.forecasts import ForecastModel
from repro.federation.policies import POLICIES
from repro.gym.actions import matrix_to_transfers, project_shift_matrix
from repro.gym.spaces import BoxSpace, DiscreteSpace, EnvSpec
from repro.sim.rng import RandomStreams

__all__ = [
    "REWARD_COMPONENTS",
    "RewardWeights",
    "GymConfig",
    "WillowFedEnv",
]

#: Order of the cost vector in ``info["reward_vector"]``.
REWARD_COMPONENTS = (
    "dropped",
    "energy",
    "carbon",
    "wan_energy",
    "violations",
)


@dataclass(frozen=True)
class RewardWeights:
    """Scalarization weights over the per-window cost vector.

    Every component is a *cost* (non-negative, lower is better); the
    scalar reward is the negated weighted sum.  The defaults focus on
    the paper's headline trade-off: serve demand, keep WAN shifting
    honest, never overheat.
    """

    dropped: float = 1.0  # dropped demand energy (W*ticks)
    energy: float = 0.0  # total server energy (W*ticks)
    carbon: float = 0.0  # energy * carbon intensity at window start
    wan_energy: float = 0.05  # WAN migration energy, both ends (W*ticks)
    violations: float = 1000.0  # thermal-limit violation tick-count

    def scalarize(self, vector: Dict[str, float]) -> float:
        return -sum(
            getattr(self, name) * vector[name] for name in REWARD_COMPONENTS
        )


@dataclass(frozen=True)
class GymConfig:
    """Scenario and interface knobs for :class:`WillowFedEnv`."""

    #: Federation size; sites get evenly phased solar humps.
    n_sites: int = 2
    #: Decision windows per episode (one window = ``eta1`` ticks; one
    #: extra warm-up window precedes the first decision).
    windows: int = 23
    #: Forecast steps in the observation.
    horizon: int = 4
    #: ``"matrix"`` (continuous shift matrix) or ``"policy"``
    #: (discrete choice among ``policy_arms`` each window).
    action_mode: str = "matrix"
    #: Registry slugs selectable in ``"policy"`` mode.
    policy_arms: Tuple[str, ...] = (
        "neutral",
        "proportional",
        "greedy-greenest",
        "price-aware",
    )
    #: Donor margin; ``None`` = coordinator default (max ``p_min``).
    margin: Optional[float] = None
    wan_cost_power: Optional[float] = None
    wan_cost_ticks: Optional[int] = None
    #: Per-site UPS energy (W*ticks); 0 disables batteries.
    battery_capacity: float = 0.0
    target_utilization: float = 0.35
    #: Forecast model spec (see ``repro.federation.forecasts``).
    forecast: Union[str, ForecastModel, None] = "oracle"
    #: Run member sites on the array controller (they tick fused).
    vectorized: bool = False
    weights: RewardWeights = field(default_factory=RewardWeights)

    def __post_init__(self) -> None:
        if self.action_mode not in ("matrix", "policy"):
            raise ValueError(
                f"action_mode must be 'matrix' or 'policy', "
                f"got {self.action_mode!r}"
            )
        if self.windows < 1:
            raise ValueError(f"windows must be >= 1, got {self.windows}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        if self.action_mode == "policy":
            unknown = [a for a in self.policy_arms if a not in POLICIES]
            if unknown:
                raise ValueError(
                    f"unknown policy arms {unknown}; "
                    f"choose from {sorted(POLICIES)}"
                )


class WillowFedEnv:
    """Multi-objective federation scheduling as a Gym-style env."""

    def __init__(
        self,
        config: Optional[GymConfig] = None,
        *,
        tracer=None,
    ):
        self.config = config or GymConfig()
        self._tracer = tracer
        n, k = self.config.n_sites, self.config.horizon
        self.observation_space = BoxSpace(
            low=-np.inf, high=np.inf, shape=(n * (6 + k) + 1,)
        )
        if self.config.action_mode == "matrix":
            self.action_space = BoxSpace(low=0.0, high=np.inf, shape=(n, n))
        else:
            self.action_space = DiscreteSpace(len(self.config.policy_arms))
        self.spec = EnvSpec(
            id="repro/WillowFed-v0",
            max_episode_steps=self.config.windows,
            kwargs={"action_mode": self.config.action_mode},
        )
        self._base: Optional[RandomStreams] = None
        self._episode_index = 0
        self._site_seed: Optional[int] = None
        self.coordinator = None
        self._margin = 0.0
        self._action = None
        self._step_count = 0
        self._done = True
        self._drop_cursor: List[int] = []
        self._sample_cursor: List[int] = []
        self._migration_cursor = 0
        self._transfer_cursor = 0
        self._peak_temps: List[float] = []

    # ----------------------------------------------------------- plumbing
    @property
    def eta1(self) -> int:
        return self.coordinator.eta1

    @property
    def n_ticks(self) -> int:
        """Total controller ticks per episode (warm-up included)."""
        if self.coordinator is not None:
            eta1 = self.coordinator.eta1
        else:
            from repro.core.config import WillowConfig

            eta1 = WillowConfig().eta1
        return (self.config.windows + 1) * eta1

    def episode_specs(self) -> list:
        """Fresh site specs for the *current* episode's seed.

        Builds new ``SiteSpec`` objects each call (batteries are
        mutable), so the same episode can be replayed through
        :func:`~repro.federation.coordinator.run_federation` -- the
        round-trip contract :class:`~repro.gym.agents.LearnedPolicy`
        relies on.
        """
        from repro.experiments.fig_federation import build_specs

        if self._site_seed is None:
            raise RuntimeError("reset() the environment first")
        return build_specs(
            self.config.n_sites,
            battery_capacity=self.config.battery_capacity,
            target_utilization=self.config.target_utilization,
            seed=self._site_seed,
        )

    def _hook_policy(self):
        def gym_hook(statuses, *, margin: float = 0.0, **_kwargs):
            return self._apply_action(statuses, margin)

        gym_hook.policy_name = "gym-env"
        gym_hook.forecast_aware = False
        return gym_hook

    def _build(self, site_seed: int):
        self._site_seed = int(site_seed)
        coordinator = build_federation(
            self.episode_specs(),
            n_ticks=self.n_ticks,
            policy=self._hook_policy(),
            wan_cost_power=self.config.wan_cost_power,
            wan_cost_ticks=self.config.wan_cost_ticks,
            margin=self.config.margin,
            forecast=self.config.forecast,
            vectorized=self.config.vectorized,
            tracer=self._tracer,
        )
        self.coordinator = coordinator
        self._margin = (
            self.config.margin
            if self.config.margin is not None
            else max(site.config.p_min for site in coordinator.sites)
        )
        n = self.config.n_sites
        self._drop_cursor = [0] * n
        self._sample_cursor = [0] * n
        self._migration_cursor = 0
        self._transfer_cursor = 0
        self._peak_temps = [0.0] * n
        return coordinator

    # ---------------------------------------------------------------- API
    def reset(self, *, seed: Optional[int] = None, options=None):
        """Start a new episode; returns ``(obs, info)``.

        ``reset(seed=s)`` restarts the episode sequence: the first
        episode after any ``reset(seed=s)`` is bit-identical to the
        first episode after any other ``reset(seed=s)``.  Subsequent
        seedless resets advance through independent episodes forked
        from the same root.
        """
        if seed is not None:
            self._base = RandomStreams(seed)
            self._episode_index = 0
        if self._base is None:
            self._base = RandomStreams(0)
        episode = self._base.fork(self._episode_index)
        self._episode_index += 1
        coordinator = self._build(episode.seed)
        self._action = None
        self._step_count = 0
        self._done = False
        # Warm-up window: no rebalance fires before tick eta1, so the
        # first observation sees primed smoothed demand.
        coordinator.run(coordinator.eta1)
        self._consume_window()
        return self._observe(), self._info()

    def step(self, action):
        """Run one supply period under ``action``.

        Returns the Gym 5-tuple ``(obs, reward, terminated, truncated,
        info)``.  Episodes never terminate early; the final step of the
        horizon sets ``truncated``.
        """
        if self.coordinator is None or self._done:
            raise RuntimeError(
                "episode is not running; call reset() first"
            )
        self._action = self._validate_action(action)
        window_start = self.coordinator._tick_index * self.coordinator.delta_d
        self.coordinator.run(self.coordinator.eta1)
        self._action = None
        vector = self._consume_window(window_start)
        reward = self.config.weights.scalarize(vector)
        self._step_count += 1
        truncated = self._step_count >= self.config.windows
        self._done = truncated
        obs = self._observe()
        info = self._info()
        info["reward_vector"] = vector
        info["transfers"] = self._new_transfers()
        tracer = self.coordinator.tracer
        if tracer.enabled:
            tracer.record_env_step(
                self._step_count,
                self.config.action_mode,
                reward,
                vector,
            )
        return obs, reward, False, truncated, info

    def close(self) -> None:
        if self.coordinator is not None:
            self.coordinator.tracer.flush()

    # ------------------------------------------------------------ actions
    def _validate_action(self, action):
        if self.config.action_mode == "policy":
            try:
                arm = int(action)
            except (TypeError, ValueError):
                raise ValueError(
                    f"policy-mode action must be an integer, got {action!r}"
                ) from None
            if not self.action_space.contains(arm):
                raise ValueError(
                    f"action {arm} out of range for "
                    f"{len(self.config.policy_arms)} policy arms"
                )
            return arm
        matrix = np.asarray(action, dtype=float)
        n = self.config.n_sites
        if matrix.shape != (n, n):
            raise ValueError(
                f"matrix-mode action must have shape ({n}, {n}), "
                f"got {matrix.shape}"
            )
        return matrix

    def _apply_action(self, statuses, margin: float):
        """The coordinator-side policy hook: lower the pending action."""
        if self._action is None:
            raise RuntimeError(
                "coordinator rebalanced outside step() -- this is a bug"
            )
        if self.config.action_mode == "policy":
            arm = self.config.policy_arms[self._action]
            return POLICIES[arm](statuses, margin=margin)
        projected = project_shift_matrix(statuses, self._action, margin)
        return matrix_to_transfers(statuses, projected)

    # ------------------------------------------------------- observations
    def _observe(self) -> np.ndarray:
        coordinator = self.coordinator
        now = coordinator._tick_index * coordinator.delta_d
        statuses = coordinator.statuses(now)
        forecasts = coordinator.site_forecasts(now, self.config.horizon)
        self._last_statuses = statuses
        self._last_forecasts = forecasts
        k = self.config.horizon
        out: List[float] = []
        for i, (status, forecast) in enumerate(zip(statuses, forecasts)):
            t_limit = coordinator.sites[i].config.thermal.t_limit
            out.extend(
                (
                    status.supply,
                    status.smoothed_demand,
                    status.headroom,
                    forecast.battery_charge,
                    forecast.battery_rate,
                    t_limit - self._peak_temps[i],
                )
            )
            future = forecast.supplies[1 : k + 1]
            out.extend(future)
            out.extend([future[-1] if future else status.supply] * (k - len(future)))
        out.append(self._step_count / self.config.windows)
        return np.asarray(out, dtype=np.float64)

    def _info(self) -> Dict:
        return {
            "episode": self._episode_index - 1,
            "window": self._step_count,
            "site_seed": self._site_seed,
            "margin": self._margin,
            "statuses": self._last_statuses,
            "forecasts": self._last_forecasts,
        }

    # ----------------------------------------------------------- rewards
    def _consume_window(self, window_start: Optional[float] = None) -> Dict:
        """Advance the metric cursors; cost vector for the new window."""
        coordinator = self.coordinator
        delta_d = coordinator.delta_d
        vector = dict.fromkeys(REWARD_COMPONENTS, 0.0)
        for i, site in enumerate(coordinator.sites):
            # The new tail of each column, in row order.
            drops = site.collector.drops
            dropped = drops.column("power", self._drop_cursor[i])
            self._drop_cursor[i] = len(drops)
            vector["dropped"] += sum(dropped) * delta_d

            samples = site.collector.server_samples
            start = self._sample_cursor[i]
            self._sample_cursor[i] = len(samples)
            energy = sum(samples.column("power", start)) * delta_d
            vector["energy"] += energy
            if window_start is not None:
                vector["carbon"] += energy * site.carbon_at(window_start)
            t_limit = site.config.thermal.t_limit
            temperatures = samples.column("temperature", start)
            vector["violations"] += sum(
                1 for t in temperatures if t > t_limit + 1e-9
            )
            if temperatures:
                self._peak_temps[i] = max(temperatures)

        migrations = coordinator.cross_migrations
        for migration in migrations[self._migration_cursor :]:
            _, ticks = coordinator._wan_cost(coordinator.site(migration.dst_site))
            vector["wan_energy"] += (
                2.0 * migration.wan_cost_power * ticks * delta_d
            )
        self._migration_cursor = len(migrations)
        return vector

    def _new_transfers(self) -> List:
        log = self.coordinator.transfer_log
        new = [t for _tick, batch in log[self._transfer_cursor :] for t in batch]
        self._transfer_cursor = len(log)
        return new

    # -------------------------------------------------------- checkpoint
    def snapshot_state(self) -> Dict:
        """Capture the env mid-episode (between steps).

        Includes the full coordinator snapshot, the metric cursors and
        the episode bookkeeping; restore onto a fresh env built with the
        same :class:`GymConfig`.  Like the coordinator's snapshot, the
        structure holds *live* references -- serialize it (one pickle
        payload, as :mod:`repro.checkpoint` does) before restoring into
        a second env that will run concurrently.  Works the same under
        ``GymConfig(vectorized=True)``, whose sites tick fused.
        """
        if self.coordinator is None:
            raise RuntimeError("nothing to snapshot; call reset() first")
        return {
            "env": type(self).__name__,
            "base_seed": self._base.seed if self._base is not None else None,
            "episode_index": self._episode_index,
            "site_seed": self._site_seed,
            "step_count": self._step_count,
            "done": self._done,
            "drop_cursor": list(self._drop_cursor),
            "sample_cursor": list(self._sample_cursor),
            "migration_cursor": self._migration_cursor,
            "transfer_cursor": self._transfer_cursor,
            "peak_temps": list(self._peak_temps),
            "coordinator": self.coordinator.snapshot_state(),
        }

    def restore_state(self, state: Dict) -> None:
        """Overlay a snapshot onto this env (same ``GymConfig``)."""
        if state.get("env") != type(self).__name__:
            from repro.checkpoint.errors import CheckpointError

            raise CheckpointError(
                f"snapshot is for {state.get('env')!r}, "
                f"not {type(self).__name__!r}"
            )
        if state["base_seed"] is not None:
            self._base = RandomStreams(state["base_seed"])
        self._episode_index = int(state["episode_index"])
        coordinator = self._build(state["site_seed"])
        coordinator.restore_state(state["coordinator"])
        self._step_count = int(state["step_count"])
        self._done = bool(state["done"])
        self._drop_cursor = list(state["drop_cursor"])
        self._sample_cursor = list(state["sample_cursor"])
        self._migration_cursor = int(state["migration_cursor"])
        self._transfer_cursor = int(state["transfer_cursor"])
        self._peak_temps = list(state["peak_temps"])
        self._action = None
        # Prime the last-observation caches for info().
        self._observe()
