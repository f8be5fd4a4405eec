"""Episodic environment: (lookahead, gain) actions drive Pure Pursuit.

Each step publishes the action to the controller's external slot, which
clips it to its bounds (always fresh during training), lets the
controller smooth it and compute steering, advances the simulator one
control period, and scores the transition with the shaped reward.
Episodes end on collision, on completing the configured lap count, or at
the step cap.

Environment instances are single-threaded and own their simulator state;
run several independent instances for parallel collection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import raceline as rl
from .pure_pursuit import (DEFAULT_FIXED_GAIN, ExternalSource, PurePursuitController,
                           TEACHER_L_BASE, TEACHER_L_SPEED, teacher_gain, teacher_lookahead)
from .vehicle import SimConfig, VehicleState, collision_check, control_step, wrap_angle

OBS_DIM = 5


@dataclass(frozen=True)
class RewardWeights:
    """Shaped-reward weights plus the indicator thresholds and clip range."""

    speed: float = 1.8
    lookahead_tracking: float = 3.0
    gain_tracking: float = 0.0
    lookahead_jerk: float = 0.4
    gain_jerk: float = 0.0
    curvature: float = 1.5
    lookahead_curvature: float = 2.0
    preshorten_bonus: float = 1.5
    collision: float = 10.0
    slow: float = 0.5
    progress: float = 1.0
    clip_lo: float = -30.0
    clip_hi: float = 100.0
    kappa_bend: float = 0.3
    v_slow: float = 0.5

    def __post_init__(self):
        for name in ("speed", "lookahead_tracking", "gain_tracking",
                     "lookahead_jerk", "gain_jerk", "curvature",
                     "lookahead_curvature", "preshorten_bonus", "collision",
                     "slow", "progress", "kappa_bend", "v_slow"):
            if not getattr(self, name) >= 0.0:  # NaN fails too
                raise ValueError(f"{name} must be >= 0")
        if not self.clip_lo < self.clip_hi:
            raise ValueError("clip_lo must be < clip_hi")


@dataclass
class RewardContext:
    """Everything one reward evaluation needs, already extracted."""

    v: float
    lookahead: float
    gain: float
    prev_lookahead: float
    prev_gain: float
    kappa_max: float
    kappa_local: float
    progress: int
    collision: bool
    slow: bool
    teacher_lookahead: float
    teacher_gain: float


def preshorten_ceiling(v: float) -> float:
    """Lookahead ceiling under which the pre-shortening bonus can fire."""
    return TEACHER_L_BASE + TEACHER_L_SPEED * v


def compute_reward(ctx: RewardContext, weights: RewardWeights) -> float:
    """Shaped scalar reward, clipped to the configured range."""
    r = weights.speed * ctx.v
    r -= weights.lookahead_tracking * abs(ctx.lookahead - ctx.teacher_lookahead)
    r -= weights.gain_tracking * abs(ctx.gain - ctx.teacher_gain)
    r -= weights.lookahead_jerk * abs(ctx.lookahead - ctx.prev_lookahead)
    r -= weights.gain_jerk * abs(ctx.gain - ctx.prev_gain)
    r -= weights.curvature * abs(ctx.kappa_local)
    r -= weights.lookahead_curvature * (ctx.lookahead * ctx.kappa_max)
    if ctx.kappa_max > weights.kappa_bend and ctx.lookahead <= preshorten_ceiling(ctx.v):
        r += weights.preshorten_bonus
    if ctx.collision:
        r -= weights.collision
    if ctx.slow:
        r -= weights.slow
    r += weights.progress * ctx.progress
    return max(weights.clip_lo, min(weights.clip_hi, r))


def observe(state: VehicleState, preview: rl.CurvatureTaps) -> np.ndarray:
    """Observation [v, kappa0, kappa1, kappa2, dkappa]; ``preview`` holds the
    taps of the state's nearest waypoint."""
    return np.array([state.v, preview.kappa0, preview.kappa1, preview.kappa2,
                     preview.dkappa])


@dataclass
class EnvConfig:
    # Long horizon: with a 5-feature observation the critic cannot see
    # episode phase, so frequent lap-count terminations put an invisible
    # sawtooth in the returns and stall learning. Which cap ends an episode
    # depends on the track: under the teacher, transfer_train.yaml's oval
    # (x1.6, 155 waypoints) ends at the lap cap at step 3255, smoke_train.yaml's
    # (x1.3, 238 waypoints) at the step cap after 34.3 laps.
    laps: int = 50
    max_steps: int = 6000
    spawn_lateral_jitter: float = 0.1
    spawn_heading_jitter: float = 0.05
    spawn_speed_fraction: float = 0.5
    action_mode: str = "joint"  # joint | ld_only; see ExternalSource
    fixed_gain: float = DEFAULT_FIXED_GAIN  # gain pinned in ld_only mode

    def __post_init__(self):
        if not (self.laps >= 1 and self.max_steps >= 1):
            raise ValueError("laps and max_steps must be >= 1")
        for name in ("spawn_lateral_jitter", "spawn_heading_jitter", "spawn_speed_fraction"):
            if not getattr(self, name) >= 0.0:  # NaN fails too
                raise ValueError(f"{name} must be >= 0")


class RacingEnv:
    """Gym-style episodic wrapper around raceline + Pure Pursuit + simulator."""

    def __init__(self, raceline: rl.Raceline, sim_config: SimConfig = SimConfig(),
                 weights: RewardWeights = RewardWeights(),
                 env_config: EnvConfig = EnvConfig(), seed: int = 0):
        self.raceline = raceline
        self.sim_config = sim_config
        self.weights = weights
        self.config = env_config
        self.rng = np.random.default_rng(seed)
        self.source = ExternalSource(env_config.action_mode, env_config.fixed_gain)
        self.controller = PurePursuitController(raceline, self.source)
        self._done = True

    @property
    def observation_dim(self) -> int:
        return OBS_DIM

    @property
    def action_dim(self) -> int:
        return self.source.action_dim

    def reset(self, seed: int | None = None, spawn_index: int | None = None) -> np.ndarray:
        track = self.raceline
        if spawn_index is not None and not 0 <= spawn_index < track.n:
            raise ValueError(f"spawn_index must be in 0..{track.n - 1}, got {spawn_index}")
        if seed is not None:
            self.rng = np.random.default_rng(seed)
        if spawn_index is None:
            spawn_index = int(self.rng.integers(track.n))
        lat = float(self.rng.uniform(-1.0, 1.0)) * self.config.spawn_lateral_jitter
        dtheta = float(self.rng.uniform(-1.0, 1.0)) * self.config.spawn_heading_jitter

        heading = rl.tangent_heading(track, spawn_index)
        nx, ny = -math.sin(heading), math.cos(heading)  # unit left normal
        self.state = VehicleState(
            float(track.x[spawn_index]) + lat * nx,
            float(track.y[spawn_index]) + lat * ny,
            wrap_angle(heading + dtheta),
            float(track.v_max[spawn_index]) * self.config.spawn_speed_fraction,
        )
        self.prev_delta = 0.0
        self.step_count = 0
        self.total_progress = 0
        # Waypoint nearest the current state, handed to the controller each step.
        self.prev_index = rl.locate(track, self.state.position, near=spawn_index)[0]
        self.controller.reset()
        self.prev_params = self.controller.smoothed
        self._done = False
        return observe(self.state, rl.taps(track, self.prev_index))

    def step(self, action):
        """Returns (observation, reward, done, info); ``info`` carries the
        published action, the applied command and the reward's inputs."""
        if self._done:
            raise RuntimeError("step() called on a finished episode; call reset()")
        track = self.raceline
        now = self.step_count * self.sim_config.dt_control

        raw = self.source.publish(action, now)
        result = self.controller.step(self.state, self.prev_index, now)
        self.state, self.prev_delta = control_step(
            self.state, result.command, self.prev_delta, self.sim_config)
        self.step_count += 1

        index, lateral_error = rl.locate(track, self.state.position,
                                         near=self.prev_index)
        progress = rl.progress_count(self.prev_index, index, track.n)
        self.prev_index = index
        self.total_progress += progress

        collided = collision_check(track, lateral_error)
        slow = self.state.v < self.weights.v_slow
        preview = rl.taps(track, index)
        ctx = RewardContext(
            v=self.state.v,
            lookahead=result.params.lookahead,
            gain=result.params.gain,
            prev_lookahead=self.prev_params.lookahead,
            prev_gain=self.prev_params.gain,
            kappa_max=preview.kappa_max,
            kappa_local=rl.local_curvature(track, index),
            progress=progress,
            collision=collided,
            slow=slow,
            teacher_lookahead=teacher_lookahead(self.state.v, preview.kappa_max),
            teacher_gain=teacher_gain(self.state.v),
        )
        reward = compute_reward(ctx, self.weights)
        obs = observe(self.state, preview)
        self.prev_params = result.params

        laps_complete = self.total_progress >= self.config.laps * track.n
        timeout = self.step_count >= self.config.max_steps
        self._done = collided or laps_complete or timeout

        info = {
            "collision": collided,
            "timeout": timeout,
            "laps_complete": laps_complete,
            "params": result.params,
            "raw_params": raw,
            "command": result.command,
            "mode": result.mode,
            "lateral_error": lateral_error,
            "progress": progress,
            "reward_context": ctx,
        }
        return obs, reward, self._done, info
