"""Pure Pursuit steering with online-selectable lookahead and gain.

The steering law itself is fixed; what varies is where the (lookahead,
gain) pair comes from: a constant, a velocity-linear schedule, a
hand-designed teacher, or an external (learned) source with a staleness
fallback to the teacher. Externally and teacher-sourced parameters pass
through a first-order exponential smoother before reaching the law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import raceline as rl
from .vehicle import Command, ControllerOutput, VehicleState

LOOKAHEAD_BOUNDS = (0.35, 4.0)
GAIN_BOUNDS = (0.45, 1.15)
STEER_CLIP = 0.35
ADAPTIVE_LOOKAHEAD_BOUNDS = (1.0, 2.5)
SMOOTHING_BETA = 0.2

# Teacher schedule coefficients: lookahead grows with speed and shrinks
# with previewed curvature; gain falls linearly from 0.9 at 3 m/s to
# 0.65 at 18 m/s.
TEACHER_L_BASE = 0.50
TEACHER_L_SPEED = 0.28
TEACHER_L_CURVATURE = 3.5
TEACHER_G_SLOPE = (0.65 - 0.9) / (18.0 - 3.0)
TEACHER_G_INTERCEPT = 0.9 - TEACHER_G_SLOPE * 3.0

SMOOTHER_INIT = (1.0, 0.9)

# Fixed steering gain used where a constant gain is required (the
# lookahead-only policy and the fixed/adaptive baselines). Chosen by a
# validation sweep of the velocity-linear schedule with constant gain over
# {0.6, 0.7, 0.8, 0.9, 1.0} on the training oval under the full-completion
# criterion: 0.6 sustains the highest speed multiplier (2.6 vs 1.7 for 1.0).
DEFAULT_FIXED_GAIN = 0.6
# Lookahead [m] of the fixed baseline.
DEFAULT_FIXED_LOOKAHEAD = 1.5
# Age [s] past which an external source's latest action is stale.
STALENESS_TIMEOUT = 0.2


@dataclass(slots=True)
class PPParams:
    """Lookahead distance [m] and steering gain pair; a slotted value
    record, never written after construction."""

    lookahead: float
    gain: float


def clip_params(lookahead, gain) -> PPParams:
    """(lookahead, gain) clipped to the action bounds; a NaN is an error."""
    lookahead, gain = float(lookahead), float(gain)
    if lookahead != lookahead:
        raise ValueError("lookahead must not be NaN")
    if gain != gain:
        raise ValueError("gain must not be NaN")
    return PPParams(max(LOOKAHEAD_BOUNDS[0], min(LOOKAHEAD_BOUNDS[1], lookahead)),
                    max(GAIN_BOUNDS[0], min(GAIN_BOUNDS[1], gain)))


def smooth(previous: PPParams, raw: PPParams) -> PPParams:
    """One per-component first-order exponential smoothing step from
    ``previous`` toward ``raw``."""
    beta = SMOOTHING_BETA
    return PPParams(beta * raw.lookahead + (1.0 - beta) * previous.lookahead,
                    beta * raw.gain + (1.0 - beta) * previous.gain)


def to_vehicle_frame(pose: VehicleState, point):
    """Map a world point into the vehicle frame (x' forward, y' left)."""
    dx = point[0] - pose.x
    dy = point[1] - pose.y
    c = math.cos(pose.theta)
    s = math.sin(pose.theta)
    return (c * dx + s * dy, -s * dx + c * dy)


def pp_steering(y_prime: float, lookahead: float, gain: float) -> float:
    """Pure Pursuit steering: gain-scaled lookahead-circle curvature, clipped.

    Returns ``gain * 2 y' / lookahead**2`` clipped to +-``STEER_CLIP``, which
    the caller sends as the steering angle ``Command.delta`` [rad]. This is
    the F1TENTH convention: the small-angle law is delta = wheelbase x
    curvature, and the gain stands in for the wheelbase.
    """
    if lookahead <= 0.0:
        raise ValueError("lookahead must be > 0")
    raw = gain * 2.0 * y_prime / (lookahead * lookahead)
    return max(-STEER_CLIP, min(STEER_CLIP, raw))


def teacher_lookahead(v: float, kappa_max: float) -> float:
    """Hand-designed lookahead target, clipped to the action bounds."""
    raw = TEACHER_L_BASE + TEACHER_L_SPEED * v - TEACHER_L_CURVATURE * kappa_max
    return max(LOOKAHEAD_BOUNDS[0], min(LOOKAHEAD_BOUNDS[1], raw))


def teacher_gain(v: float) -> float:
    """Hand-designed gain target, clipped to the action bounds."""
    raw = TEACHER_G_SLOPE * v + TEACHER_G_INTERCEPT
    return max(GAIN_BOUNDS[0], min(GAIN_BOUNDS[1], raw))


def adaptive_lookahead(v: float, v_lo: float, v_hi: float) -> float:
    """Velocity-linear lookahead mapping [v_lo, v_hi] onto [1.0, 2.5] m."""
    if not v_lo < v_hi:  # NaN fails too
        raise ValueError("v_lo must be < v_hi")
    lo, hi = ADAPTIVE_LOOKAHEAD_BOUNDS
    raw = lo + (v - v_lo) * (hi - lo) / (v_hi - v_lo)
    return max(lo, min(hi, raw))


@dataclass
class FixedSource:
    """Constant (lookahead, gain), clipped once."""

    lookahead: float
    gain: float

    def __post_init__(self):
        self.params = clip_params(self.lookahead, self.gain)

    def select(self, state: VehicleState, raceline: rl.Raceline, index: int, now: float):
        return self.params, "fixed"


@dataclass
class AdaptiveLinearSource:
    """Velocity-linear lookahead with a constant gain."""

    v_lo: float
    v_hi: float
    gain: float

    def __post_init__(self):
        if not self.v_lo < self.v_hi:
            raise ValueError("v_lo must be < v_hi")
        clip_params(ADAPTIVE_LOOKAHEAD_BOUNDS[0], self.gain)  # a NaN gain raises

    def select(self, state: VehicleState, raceline: rl.Raceline, index: int, now: float):
        lookahead = adaptive_lookahead(state.v, self.v_lo, self.v_hi)
        return clip_params(lookahead, self.gain), "adaptive"


@dataclass
class TeacherSource:
    """Hand-designed speed/curvature schedules for both parameters."""

    def select(self, state: VehicleState, raceline: rl.Raceline, index: int, now: float):
        kappa_max = rl.taps(raceline, index).kappa_max
        return PPParams(teacher_lookahead(state.v, kappa_max),
                        teacher_gain(state.v)), "teacher"


@dataclass
class ExternalSource(TeacherSource):
    """Learned-parameter slot with a staleness fallback to the teacher.

    The one place a policy action becomes parameters: a single writer
    publishes (lookahead, gain) in ``joint`` mode or (lookahead,) in
    ``ld_only`` mode, whose gain is ``fixed_gain``; the slot clips it and
    the controller reads it back (last value wins). If the newest receipt
    is older than ``timeout`` at query time, the teacher takes over until
    fresh actions resume.
    """

    action_mode: str = "joint"  # joint | ld_only
    fixed_gain: float = DEFAULT_FIXED_GAIN  # gain pinned in ld_only mode
    timeout: float = STALENESS_TIMEOUT
    last_params: PPParams | None = field(default=None, repr=False)
    last_receipt: float = field(default=-math.inf, repr=False)

    def __post_init__(self):
        if self.action_mode not in ("joint", "ld_only"):
            raise ValueError(f"unknown action_mode {self.action_mode!r}")
        if not self.timeout > 0.0:  # NaN fails too
            raise ValueError("timeout must be > 0")
        clip_params(SMOOTHER_INIT[0], self.fixed_gain)  # a NaN fixed gain raises

    @property
    def action_dim(self) -> int:
        return 2 if self.action_mode == "joint" else 1

    def start(self) -> PPParams:
        """Empty the slot; the smoother start keeps the fixed gain, clipped."""
        self.last_params = None
        self.last_receipt = -math.inf
        if self.action_mode == "ld_only":
            return clip_params(SMOOTHER_INIT[0], self.fixed_gain)
        return PPParams(*SMOOTHER_INIT)

    def publish(self, action, now: float) -> PPParams:
        """Store ``action``, received at ``now``, as clipped parameters."""
        if len(action) != self.action_dim:
            raise ValueError(f"expected {self.action_dim}-D action, got {len(action)}")
        gain = action[1] if self.action_mode == "joint" else self.fixed_gain
        self.last_params = clip_params(action[0], gain)
        self.last_receipt = now
        return self.last_params

    def fresh(self, now: float) -> bool:
        return self.last_params is not None and (now - self.last_receipt) <= self.timeout

    def select(self, state: VehicleState, raceline: rl.Raceline, index: int, now: float):
        """The slot's parameters if fresh at ``now``, else the teacher's."""
        if self.fresh(now):
            return self.last_params, "rl"
        return super().select(state, raceline, index, now)


class PurePursuitController:
    """Tracks a raceline with Pure Pursuit under one parameter source.

    The source's ``select(state, raceline, index, now)`` gives each step's
    parameters and mode; teacher and rl parameters advance ``smoothed``,
    which starts from the source's ``start()`` if it has one. The same path
    runs during training and deployment. The returned mode flag feeds the
    teacher-activation-rate accounting.
    """

    def __init__(self, raceline: rl.Raceline, source):
        if not callable(getattr(source, "select", None)):
            raise TypeError(f"unknown parameter source {type(source).__name__}")
        self.raceline = raceline
        self.source = source
        self.reset()

    def reset(self):
        start = getattr(self.source, "start", None)
        self.smoothed = start() if start is not None else PPParams(*SMOOTHER_INIT)

    def step(self, state: VehicleState, index: int, now: float = 0.0) -> ControllerOutput:
        """One control step from ``state``, whose nearest waypoint is ``index``."""
        params, mode = self.source.select(state, self.raceline, index, now)
        if mode in ("teacher", "rl"):
            params = self.smoothed = smooth(self.smoothed, params)
        target = rl.lookahead_target(self.raceline, index, params.lookahead)
        _, y_prime = to_vehicle_frame(state, target)
        gamma = pp_steering(y_prime, params.lookahead, params.gain)
        v_cmd = float(self.raceline.v_max[index])
        return ControllerOutput(Command(gamma, v_cmd), params, mode)
