"""Kinematic bicycle simulator with actuator and rate limits.

Stepping is pure: every function maps (state, command, config) to a new
state without touching shared mutable data, so identical inputs produce
bit-identical outputs and independent simulations can run concurrently.
The per-step records (:class:`VehicleState`, :class:`Command`,
:class:`ControllerOutput` and ``pure_pursuit.PPParams``) are slotted value
records rather than frozen dataclasses, because a frozen ``__init__`` sets
each field through ``object.__setattr__`` and a control step builds
several of them; no code writes a record after building it, and none
hashes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .raceline import Raceline

if TYPE_CHECKING:
    from .mpc import MPCStepInfo
    from .pure_pursuit import PPParams


def wrap_angle(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    a = (angle + math.pi) % (2.0 * math.pi) - math.pi
    if a <= -math.pi:
        a += 2.0 * math.pi
    return a


@dataclass(slots=True)
class VehicleState:
    """Planar pose plus longitudinal speed; a slotted value record, never
    written after construction."""

    x: float
    y: float
    theta: float
    v: float

    @property
    def position(self):
        return (self.x, self.y)


@dataclass(slots=True)
class Command:
    """Steering angle [rad] and commanded speed [m/s]; a slotted value
    record, never written after construction.

    The MPC sets ``delta`` to a bicycle-model steering angle. Pure Pursuit
    sets it to gain x lookahead-circle curvature [1/m], clipped at
    ``pure_pursuit.STEER_CLIP``: the F1TENTH convention, in which the gain
    absorbs the wheelbase of the small-angle law delta = wheelbase x
    curvature. Either way the simulator clamps it to ``delta_max``.
    """

    delta: float
    v_cmd: float


@dataclass(slots=True)
class ControllerOutput:
    """One control step's command, the Pure Pursuit parameters it applied
    (None for the MPC), the mode that produced it, and the MPC's solver
    health (None for Pure Pursuit); a slotted value record, never written
    after construction."""

    command: Command
    params: PPParams | None
    mode: str  # rl | teacher | fixed | adaptive | mpc
    solver: MPCStepInfo | None = None


# Physics substeps per control step: 200 times the default of 5. More would
# make one control_step cost thousands of RK4 advances.
MAX_SUBSTEPS = 1000


@dataclass(frozen=True)
class SimConfig:
    """Simulator settings, built once; frozen and hashable, because
    ``MPCConfig`` holds one and the MPC's caches key on it."""

    wheelbase: float = 0.33
    dt_physics: float = 0.01
    dt_control: float = 0.05
    delta_max: float = 0.4189
    delta_rate_max: float = math.pi  # 180 deg/s
    a_max: float = 3.0
    speed_gain: float = 2.0

    def __post_init__(self):
        for name in ("wheelbase", "dt_physics", "dt_control", "delta_max",
                     "delta_rate_max", "a_max", "speed_gain"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        for name in ("dt_physics", "dt_control"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.substeps > MAX_SUBSTEPS:
            raise ValueError(f"dt_control / dt_physics must be at most {MAX_SUBSTEPS} "
                             f"substeps, got {self.substeps}")
        if self.substeps < 1 or abs(self.substeps * self.dt_physics - self.dt_control) > 1e-9:
            raise ValueError("dt_control must be a positive integer multiple of dt_physics")

    @property
    def substeps(self) -> int:
        return int(round(self.dt_control / self.dt_physics))


def _rk4(x: float, y: float, theta: float, v: float, a: float, delta: float,
         dt: float, wheelbase: float):
    """One RK4 advance of the kinematic bicycle on floats; returns (x, y, theta, v).

    The stages are dx = v cos(theta), dy = v sin(theta),
    dtheta = v / wheelbase * tan(delta) and dv = a. Position never enters
    them, and both midpoint stages see the same speed, so the same yaw rate.
    """
    half = 0.5 * dt
    tan_delta = math.tan(delta)
    v_mid = v + half * a
    v_end = v + dt * a
    yaw1 = v / wheelbase * tan_delta
    theta2 = theta + half * yaw1
    yaw2 = v_mid / wheelbase * tan_delta  # the third stage's too
    theta3 = theta + half * yaw2
    theta4 = theta + dt * yaw2
    yaw4 = v_end / wheelbase * tan_delta
    sixth = dt / 6.0
    return (
        x + sixth * (v * math.cos(theta) + 2.0 * (v_mid * math.cos(theta2))
                     + 2.0 * (v_mid * math.cos(theta3)) + v_end * math.cos(theta4)),
        y + sixth * (v * math.sin(theta) + 2.0 * (v_mid * math.sin(theta2))
                     + 2.0 * (v_mid * math.sin(theta3)) + v_end * math.sin(theta4)),
        wrap_angle(theta + sixth * (yaw1 + 2.0 * yaw2 + 2.0 * yaw2 + yaw4)),
        v + sixth * (a + 2.0 * a + 2.0 * a + a),  # rounds unlike 6.0 * a
    )


def rk4_step(state: VehicleState, a: float, delta: float, dt: float,
             wheelbase: float) -> VehicleState:
    """Classic fourth-order Runge-Kutta advance with constant (a, delta)."""
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    return VehicleState(*_rk4(state.x, state.y, state.theta, state.v, a, delta,
                              dt, wheelbase))


def speed_controller(v: float, v_cmd: float, config: SimConfig) -> float:
    """Proportional speed tracking clamped to the acceleration limit."""
    a = config.speed_gain * (v_cmd - v)
    return max(-config.a_max, min(config.a_max, a))


def control_step(state: VehicleState, cmd: Command, prev_delta: float,
                 config: SimConfig):
    """Advance one control period (several physics substeps).

    The commanded steering is clamped to the actuator bound, then moved
    toward per substep no faster than the steering rate limit. The speed
    controller is re-evaluated each substep. Returns the final state and
    the last applied steering angle.
    """
    target = max(-config.delta_max, min(config.delta_max, cmd.delta))
    dt = config.dt_physics
    max_change = config.delta_rate_max * dt
    x, y, theta, v = state.x, state.y, state.theta, state.v
    delta = prev_delta
    for _ in range(config.substeps):
        step = max(-max_change, min(max_change, target - delta))
        delta = delta + step
        a = speed_controller(v, cmd.v_cmd, config)
        x, y, theta, v = _rk4(x, y, theta, v, a, delta, dt, config.wheelbase)
    return VehicleState(x, y, theta, v), delta


def collision_check(raceline: Raceline, lateral_error: float) -> bool:
    """True iff a pose with this ``raceline.lateral_error`` left the corridor
    (strict), or the error is NaN."""
    return not abs(lateral_error) <= raceline.half_width
