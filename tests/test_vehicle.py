import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pursuitlab import raceline as rl
from pursuitlab.mpc import MPCConfig
from pursuitlab.pure_pursuit import PPParams
from pursuitlab.vehicle import (MAX_SUBSTEPS, Command, ControllerOutput, SimConfig,
                                VehicleState, collision_check, control_step, rk4_step,
                                speed_controller, wrap_angle)

from conftest import make_square_raceline

CFG = SimConfig()


# ----------------------------------------------------------------------
# Derivatives: the reference model the float RK4 kernel must reproduce
# ----------------------------------------------------------------------

def derivatives(theta, v, a, delta, wheelbase):
    """Kinematic bicycle time-derivative (dx, dy, dtheta, dv)."""
    return (v * math.cos(theta), v * math.sin(theta),
            v / wheelbase * math.tan(delta), a)


def reference_rk4_step(state, a, delta, dt, wheelbase):
    """Textbook RK4 over :func:`derivatives`, one stage tuple at a time."""
    k1 = derivatives(state.theta, state.v, a, delta, wheelbase)
    k2 = derivatives(state.theta + 0.5 * dt * k1[2], state.v + 0.5 * dt * k1[3],
                     a, delta, wheelbase)
    k3 = derivatives(state.theta + 0.5 * dt * k2[2], state.v + 0.5 * dt * k2[3],
                     a, delta, wheelbase)
    k4 = derivatives(state.theta + dt * k3[2], state.v + dt * k3[3],
                     a, delta, wheelbase)
    sixth = dt / 6.0
    return VehicleState(
        state.x + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        state.y + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        wrap_angle(state.theta + sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])),
        state.v + sixth * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]),
    )


def reference_control_step(state, cmd, prev_delta, config):
    """One control period of rate-limited substeps over :func:`reference_rk4_step`."""
    target = max(-config.delta_max, min(config.delta_max, cmd.delta))
    max_change = config.delta_rate_max * config.dt_physics
    delta = prev_delta
    for _ in range(config.substeps):
        delta = delta + max(-max_change, min(max_change, target - delta))
        a = speed_controller(state.v, cmd.v_cmd, config)
        state = reference_rk4_step(state, a, delta, config.dt_physics, config.wheelbase)
    return state, delta


def assert_same_floats(got, want):
    """Equal field by field, with the sign of zero."""
    for g, w in zip(got, want):
        assert g == w and math.copysign(1.0, g) == math.copysign(1.0, w)


def state_fields(state):
    return (state.x, state.y, state.theta, state.v)


finite = st.floats(-1e3, 1e3)
states = st.builds(VehicleState, finite, finite, st.floats(-math.pi, math.pi),
                   st.floats(-5.0, 30.0))


@given(states, st.floats(-5.0, 5.0), st.floats(-1.2, 1.2),
       st.sampled_from([0.001, 0.01, 0.02, 0.05]), st.floats(0.1, 1.0))
def test_rk4_step_is_the_reference_rk4(state, a, delta, dt, wheelbase):
    got = rk4_step(state, a, delta, dt, wheelbase)
    assert_same_floats(state_fields(got),
                       state_fields(reference_rk4_step(state, a, delta, dt, wheelbase)))


@given(states, st.floats(-1.0, 1.0), st.floats(-5.0, 30.0), st.floats(-0.6, 0.6),
       st.integers(1, 10), st.sampled_from([0.005, 0.01, 0.02]),
       st.floats(0.05, 1.0), st.floats(0.1, 5.0), st.floats(0.1, 0.6))
def test_control_step_is_the_reference_rk4(state, delta_cmd, v_cmd, prev_delta,
                                           substeps, dt_physics, delta_rate_max,
                                           speed_gain, delta_max):
    # Commands beyond delta_max exercise the clamp; small rate limits and
    # far targets exercise the rate limit.
    config = SimConfig(dt_physics=dt_physics, dt_control=substeps * dt_physics,
                       delta_rate_max=delta_rate_max, speed_gain=speed_gain,
                       delta_max=delta_max)
    assert config.substeps == substeps
    cmd = Command(delta_cmd, v_cmd)
    got, applied = control_step(state, cmd, prev_delta, config)
    want, want_applied = reference_control_step(state, cmd, prev_delta, config)
    assert_same_floats(state_fields(got) + (applied,),
                       state_fields(want) + (want_applied,))


def test_derivatives_straight_motion():
    d = derivatives(0.0, 1.0, 0.0, 0.0, CFG.wheelbase)
    assert d == (1.0, 0.0, 0.0, 0.0)


def test_derivatives_at_rest():
    d = derivatives(0.7, 0.0, 2.5, 0.3, CFG.wheelbase)
    assert d[0] == 0.0 and d[1] == 0.0 and d[2] == 0.0
    assert d[3] == 2.5


def test_derivatives_yaw_rate():
    d = derivatives(0.0, 1.0, 0.0, 0.3, 0.33)
    assert d[2] == pytest.approx(math.tan(0.3) / 0.33, abs=1e-12)
    assert d[2] == pytest.approx(0.93738, abs=1e-5)


# ----------------------------------------------------------------------
# RK4 integration
# ----------------------------------------------------------------------

def test_rk4_linear_motion_is_exact():
    s = rk4_step(VehicleState(0, 0, 0, 2.0), 0.0, 0.0, 0.01, CFG.wheelbase)
    assert s.x == pytest.approx(0.02, abs=1e-16)
    assert s.y == 0.0 and s.theta == 0.0 and s.v == 2.0


def test_rk4_constant_acceleration_is_exact():
    s = VehicleState(0, 0, 0, 0.0)
    for _ in range(10):
        s = rk4_step(s, 3.0, 0.0, 0.01, CFG.wheelbase)
    assert s.v == pytest.approx(0.3, abs=1e-12)


def circle_radius_error(dt, delta=0.3, v=1.0, wheelbase=0.33, angle=math.pi / 2):
    """Max relative radius error over a turn of the given angle."""
    radius = wheelbase / math.tan(delta)
    omega = v * math.tan(delta) / wheelbase
    steps = int(round(angle / (omega * dt)))
    s = VehicleState(0.0, 0.0, 0.0, v)
    center = (0.0, radius)
    worst = 0.0
    for _ in range(steps):
        s = rk4_step(s, 0.0, delta, dt, wheelbase)
        r = math.hypot(s.x - center[0], s.y - center[1])
        worst = max(worst, abs(r - radius) / radius)
    return worst


def test_rk4_quarter_turn_radius():
    radius = 0.33 / math.tan(0.3)
    assert radius == pytest.approx(1.0668, abs=1e-4)
    assert circle_radius_error(0.01, delta=0.3, v=1.0) < 1e-3


def test_rk4_fourth_order_convergence():
    # Larger steering and speed give truncation error far above roundoff.
    coarse = circle_radius_error(0.02, delta=0.35, v=5.0)
    fine = circle_radius_error(0.01, delta=0.35, v=5.0)
    assert coarse / fine >= 8.0


def test_straight_line_has_no_drift():
    heading = 0.7
    s = VehicleState(1.0, -2.0, heading, 3.0)
    for _ in range(1000):
        s = rk4_step(s, 0.0, 0.0, CFG.dt_physics, CFG.wheelbase)
    cross = -math.sin(heading) * (s.x - 1.0) + math.cos(heading) * (s.y + 2.0)
    assert abs(cross) < 1e-12
    assert s.theta == pytest.approx(heading, abs=1e-12)


def test_rk4_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        rk4_step(VehicleState(0, 0, 0, 1.0), 0.0, 0.0, 0.0, 0.33)


def test_theta_stays_wrapped():
    s = VehicleState(0, 0, 3.0, 2.0)
    for _ in range(500):
        s = rk4_step(s, 0.0, 0.35, 0.01, CFG.wheelbase)
        assert -math.pi < s.theta <= math.pi


def test_wrap_angle_halfopen_interval():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)


# ----------------------------------------------------------------------
# Speed controller
# ----------------------------------------------------------------------

def test_speed_controller_zero_error():
    assert speed_controller(4.0, 4.0, CFG) == 0.0


def test_speed_controller_clamps():
    assert speed_controller(0.0, 5.0, CFG) == 3.0   # raw 10 clamps to a_max
    assert speed_controller(5.0, 0.0, CFG) == -3.0  # symmetric clamp


def test_speed_never_overshoots_command():
    s = VehicleState(0, 0, 0, 0.5)
    v_cmd = 4.0
    for _ in range(2000):
        a = speed_controller(s.v, v_cmd, CFG)
        s = rk4_step(s, a, 0.0, CFG.dt_physics, CFG.wheelbase)
        assert s.v <= v_cmd + CFG.a_max * CFG.dt_physics
    assert s.v == pytest.approx(v_cmd, abs=1e-6)


# ----------------------------------------------------------------------
# Control step: clamping and rate limiting
# ----------------------------------------------------------------------

def test_control_step_no_rate_limit_when_steady():
    state = VehicleState(0, 0, 0, 2.0)
    _, applied = control_step(state, Command(0.2, 2.0), 0.2, CFG)
    assert applied == 0.2


def test_control_step_rate_limits_first_substep():
    one_substep = SimConfig(dt_control=0.01)
    state = VehicleState(0, 0, 0, 2.0)
    _, applied = control_step(state, Command(0.4, 2.0), 0.0, one_substep)
    assert applied == pytest.approx(math.pi * 0.01, abs=1e-12)


def test_control_step_clamps_command_to_actuator_bound():
    state = VehicleState(0, 0, 0, 2.0)
    _, applied = control_step(state, Command(0.5, 2.0), 0.4189, CFG)
    assert applied == 0.4189


def test_steering_never_violates_bounds():
    rng = np.random.default_rng(2)
    one_substep = SimConfig(dt_control=0.01)
    state = VehicleState(0, 0, 0, 3.0)
    prev = 0.0
    max_change = CFG.delta_rate_max * CFG.dt_physics
    for _ in range(2000):
        cmd = Command(float(rng.uniform(-1.0, 1.0)), 3.0)
        state, applied = control_step(state, cmd, prev, one_substep)
        assert abs(applied) <= CFG.delta_max + 1e-15
        assert abs(applied - prev) <= max_change + 1e-15
        prev = applied


def test_control_step_runs_expected_substeps():
    # 5 substeps at the rate limit accumulate 5x the per-substep change.
    state = VehicleState(0, 0, 0, 2.0)
    _, applied = control_step(state, Command(0.4, 2.0), 0.0, CFG)
    assert applied == pytest.approx(5 * math.pi * 0.01, abs=1e-12)


def test_sim_config_validates_substep_ratio():
    with pytest.raises(ValueError, match="integer multiple"):
        SimConfig(dt_control=0.025, dt_physics=0.01)


@pytest.mark.parametrize("periods, message", [
    ({"dt_physics": math.inf}, "dt_physics must be finite"),  # 0 substeps
    ({"dt_control": math.inf}, "dt_control must be finite"),  # inf substeps
    ({"dt_physics": 1e300, "dt_control": 1e-300}, "positive integer multiple"),
], ids=["inf_dt_physics", "inf_dt_control", "zero_substeps"])
def test_sim_config_rejects_a_simulator_that_never_steps(periods, message):
    with pytest.raises(ValueError, match=message):
        SimConfig(**periods)


@pytest.mark.parametrize("dt_physics", [1e-12, 0.05 / (MAX_SUBSTEPS + 1)],
                         ids=["5e10_substeps", "one_over_the_bound"])
def test_sim_config_bounds_the_substeps_per_control_step(dt_physics):
    """Only builds the configs: a step of the rejected ones would run
    thousands (or 5e10) of RK4 advances."""
    assert SimConfig(dt_physics=0.05 / MAX_SUBSTEPS).substeps == MAX_SUBSTEPS
    with pytest.raises(ValueError, match=rf"at most {MAX_SUBSTEPS} substeps"):
        SimConfig(dt_physics=dt_physics)


@pytest.mark.parametrize("name", ["wheelbase", "dt_physics", "dt_control", "delta_max",
                                  "delta_rate_max", "a_max", "speed_gain", "rk4_dt"])
def test_positive_settings_reject_nan(name):
    with pytest.raises(ValueError, match="must be > 0"):
        if name == "rk4_dt":
            rk4_step(VehicleState(0, 0, 0, 1.0), 0.0, 0.0, float("nan"), 0.33)
        else:
            SimConfig(**{name: float("nan")})


def test_control_step_determinism():
    state = VehicleState(0.3, -0.2, 0.1, 2.5)
    a = control_step(state, Command(0.1, 3.0), 0.05, CFG)
    b = control_step(state, Command(0.1, 3.0), 0.05, CFG)
    assert a == b


# ----------------------------------------------------------------------
# Collision proxy
# ----------------------------------------------------------------------

def test_collision_inside_corridor(oval_track):
    state = VehicleState(float(oval_track.x[4]), float(oval_track.y[4]), 0.0, 1.0)
    assert not collision_check(oval_track, rl.lateral_error(oval_track, state.position))


def test_collision_outside_corridor():
    track = make_square_raceline()  # half_width 1.1
    assert collision_check(track, rl.lateral_error(track, (0.7, -1.2)))


def test_collision_boundary_is_strict():
    track = make_square_raceline()
    # Exactly half_width off the bottom straight: 1.1 is exact in both places.
    assert rl.lateral_error(track, (0.7, -1.1)) == -1.1
    assert not collision_check(track, rl.lateral_error(track, (0.7, -1.1)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("position", [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
                                      (0.0, -math.inf)])
def test_collision_non_finite_pose_is_off_track(position):
    """A pose with a NaN or infinite coordinate is nowhere on the track."""
    track = make_square_raceline()
    error = rl.lateral_error(track, position)
    assert math.isnan(error)
    assert collision_check(track, error)


@pytest.mark.parametrize("error", [math.nan, math.inf, -math.inf])
def test_collision_non_finite_error_is_off_track(error):
    assert collision_check(make_square_raceline(), error)


# ----------------------------------------------------------------------
# Record contract: per-step records are slotted, configs frozen
# ----------------------------------------------------------------------

PER_STEP_RECORDS = [VehicleState(0.0, 0.0, 0.0, 1.0), Command(0.1, 2.0), PPParams(1.0, 0.9),
                    ControllerOutput(Command(0.1, 2.0), PPParams(1.0, 0.9), "fixed")]


@pytest.mark.parametrize("record", PER_STEP_RECORDS, ids=lambda r: type(r).__name__)
def test_per_step_records_are_slotted(record):
    """A control step builds several of these, and a frozen dataclass's
    ``__init__``, slotted or not, costs about twice a plain slotted one's."""
    fields = tuple(f.name for f in dataclasses.fields(record))
    assert not type(record).__dataclass_params__.frozen
    assert type(record).__slots__ == fields
    assert not hasattr(record, "__dict__")
    assert record == dataclasses.replace(record)
    assert repr(record).startswith(f"{type(record).__name__}({fields[0]}=")


@pytest.mark.parametrize("config", [SimConfig(), MPCConfig()], ids=lambda c: type(c).__name__)
def test_configs_stay_frozen_and_hashable(config):
    """``mpc.qp_template`` and the horizon memo key ``lru_cache`` on them."""
    assert hash(config) == hash(dataclasses.replace(config))
    for field in dataclasses.fields(config):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field.name, getattr(config, field.name))
