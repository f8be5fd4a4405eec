import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from pursuitlab import pure_pursuit as pp
from pursuitlab import raceline as rl
from pursuitlab.vehicle import VehicleState

from conftest import make_square_raceline


# ----------------------------------------------------------------------
# Vehicle-frame transform
# ----------------------------------------------------------------------

def test_frame_point_dead_ahead():
    x, y = pp.to_vehicle_frame(VehicleState(0, 0, 0, 1.0), (2.0, 0.0))
    assert (x, y) == (2.0, 0.0)


def test_frame_rotated_vehicle():
    # Facing north, a point 1 m north is 1 m straight ahead.
    x, y = pp.to_vehicle_frame(VehicleState(0, 0, math.pi / 2, 1.0), (0.0, 1.0))
    assert x == pytest.approx(1.0, abs=1e-12)
    assert y == pytest.approx(0.0, abs=1e-12)


def test_frame_at_vehicle_position():
    x, y = pp.to_vehicle_frame(VehicleState(3.0, -2.0, 0.8, 1.0), (3.0, -2.0))
    assert (x, y) == (0.0, 0.0)


def test_frame_left_is_positive_y():
    _, y = pp.to_vehicle_frame(VehicleState(0, 0, 0, 1.0), (1.0, 0.5))
    assert y == 0.5


# ----------------------------------------------------------------------
# Steering law
# ----------------------------------------------------------------------

def test_steering_straight_target():
    assert pp.pp_steering(0.0, 1.5, 0.9) == 0.0


def test_steering_hand_value():
    assert pp.pp_steering(0.5, 2.0, 1.0) == pytest.approx(0.25, abs=1e-15)


def test_steering_clip():
    assert pp.pp_steering(1.0, 1.0, 1.0) == 0.35  # raw 2.0
    assert pp.pp_steering(-1.0, 1.0, 1.0) == -0.35


def test_steering_rejects_degenerate_lookahead():
    with pytest.raises(ValueError):
        pp.pp_steering(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        pp.pp_steering(0.5, -1.0, 1.0)


def test_steering_linear_in_gain_inside_clip():
    rng = np.random.default_rng(0)
    for _ in range(500):
        y = float(rng.uniform(-0.5, 0.5))
        lookahead = float(rng.uniform(1.0, 4.0))
        gain = float(rng.uniform(0.45, 1.0))
        scale = float(rng.uniform(0.1, 1.1))
        base = pp.pp_steering(y, lookahead, gain)
        scaled = pp.pp_steering(y, lookahead, scale * gain)
        if abs(base) < 0.35 and abs(scaled) < 0.35:
            assert scaled == pytest.approx(scale * base, rel=1e-12)


def test_steering_odd_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(500):
        y = float(rng.uniform(-3.0, 3.0))
        lookahead = float(rng.uniform(0.35, 4.0))
        gain = float(rng.uniform(0.45, 1.15))
        gamma = pp.pp_steering(y, lookahead, gain)
        assert pp.pp_steering(-y, lookahead, gain) == -gamma
        assert math.copysign(1.0, gamma) == math.copysign(1.0, y) or gamma == 0.0


def test_gain_sensitivity_matches_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-6
    checked = 0
    while checked < 200:
        y = float(rng.uniform(-0.4, 0.4))
        lookahead = float(rng.uniform(1.0, 4.0))
        gain = float(rng.uniform(0.5, 1.1))
        if abs(pp.pp_steering(y, lookahead, gain + h)) >= 0.35:
            continue
        if abs(pp.pp_steering(y, lookahead, gain - h)) >= 0.35:
            continue
        fd = (pp.pp_steering(y, lookahead, gain + h)
              - pp.pp_steering(y, lookahead, gain - h)) / (2 * h)
        analytic = 2.0 * y / lookahead ** 2
        assert fd == pytest.approx(analytic, abs=1e-8)
        checked += 1


# ----------------------------------------------------------------------
# Teacher schedules
# ----------------------------------------------------------------------

def test_teacher_lookahead_values():
    assert pp.teacher_lookahead(0.0, 0.0) == pytest.approx(0.50, abs=1e-9)
    assert pp.teacher_lookahead(10.0, 0.1) == pytest.approx(2.95, abs=1e-9)
    assert pp.teacher_lookahead(18.0, 0.0) == pytest.approx(4.0, abs=1e-9)  # raw 5.54


def test_teacher_gain_values():
    assert pp.teacher_gain(3.0) == pytest.approx(0.90, abs=1e-9)
    assert pp.teacher_gain(18.0) == pytest.approx(0.65, abs=1e-9)
    assert pp.teacher_gain(30.0) == pytest.approx(0.45, abs=1e-9)  # raw 0.45 exactly


def test_teacher_outputs_stay_inside_action_bounds():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        v = float(rng.uniform(0.0, 40.0))
        kappa = float(rng.uniform(0.0, 3.0))
        lo, hi = pp.LOOKAHEAD_BOUNDS
        assert lo <= pp.teacher_lookahead(v, kappa) <= hi
        lo, hi = pp.GAIN_BOUNDS
        assert lo <= pp.teacher_gain(v) <= hi


# ----------------------------------------------------------------------
# Adaptive schedule
# ----------------------------------------------------------------------

def test_adaptive_lookahead_endpoints_and_midpoint():
    assert pp.adaptive_lookahead(2.0, 2.0, 8.0) == 1.0
    assert pp.adaptive_lookahead(8.0, 2.0, 8.0) == 2.5
    assert pp.adaptive_lookahead(5.0, 2.0, 8.0) == pytest.approx(1.75, abs=1e-12)
    assert pp.adaptive_lookahead(100.0, 2.0, 8.0) == 2.5
    with pytest.raises(ValueError):
        pp.adaptive_lookahead(1.0, 5.0, 5.0)


# ----------------------------------------------------------------------
# Smoothing
# ----------------------------------------------------------------------

def test_smoother_single_step():
    out = pp.smooth(pp.PPParams(1.0, 0.9), pp.PPParams(2.0, 0.9))
    assert out.lookahead == pytest.approx(1.2, abs=1e-15)  # 0.2*2 + 0.8*1
    assert out.gain == pytest.approx(0.9, abs=1e-15)


def test_smoother_fixed_point():
    out = pp.smooth(pp.PPParams(1.7, 0.8), pp.PPParams(1.7, 0.8))
    assert out.lookahead == pytest.approx(1.7, abs=1e-15)
    assert out.gain == pytest.approx(0.8, abs=1e-15)


def test_smoother_geometric_convergence():
    out = pp.PPParams(1.0, 0.9)
    target = pp.PPParams(3.0, 0.6)
    for t in range(1, 25):
        out = pp.smooth(out, target)
        expected = 0.8 ** t * (1.0 - 3.0)
        assert out.lookahead - 3.0 == pytest.approx(expected, rel=1e-12)


def test_smoothed_params_stay_in_bounds():
    rng = np.random.default_rng(4)
    out = pp.PPParams(1.0, 0.9)
    for _ in range(5000):
        raw = pp.PPParams(float(rng.uniform(*pp.LOOKAHEAD_BOUNDS)),
                          float(rng.uniform(*pp.GAIN_BOUNDS)))
        out = pp.smooth(out, raw)
        assert pp.LOOKAHEAD_BOUNDS[0] <= out.lookahead <= pp.LOOKAHEAD_BOUNDS[1]
        assert pp.GAIN_BOUNDS[0] <= out.gain <= pp.GAIN_BOUNDS[1]


# ----------------------------------------------------------------------
# Policy action to parameters
# ----------------------------------------------------------------------

reals = st.floats(allow_nan=False)


@given(reals, reals)
def test_joint_action_is_clipped_into_the_bounds(lookahead, gain):
    source = pp.ExternalSource("joint")
    params = source.publish([lookahead, gain], now=0.0)
    assert pp.LOOKAHEAD_BOUNDS[0] <= params.lookahead <= pp.LOOKAHEAD_BOUNDS[1]
    assert pp.GAIN_BOUNDS[0] <= params.gain <= pp.GAIN_BOUNDS[1]
    assert params == pp.clip_params(lookahead, gain)
    # What the env records (raw_params) is what the controller applies.
    assert source.last_params is params
    assert pp.clip_params(params.lookahead, params.gain) == params


@given(reals, reals)
def test_ld_only_action_passes_the_fixed_gain_through(lookahead, fixed_gain):
    params = pp.ExternalSource("ld_only", fixed_gain).publish(np.array([lookahead]), 0.0)
    # An in-range fixed gain passes as it is; an out-of-range one comes back
    # clipped, like a joint action's gain.
    assert params == pp.clip_params(lookahead, fixed_gain)


@pytest.mark.parametrize("action, name", [((math.nan, 0.8), "lookahead"),
                                          ((2.0, math.nan), "gain")],
                         ids=["nan_lookahead", "nan_gain"])
def test_publish_rejects_a_nan_action(action, name):
    source = pp.ExternalSource("joint")
    with pytest.raises(ValueError, match=f"^{name} must not be NaN$"):
        source.publish(action, now=0.0)
    assert source.last_params is None


@pytest.mark.parametrize("build", [lambda: pp.FixedSource(math.nan, 0.8),
                                   lambda: pp.FixedSource(2.0, math.nan),
                                   lambda: pp.AdaptiveLinearSource(2.0, 8.0, math.nan),
                                   lambda: pp.ExternalSource("ld_only", math.nan)],
                         ids=["fixed_lookahead", "fixed_gain", "adaptive_gain",
                              "external_fixed_gain"])
def test_sources_reject_a_nan_constant_when_built(build):
    with pytest.raises(ValueError, match="must not be NaN"):
        build()


def test_smoother_start_per_action_mode():
    assert pp.ExternalSource("joint", 0.6).start() == pp.PPParams(*pp.SMOOTHER_INIT)
    assert pp.ExternalSource("ld_only", 0.6).start() == pp.PPParams(pp.SMOOTHER_INIT[0], 0.6)
    # The start keeps the fixed gain inside the bounds the published gain obeys.
    assert pp.ExternalSource("ld_only", 0.3).start().gain == pp.GAIN_BOUNDS[0]
    assert pp.ExternalSource("ld_only", 2.0).start().gain == pp.GAIN_BOUNDS[1]


def test_start_empties_the_slot():
    source = pp.ExternalSource()
    source.publish([1.5, 0.9], now=1.0)
    assert source.fresh(1.0)
    source.start()
    assert source.last_params is None and not source.fresh(1.0)


@given(st.sampled_from(["joint", "ld_only"]), st.integers(0, 4))
def test_wrong_length_action_is_rejected(mode, length):
    source = pp.ExternalSource(mode)
    assume(length != source.action_dim)
    with pytest.raises(ValueError, match="-D action"):
        source.publish(np.ones(length), 0.0)


def test_external_source_rejects_unknown_action_mode():
    with pytest.raises(ValueError, match="action_mode"):
        pp.ExternalSource("ld-only")


# ----------------------------------------------------------------------
# Parameter sources and controller modes
# ----------------------------------------------------------------------

def test_external_source_freshness():
    source = pp.ExternalSource(timeout=0.2)
    assert not source.fresh(0.0)  # nothing received yet
    source.publish([1.5, 0.9], now=1.0)
    assert source.fresh(1.1)
    assert source.fresh(1.2)      # exactly at the timeout still fresh
    assert not source.fresh(1.21)


def test_external_source_rejects_bad_timeout():
    for timeout in (0.0, -0.1, math.nan):  # a NaN slot would never be fresh
        with pytest.raises(ValueError, match="timeout must be > 0"):
            pp.ExternalSource(timeout=timeout)


@pytest.mark.parametrize("v_lo, v_hi", [(math.nan, 8.0), (2.0, math.nan), (3.0, 3.0)],
                         ids=["nan_v_lo", "nan_v_hi", "empty_band"])
def test_adaptive_band_rejects_nan_and_empty_bands(v_lo, v_hi):
    with pytest.raises(ValueError, match="v_lo must be < v_hi"):
        pp.adaptive_lookahead(5.0, v_lo, v_hi)
    with pytest.raises(ValueError, match="v_lo must be < v_hi"):
        pp.AdaptiveLinearSource(v_lo, v_hi, 0.8)


def test_controller_external_fresh_is_rl_mode():
    track = make_square_raceline()
    source = pp.ExternalSource(timeout=0.2)
    controller = pp.PurePursuitController(track, source)
    controller.reset()
    source.publish([1.5, 0.9], now=0.0)
    state = VehicleState(0.1, 0.0, 0.0, 2.0)
    result = controller.step(state, rl.nearest_index(track, state.position), now=0.0)
    assert result.mode == "rl"


def test_controller_staleness_falls_back_to_teacher():
    track = make_square_raceline(v=5.0)
    source = pp.ExternalSource(timeout=0.2)
    controller = pp.PurePursuitController(track, source)
    controller.reset()
    source.publish([4.0, 1.15], now=0.0)
    state = VehicleState(0.1, 0.0, 0.0, 2.0)
    # 0.5 s since receipt > 0.2 s
    result = controller.step(state, rl.nearest_index(track, state.position), now=0.5)
    assert result.mode == "teacher"
    # Applied params are the smoothed teacher values.
    expected_l = 0.2 * pp.teacher_lookahead(2.0, 0.0) + 0.8 * 1.0
    expected_g = 0.2 * pp.teacher_gain(2.0) + 0.8 * 0.9
    assert result.params.lookahead == pytest.approx(expected_l, abs=1e-12)
    assert result.params.gain == pytest.approx(expected_g, abs=1e-12)


def test_controller_fixed_on_straight():
    track = make_square_raceline(v=5.0)
    controller = pp.PurePursuitController(track, pp.FixedSource(1.0, 0.9))
    controller.reset()
    state = VehicleState(0.05, 0.0, 0.0, 2.0)
    result = controller.step(state, rl.nearest_index(track, state.position), now=0.0)
    assert result.mode == "fixed"
    assert result.command.delta == pytest.approx(0.0, abs=1e-12)
    assert result.command.v_cmd == 5.0
    assert result.params == pp.PPParams(1.0, 0.9)


def test_controller_adaptive_mode_uses_speed():
    track = make_square_raceline(v=6.0)
    controller = pp.PurePursuitController(
        track, pp.AdaptiveLinearSource(2.0, 8.0, 0.85))
    state = VehicleState(0.05, 0.0, 0.0, 5.0)
    result = controller.step(state, rl.nearest_index(track, state.position), now=0.0)
    assert result.mode == "adaptive"
    assert result.params.lookahead == pytest.approx(1.75, abs=1e-12)
    assert result.params.gain == 0.85


def test_fresh_actions_every_step_never_trigger_teacher(oval_track):
    source = pp.ExternalSource(timeout=0.2)
    controller = pp.PurePursuitController(oval_track, source)
    controller.reset()
    state = VehicleState(float(oval_track.x[0]), float(oval_track.y[0]), 0.0, 2.0)
    teacher_steps = 0
    total = 400
    for k in range(total):
        now = 0.05 * k
        source.publish([1.5, 0.9], now)
        result = controller.step(state, 0, now)
        if result.mode == "teacher":
            teacher_steps += 1
    assert teacher_steps == 0


def test_controller_rejects_unknown_source(oval_track):
    with pytest.raises(TypeError, match="object"):
        pp.PurePursuitController(oval_track, object())
