import math
import struct

import numpy as np
import pytest

from pursuitlab import raceline as rl
from pursuitlab.controllers import PolicySource, PurePursuitAdapter
from pursuitlab.env import (EnvConfig, RacingEnv, RewardContext, RewardWeights,
                            compute_reward, observe, preshorten_ceiling)
from pursuitlab.nets import DenseNet, GaussianPolicy
from pursuitlab.ppo import PolicyBundle, RunningNormalizer
from pursuitlab.pure_pursuit import GAIN_BOUNDS, teacher_gain, teacher_lookahead
from pursuitlab.vehicle import VehicleState, control_step


def reward_oracle(ctx: RewardContext, w: RewardWeights) -> float:
    """Independent term-by-term reward: each term written out separately."""
    speed_term = w.speed * ctx.v
    lookahead_teacher_term = -w.lookahead_tracking * abs(
        ctx.lookahead - ctx.teacher_lookahead)
    gain_teacher_term = -w.gain_tracking * abs(ctx.gain - ctx.teacher_gain)
    lookahead_jerk_term = -w.lookahead_jerk * abs(
        ctx.lookahead - ctx.prev_lookahead)
    gain_jerk_term = -w.gain_jerk * abs(ctx.gain - ctx.prev_gain)
    curvature_term = -w.curvature * abs(ctx.kappa_local)
    cross_term = -w.lookahead_curvature * ctx.lookahead * ctx.kappa_max
    bend = 1.0 if ctx.kappa_max > w.kappa_bend else 0.0
    short = 1.0 if ctx.lookahead <= 0.50 + 0.28 * ctx.v else 0.0
    preshorten_term = w.preshorten_bonus * bend * short
    collision_term = -w.collision if ctx.collision else 0.0
    slow_term = -w.slow if ctx.slow else 0.0
    progress_term = w.progress * ctx.progress
    total = (speed_term + lookahead_teacher_term + gain_teacher_term
             + lookahead_jerk_term + gain_jerk_term + curvature_term
             + cross_term + preshorten_term + collision_term + slow_term
             + progress_term)
    return min(w.clip_hi, max(w.clip_lo, total))


def random_context(rng) -> RewardContext:
    v = float(rng.uniform(0.0, 16.0))
    return RewardContext(
        v=v,
        lookahead=float(rng.uniform(0.35, 4.0)),
        gain=float(rng.uniform(0.45, 1.15)),
        prev_lookahead=float(rng.uniform(0.35, 4.0)),
        prev_gain=float(rng.uniform(0.45, 1.15)),
        kappa_max=float(rng.uniform(0.0, 1.5)),
        kappa_local=float(rng.uniform(0.0, 1.5)),
        progress=int(rng.integers(0, 4)),
        collision=bool(rng.random() < 0.1),
        slow=bool(rng.random() < 0.1),
        teacher_lookahead=float(rng.uniform(0.35, 4.0)),
        teacher_gain=float(rng.uniform(0.45, 1.15)),
    )


# ----------------------------------------------------------------------
# Reward
# ----------------------------------------------------------------------

def test_reward_matches_oracle_on_random_contexts():
    rng = np.random.default_rng(0)
    weights = RewardWeights()
    for _ in range(10_000):
        ctx = random_context(rng)
        got = compute_reward(ctx, weights)
        assert got == pytest.approx(reward_oracle(ctx, weights), abs=1e-12)
        assert weights.clip_lo <= got <= weights.clip_hi


def test_reward_matches_oracle_with_random_weights():
    rng = np.random.default_rng(1)
    for _ in range(300):
        weights = RewardWeights(
            speed=float(rng.uniform(0, 3)),
            lookahead_tracking=float(rng.uniform(0, 4)),
            gain_tracking=float(rng.uniform(0, 2)),
            lookahead_jerk=float(rng.uniform(0, 1)),
            gain_jerk=float(rng.uniform(0, 1)),
            curvature=float(rng.uniform(0, 2)),
            lookahead_curvature=float(rng.uniform(0, 3)),
            preshorten_bonus=float(rng.uniform(0, 2)),
            collision=float(rng.uniform(0, 20)),
            slow=float(rng.uniform(0, 1)),
            progress=float(rng.uniform(0, 2)),
        )
        ctx = random_context(rng)
        assert compute_reward(ctx, weights) == pytest.approx(
            reward_oracle(ctx, weights), abs=1e-12)


def test_reward_worked_example_cruising():
    # v=5, zero curvature, lookahead equals the teacher target, no jerk,
    # no flags, one waypoint passed: 1.8*5 + 1*1 = 10.
    ctx = RewardContext(v=5.0, lookahead=1.9, gain=0.8, prev_lookahead=1.9,
                        prev_gain=0.8, kappa_max=0.0, kappa_local=0.0,
                        progress=1, collision=False, slow=False,
                        teacher_lookahead=1.9, teacher_gain=0.8)
    assert compute_reward(ctx, RewardWeights()) == pytest.approx(10.0, abs=1e-12)


def test_reward_worked_example_collision_at_rest():
    # Collision at rest also trips the slow penalty: -10 - 0.5 = -10.5.
    ctx = RewardContext(v=0.0, lookahead=1.0, gain=0.8, prev_lookahead=1.0,
                        prev_gain=0.8, kappa_max=0.0, kappa_local=0.0,
                        progress=0, collision=True, slow=True,
                        teacher_lookahead=1.0, teacher_gain=0.8)
    assert compute_reward(ctx, RewardWeights()) == pytest.approx(-10.5, abs=1e-12)


def test_reward_clip_bounds():
    weights = RewardWeights()
    ctx = RewardContext(v=1000.0, lookahead=1.0, gain=0.8, prev_lookahead=1.0,
                        prev_gain=0.8, kappa_max=0.0, kappa_local=0.0,
                        progress=50, collision=False, slow=False,
                        teacher_lookahead=1.0, teacher_gain=0.8)
    assert compute_reward(ctx, weights) == 100.0
    ctx2 = RewardContext(v=0.0, lookahead=4.0, gain=1.15, prev_lookahead=0.35,
                         prev_gain=0.45, kappa_max=10.0, kappa_local=30.0,
                         progress=0, collision=True, slow=True,
                         teacher_lookahead=0.35, teacher_gain=0.45)
    assert compute_reward(ctx2, weights) == -30.0


@pytest.mark.parametrize("change, message", [
    ({"speed": math.nan}, "speed must be >= 0"),
    ({"collision": -1.0}, "collision must be >= 0"),
    ({"kappa_bend": math.nan}, "kappa_bend must be >= 0"),
    ({"v_slow": -0.5}, "v_slow must be >= 0"),
    ({"clip_lo": math.nan}, "clip_lo must be < clip_hi"),
    ({"clip_hi": math.nan}, "clip_lo must be < clip_hi"),
    ({"clip_lo": 5.0, "clip_hi": 5.0}, "clip_lo must be < clip_hi"),
], ids=["nan_speed", "negative_collision", "nan_kappa_bend", "negative_v_slow",
        "nan_clip_lo", "nan_clip_hi", "empty_clip"])
def test_reward_weights_reject_nan_and_out_of_range_values(change, message):
    with pytest.raises(ValueError, match=message):
        RewardWeights(**change)


@pytest.mark.parametrize("change", [{"laps": 0}, {"laps": math.nan},
                                    {"max_steps": 0}, {"max_steps": math.nan}],
                         ids=["zero_laps", "nan_laps", "zero_steps", "nan_steps"])
def test_env_config_rejects_nan_and_nonpositive_caps(change):
    with pytest.raises(ValueError, match="laps and max_steps must be >= 1"):
        EnvConfig(**change)


@pytest.mark.parametrize("name", ["spawn_lateral_jitter", "spawn_heading_jitter",
                                  "spawn_speed_fraction"])
@pytest.mark.parametrize("value", [math.nan, -0.1], ids=["nan", "negative"])
def test_env_config_rejects_nan_and_negative_spawn_values(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
        EnvConfig(**{name: value})


def test_preshorten_bonus_factorial():
    w = RewardWeights()
    v = 4.0
    ceiling = preshorten_ceiling(v)
    base = dict(v=v, gain=0.8, prev_gain=0.8, kappa_local=0.0, progress=0,
                collision=False, slow=False, teacher_gain=0.8)

    def reward(kappa_max, lookahead):
        ctx = RewardContext(lookahead=lookahead, prev_lookahead=lookahead,
                            kappa_max=kappa_max, teacher_lookahead=lookahead,
                            **base)
        # Cancel the cross term to isolate the bonus.
        plain = compute_reward(ctx, w)
        return plain + w.lookahead_curvature * lookahead * kappa_max

    bend, straight = w.kappa_bend + 0.1, 0.0
    short, long = ceiling - 0.2, ceiling + 0.2
    assert reward(bend, short) - reward(straight, short) == pytest.approx(
        w.preshorten_bonus, abs=1e-12)
    assert reward(bend, long) == pytest.approx(reward(straight, long), abs=1e-12)
    assert reward(straight, short) == pytest.approx(reward(straight, long), abs=1e-12)


# ----------------------------------------------------------------------
# Observation
# ----------------------------------------------------------------------

def test_observe_stationary_on_straight(oval_track):
    state = VehicleState(float(oval_track.x[2]), float(oval_track.y[2]), 0.0, 0.0)
    obs = observe(state, rl.taps(oval_track, 2))
    np.testing.assert_allclose(obs, [0.0, 0.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_observe_far_tap_previews_arc():
    track = rl.synthesize_track("oval", straight=10.0, radius=2.0, spacing=0.25)
    arc_start = int(np.argmax(track.kappa != 0.0))
    i = arc_start - 8  # offset 12 reaches into the arc, offset 5 does not
    state = VehicleState(float(track.x[i]), float(track.y[i]), 0.0, 3.0)
    obs = observe(state, rl.taps(track, i))
    assert obs[1] == 0.0           # kappa0 still on the straight
    assert obs[2] == 0.0           # kappa1 still on the straight
    assert obs[3] == pytest.approx(0.5, abs=1e-12)  # kappa2 inside radius 2


def test_observe_dkappa_identity(oval_track):
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = rng.uniform(-5, 20, size=2)
        state = VehicleState(p[0], p[1], 0.0, float(rng.uniform(0, 8)))
        obs = observe(state, rl.taps(oval_track, rl.nearest_index(oval_track, p)))
        assert obs[4] == obs[2] - obs[1]


# ----------------------------------------------------------------------
# Episode mechanics
# ----------------------------------------------------------------------

def teacher_action(obs):
    kmax = max(obs[1], obs[2], obs[3])
    return np.array([teacher_lookahead(obs[0], kmax), teacher_gain(obs[0])])


def test_reset_is_deterministic(oval_track):
    env = RacingEnv(oval_track, seed=5)
    a = env.reset(seed=9)
    b = env.reset(seed=9)
    np.testing.assert_array_equal(a, b)


def test_reset_rejects_a_spawn_waypoint_off_the_loop(oval_track):
    env = RacingEnv(oval_track, seed=1)
    for spawn_index in (-1, oval_track.n):
        with pytest.raises(ValueError,
                           match=rf"^spawn_index must be in 0\.\.{oval_track.n - 1}, "):
            env.reset(spawn_index=spawn_index)


def test_reset_spawn_index_is_nearest(oval_track):
    env = RacingEnv(oval_track, seed=1)
    for spawn in (0, 17, 60):
        env.reset(seed=3, spawn_index=spawn)
        assert rl.nearest_index(oval_track, env.state.position) == spawn


def test_reset_without_jitter_is_on_line(oval_track):
    config = EnvConfig(spawn_lateral_jitter=0.0, spawn_heading_jitter=0.0)
    env = RacingEnv(oval_track, env_config=config, seed=0)
    env.reset(seed=0, spawn_index=4)
    assert rl.lateral_error(oval_track, env.state.position) == pytest.approx(
        0.0, abs=1e-12)
    assert env.state.v == 0.5 * float(oval_track.v_max[4])


def test_action_clipped_before_smoothing(oval_track):
    env = RacingEnv(oval_track, seed=0)
    env.reset(seed=0, spawn_index=0)
    _, _, _, info = env.step(np.array([5.0, 2.0]))
    assert info["raw_params"].lookahead == 4.0
    assert info["raw_params"].gain == 1.15
    # Smoothed value moved one smoothing step from the init toward the clip.
    assert info["params"].lookahead == pytest.approx(0.2 * 4.0 + 0.8 * 1.0)


def test_step_after_done_is_an_error(oval_track):
    env = RacingEnv(oval_track, env_config=EnvConfig(max_steps=2), seed=0)
    env.reset(seed=0)
    env.step(teacher_action(observe(env.state, rl.taps(
        oval_track, rl.nearest_index(oval_track, env.state.position)))))
    obs, _, done, _ = env.step([1.5, 0.9])
    assert done
    with pytest.raises(RuntimeError):
        env.step([1.5, 0.9])


def test_collision_sets_flag_and_penalty(oval_track):
    env = RacingEnv(oval_track, env_config=EnvConfig(max_steps=5000), seed=0)
    obs = env.reset(seed=0, spawn_index=2)
    done = False
    rewards = []
    while not done:
        # Hard-left lookahead abuse: maximum gain and minimum lookahead on a
        # straight eventually oscillates off the corridor at speed.
        obs, r, done, info = env.step([0.35, 1.15])
        rewards.append(r)
    assert info["collision"] or info["laps_complete"] or info["timeout"]
    if info["collision"]:
        ctx = info["reward_context"]
        assert rewards[-1] == pytest.approx(
            reward_oracle(ctx, env.weights), abs=1e-12)


def test_progress_only_reward_counts_waypoints():
    track = rl.synthesize_track("oval", straight=10.0, radius=3.0,
                                spacing=0.25, v_cap=3.0)
    weights = RewardWeights(speed=0, lookahead_tracking=0, gain_tracking=0,
                            lookahead_jerk=0, gain_jerk=0, curvature=0,
                            lookahead_curvature=0, preshorten_bonus=0,
                            collision=0, slow=0, progress=1.0)
    env = RacingEnv(track, weights=weights,
                    env_config=EnvConfig(laps=1, max_steps=20000), seed=3)
    obs = env.reset(seed=3, spawn_index=0)
    total = 0.0
    done = False
    while not done:
        obs, r, done, info = env.step(teacher_action(obs))
        total += r
    assert info["laps_complete"]
    assert total == pytest.approx(env.total_progress, abs=1e-12)
    assert env.total_progress == track.n


def test_full_lap_progress_sums_to_n():
    # Speeds below spacing/dt keep per-step advances at most 1 waypoint, so
    # the lap terminates exactly at N.
    track = rl.synthesize_track("oval", straight=10.0, radius=3.0,
                                spacing=0.25, v_cap=3.0)
    env = RacingEnv(track, env_config=EnvConfig(laps=1, max_steps=20000), seed=7)
    obs = env.reset(seed=7, spawn_index=10)
    done = False
    progress = 0
    while not done:
        obs, _, done, info = env.step(teacher_action(obs))
        progress += info["progress"]
    assert info["laps_complete"]
    assert progress == track.n


def test_episode_determinism(oval_track):
    actions = [teacher_action(np.array([3.0, 0, 0, 0, 0]))] * 50

    def run():
        env = RacingEnv(oval_track, seed=11)
        obs = env.reset(seed=11)
        trail = [obs]
        for a in actions:
            obs, r, done, _ = env.step(a)
            trail.append(np.append(obs, r))
            if done:
                break
        return np.concatenate(trail), (env.state.x, env.state.y, env.state.theta, env.state.v)

    run1, state1 = run()
    run2, state2 = run()
    np.testing.assert_array_equal(run1, run2)
    assert state1 == state2


def test_params_forwarded_to_pp_stay_in_bounds(oval_track):
    env = RacingEnv(oval_track, seed=4)
    obs = env.reset(seed=4)
    rng = np.random.default_rng(8)
    for _ in range(300):
        action = rng.uniform([-2.0, -1.0], [8.0, 3.0])
        obs, _, done, info = env.step(action)
        assert 0.35 <= info["params"].lookahead <= 4.0
        assert 0.45 <= info["params"].gain <= 1.15
        if done:
            obs = env.reset()


def test_ld_only_mode_pins_gain(oval_track):
    config = EnvConfig(action_mode="ld_only", fixed_gain=0.85)
    env = RacingEnv(oval_track, env_config=config, seed=0)
    obs = env.reset(seed=0)
    assert env.action_dim == 1
    gains = []
    for _ in range(30):
        obs, _, done, info = env.step([float(obs[0]) * 0.2 + 0.5])
        gains.append(info["params"].gain)
        if done:
            obs = env.reset()
    # The smoother starts at g0 in this mode, so the gain never moves.
    assert max(abs(g - 0.85) for g in gains) < 1e-12


@pytest.mark.parametrize("fixed_gain", [0.3, 2.0])
def test_ld_only_out_of_range_fixed_gain_applies_in_bounds(oval_track, fixed_gain):
    # The smoother starts from the clipped fixed gain, so no step applies a
    # gain between the unclipped start and the bound.
    env = RacingEnv(oval_track, env_config=EnvConfig(
        action_mode="ld_only", fixed_gain=fixed_gain, max_steps=60), seed=0)
    env.reset(seed=0)
    done = False
    while not done:
        _, _, done, info = env.step([1.5])
        assert GAIN_BOUNDS[0] <= info["params"].gain <= GAIN_BOUNDS[1]


def _as_bytes(params):
    return struct.pack("<dd", params.lookahead, params.gain)


@pytest.mark.parametrize("mode, fixed_gain", [("joint", 0.6), ("ld_only", 0.6),
                                              ("ld_only", 2.0)])
def test_env_and_rl_controller_share_the_slot(oval_track, mode, fixed_gain):
    """Training and deployment reset to the same smoother start and, for the
    same actions, publish and apply the same parameters, byte for byte."""
    rng = np.random.default_rng(5)
    act_dim = 2 if mode == "joint" else 1
    # A wide spread so that some actions fall outside the bounds.
    bundle = PolicyBundle(GaussianPolicy(5, act_dim, rng, mean_bias=[-0.9, 0.7][:act_dim]),
                          DenseNet((5, 8, 1), rng, final_gain=1.0),
                          RunningNormalizer(5), {"action_mode": mode, "fixed_gain": fixed_gain})
    bundle.policy.mean_net.params[-2] *= 300.0
    env = RacingEnv(oval_track, env_config=EnvConfig(
        action_mode=mode, fixed_gain=fixed_gain, max_steps=80), seed=2)
    source = PolicySource(bundle)
    controller = PurePursuitAdapter(oval_track, source)
    obs = env.reset(seed=2)
    controller.reset()
    assert _as_bytes(env.controller.smoothed) == _as_bytes(controller.controller.smoothed)
    done, clipped = False, 0
    while not done:
        state, now = env.state, env.step_count * env.sim_config.dt_control
        output = controller.step(state, now)
        action = bundle.act(obs)
        obs, _, done, info = env.step(action)
        assert _as_bytes(info["raw_params"]) == _as_bytes(source.last_params)
        assert _as_bytes(info["params"]) == _as_bytes(output.params)
        clipped += info["raw_params"].lookahead != action[0]
    assert 0 < clipped < env.step_count, clipped


def test_controller_index_is_the_nearest_waypoint_of_the_state(oval_track):
    # Starts just before the seam, crosses it under the teacher, then abuses
    # the steering until the corridor is left and the episode restarts.
    env = RacingEnv(oval_track, seed=0)
    obs = env.reset(seed=0, spawn_index=oval_track.n - 5)
    indices = [env.prev_index]
    collisions = 0
    for k in range(120):
        assert env.prev_index == rl.nearest_index(oval_track, env.state.position)
        action = teacher_action(obs) if k < 20 else np.array([0.35, 1.15])
        obs, _, done, info = env.step(action)
        indices.append(env.prev_index)
        if done:
            assert info["collision"]
            collisions += 1
            obs = env.reset(spawn_index=0)
    assert env.prev_index == rl.nearest_index(oval_track, env.state.position)
    assert collisions >= 1
    assert any(b < a for a, b in zip(indices[:20], indices[1:21]))  # seam crossed


def test_env_step_locates_the_new_pose_once(oval_track, track_queries):
    env = RacingEnv(oval_track, seed=2)
    obs = env.reset(seed=2)
    for _ in range(40):
        track_queries.update(nearest_index=0, locate=0, lateral_error=0, taps=0)
        obs, _, done, info = env.step(teacher_action(obs))
        # Fresh actions: the reward and the observation share one preview.
        assert track_queries == {"nearest_index": 0, "locate": 1, "lateral_error": 0,
                                 "taps": 1}
        if done:
            obs = env.reset()


def _state_bytes(state):
    return struct.pack("<4d", state.x, state.y, state.theta, state.v)


def test_step_return_carries_the_reward_observation_and_command(oval_track):
    """The reward follows from info's reward context, the observation from
    the state and its waypoint, and the state from the previous one under
    info's command, each to the bit, across episode ends."""
    env = RacingEnv(oval_track, env_config=EnvConfig(max_steps=10), seed=0)
    obs = env.reset(seed=0)
    resets = 0
    for _ in range(30):
        state, prev_delta = env.state, env.prev_delta
        obs, r, done, info = env.step(teacher_action(obs))
        assert struct.pack("<d", r) == struct.pack(
            "<d", compute_reward(info["reward_context"], env.weights))
        assert obs.tobytes() == observe(env.state, rl.taps(oval_track, env.prev_index)).tobytes()
        assert _state_bytes(env.state) == _state_bytes(
            control_step(state, info["command"], prev_delta, env.sim_config)[0])
        if done:
            obs = env.reset()
            resets += 1
    assert resets == 3
