import copy
import csv
import math
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pursuitlab import ppo
from pursuitlab.nets import HIDDEN, Adam, DenseNet, GaussianPolicy
from pursuitlab.ppo import (PPOConfig, PPOTrainer, PolicyBundle,
                            ReturnNormalizer, RolloutBuffer, RunningNormalizer,
                            TrainingDiverged, clipped_surrogate, compute_gae,
                            load_checkpoint, lr_schedule, ppo_loss_and_grads,
                            ppo_update)

from test_nets import assert_grads_close, finite_difference_grads


# ----------------------------------------------------------------------
# Learning-rate schedules
# ----------------------------------------------------------------------

def test_linear_schedule():
    assert lr_schedule("linear", 2.4e-4, 1.0) == pytest.approx(2.4e-4, abs=1e-12)
    assert lr_schedule("linear", 2.4e-4, 0.5) == pytest.approx(1.2e-4, abs=1e-12)
    assert lr_schedule("linear", 2.4e-4, 0.0) == 0.0


def test_cosine_schedule():
    assert lr_schedule("cosine", 2.4e-4, 1.0) == pytest.approx(2.4e-4, abs=1e-12)
    assert lr_schedule("cosine", 2.4e-4, 0.5) == pytest.approx(1.2e-4, abs=1e-12)
    assert lr_schedule("cosine", 2.4e-4, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_schedule_rejects_bad_progress():
    with pytest.raises(ValueError):
        lr_schedule("linear", 1e-4, 1.5)


# ----------------------------------------------------------------------
# GAE
# ----------------------------------------------------------------------

SPECIAL_FLOATS = st.sampled_from([-0.0, math.inf, -math.inf, math.nan])


def maybe_special(draw, finite):
    """``finite``, or in half the examples ``finite`` mixed with -0.0, +-inf and NaN."""
    return finite | SPECIAL_FLOATS if draw(st.booleans()) else finite


def fill_buffer(rewards, values, episode_starts, obs_dim=1, act_dim=1):
    n = len(rewards)
    buf = RolloutBuffer(n, 1, obs_dim, act_dim)
    for r, v, s in zip(rewards, values, episode_starts):
        t = buf.add(np.zeros((1, obs_dim)), np.array([s]))
        buf.rewards[t] = r
        buf.values[t] = v
    return buf


def gae_oracle(rewards, values, episode_starts, last_value, last_done,
               gamma, lam):
    """Brute-force nested-loop sum of discounted one-step errors."""
    n = len(rewards)

    def next_value(t):
        if t == n - 1:
            return last_value, 1.0 - float(last_done)
        return values[t + 1], 1.0 - float(episode_starts[t + 1])

    deltas = []
    nonterminals = []
    for t in range(n):
        nv, nt = next_value(t)
        deltas.append(rewards[t] + gamma * nv * nt - values[t])
        nonterminals.append(nt)

    advantages = np.zeros(n)
    for t in range(n):
        acc = 0.0
        discount = 1.0
        for k in range(t, n):
            acc += discount * deltas[k]
            if nonterminals[k] == 0.0:
                break
            discount *= gamma * lam
        advantages[t] = acc
    return advantages, advantages + np.asarray(values)


def test_gae_worked_example():
    buf = fill_buffer([1.0, 1.0], [0.5, 0.5], [True, False])
    adv, ret = compute_gae(buf, np.array([0.5]), np.array([False]), 0.99, 0.98)
    assert adv[1, 0] == pytest.approx(0.995, abs=1e-12)
    assert adv[0, 0] == pytest.approx(1.960349, abs=1e-12)
    np.testing.assert_allclose(ret, adv + 0.5, atol=1e-12)


def test_gae_matches_bruteforce_with_terminals():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = 200
        rewards = rng.standard_normal(n)
        values = rng.standard_normal(n)
        starts = rng.random(n) < 0.05
        starts[0] = True
        last_value = float(rng.standard_normal())
        last_done = bool(rng.random() < 0.5)
        gamma, lam = 0.99, 0.98

        buf = fill_buffer(rewards, values, starts)
        adv, ret = compute_gae(buf, np.array([last_value]),
                               np.array([last_done]), gamma, lam)
        adv_oracle, ret_oracle = gae_oracle(rewards, values, starts,
                                            last_value, last_done, gamma, lam)
        np.testing.assert_allclose(adv[:, 0], adv_oracle, atol=1e-12)
        np.testing.assert_allclose(ret[:, 0], ret_oracle, atol=1e-12)


def test_gae_lambda_zero_is_one_step_advantage():
    rng = np.random.default_rng(1)
    n = 100
    rewards = rng.standard_normal(n)
    values = rng.standard_normal(n)
    starts = rng.random(n) < 0.1
    starts[0] = True
    buf = fill_buffer(rewards, values, starts)
    adv, _ = compute_gae(buf, np.array([0.3]), np.array([False]), 0.99, 0.0)
    for t in range(n):
        if t == n - 1:
            nv, nt = 0.3, 1.0
        else:
            nv, nt = values[t + 1], 1.0 - float(starts[t + 1])
        assert adv[t, 0] == pytest.approx(rewards[t] + 0.99 * nv * nt - values[t],
                                          abs=1e-12)


def test_gae_lambda_one_is_discounted_return_minus_value():
    rng = np.random.default_rng(2)
    n = 120
    gamma = 0.99
    rewards = rng.standard_normal(n)
    values = rng.standard_normal(n)
    starts = rng.random(n) < 0.08
    starts[0] = True
    last_value = 0.7
    buf = fill_buffer(rewards, values, starts)
    adv, _ = compute_gae(buf, np.array([last_value]), np.array([False]),
                         gamma, 1.0)
    # Telescoping-sum oracle: discounted reward sum to episode end (or the
    # bootstrap), minus the value.
    for t in range(n):
        acc = 0.0
        discount = 1.0
        bootstrap = True
        for k in range(t, n):
            acc += discount * rewards[k]
            if k < n - 1 and starts[k + 1]:
                bootstrap = False
                break
            discount *= gamma
        if bootstrap:
            acc += discount * last_value
        assert adv[t, 0] == pytest.approx(acc - values[t], abs=1e-10)


def reference_gae(rewards, values, episode_starts, last_values, last_dones,
                  gamma, lam):
    """The array form of :func:`compute_gae`: one step of every env per
    numpy call."""
    advantages = np.zeros(rewards.shape)
    next_non_terminal = 1.0 - np.asarray(last_dones, dtype=float)
    next_values = np.asarray(last_values, dtype=float)
    gae = np.zeros(rewards.shape[1])
    for t in reversed(range(rewards.shape[0])):
        delta = rewards[t] + gamma * next_values * next_non_terminal - values[t]
        gae = delta + gamma * lam * next_non_terminal * gae
        advantages[t] = gae
        next_non_terminal = 1.0 - episode_starts[t].astype(float)
        next_values = values[t]
    return advantages, advantages + values


@st.composite
def gae_rollouts(draw):
    n_envs = draw(st.integers(1, 3))
    n_steps = draw(st.integers(1, 40))
    floats = maybe_special(draw, st.floats(-1e3, 1e3))

    def rows(elements):
        row = st.lists(elements, min_size=n_envs, max_size=n_envs)
        return np.array(draw(st.lists(row, min_size=n_steps, max_size=n_steps)))

    last = st.lists(floats, min_size=n_envs, max_size=n_envs)
    last_dones = st.lists(st.booleans(), min_size=n_envs, max_size=n_envs)
    return (rows(floats), rows(floats), rows(st.booleans()).astype(bool),
            np.array(draw(last)), np.array(draw(last_dones)))


@example(rollout=(np.array([[1.0, -0.0], [math.inf, 2.0], [0.5, math.nan]]),
                  np.array([[0.5, 1.0], [-0.0, -1.0], [2.0, 0.0]]),
                  np.array([[True, True], [False, True], [True, False]]),
                  np.array([0.25, -0.0]), np.array([False, True])),
         gamma=0.99, lam=0.98)
@given(gae_rollouts(), st.floats(0.5, 1.0), st.floats(0.0, 1.0))
def test_gae_is_bit_identical_to_the_array_recursion(rollout, gamma, lam):
    rewards, values, starts, last_values, last_dones = rollout
    n_steps, n_envs = rewards.shape
    buf = RolloutBuffer(n_steps, n_envs, 1, 1)
    for start in starts:
        buf.add(np.zeros((n_envs, 1)), start)
    buf.rewards[:] = rewards
    buf.values[:] = values
    with np.errstate(invalid="ignore", over="ignore"):
        adv, ret = compute_gae(buf, last_values, last_dones, gamma, lam)
        want_adv, want_ret = reference_gae(rewards, values, starts, last_values,
                                           last_dones, gamma, lam)
    for got, want in ((adv, want_adv), (ret, want_ret)):
        # Bit-equal, except that any NaN equals any NaN: numpy's loops may
        # take an operation's two NaN operands in either order.
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


def test_gae_requires_full_buffer():
    buf = RolloutBuffer(4, 1, 1, 1)
    buf.add(np.zeros((1, 1)), np.array([True]))
    with pytest.raises(ValueError):
        compute_gae(buf, np.array([0.0]), np.array([False]), 0.99, 0.98)


@pytest.mark.parametrize("name", ["n_steps", "minibatch_size", "epochs", "n_envs",
                                  "total_steps", "eval_every", "checkpoint_every"])
def test_config_rejects_counts_below_one(name):
    # Checked before the divisibility check, whose modulo a zero
    # minibatch_size would divide by.
    with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
        PPOConfig(**{name: 0})


@pytest.mark.parametrize("name", ["n_steps", "minibatch_size", "epochs", "n_envs"])
@pytest.mark.parametrize("value", [2.5, 256.0, math.nan])
def test_config_requires_whole_counts_where_they_size_or_loop(name, value):
    # ``range`` and the buffers' shapes take these; a float dies mid-run.
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
        PPOConfig(**{name: value})


@pytest.mark.parametrize("name", ["total_steps", "eval_every", "checkpoint_every"])
def test_config_takes_an_integral_float_where_a_count_is_only_compared(name):
    PPOConfig(**{name: 25000.0})


@pytest.mark.parametrize("name, value, bound", [
    ("learning_rate", -1e-3, "> 0"), ("learning_rate", 0.0, "> 0"),
    ("max_grad_norm", -1.0, "> 0"), ("clip_epsilon", 0.0, "> 0"),
    ("target_kl", math.nan, "> 0"), ("entropy_coef", -0.01, ">= 0"),
    ("value_coef", math.nan, ">= 0")])
def test_config_rejects_rates_that_break_training(name, value, bound):
    # A negative learning rate ascends the loss, and a negative
    # max_grad_norm flips every clipped gradient.
    with pytest.raises(ValueError, match=f"^{name} must be {bound}$"):
        PPOConfig(**{name: value})


# ----------------------------------------------------------------------
# Clipped surrogate arithmetic
# ----------------------------------------------------------------------

def test_surrogate_positive_advantage_clips_high_ratio():
    # ratio 1.5 with advantage +1 at eps 0.2: min(1.5, 1.2) = 1.2.
    s = clipped_surrogate(np.array([1.5]), np.array([1.0]), 0.2)
    assert s[0] == pytest.approx(1.2, abs=1e-15)


def test_surrogate_negative_advantage_takes_pessimistic_branch():
    # ratio 0.5 with advantage -1: min(-0.5, -0.8) = -0.8.
    s = clipped_surrogate(np.array([0.5]), np.array([-1.0]), 0.2)
    assert s[0] == pytest.approx(-0.8, abs=1e-15)


def test_surrogate_identity_ratio_passes_through():
    adv = np.array([0.7, -0.3])
    s = clipped_surrogate(np.ones(2), adv, 0.2)
    np.testing.assert_allclose(s, adv, atol=1e-15)


# ----------------------------------------------------------------------
# Full-loss gradients
# ----------------------------------------------------------------------

def make_loss_setup(seed=0, obs_dim=5, act_dim=2, hidden=(8, 8), batch=16):
    rng = np.random.default_rng(seed)
    policy = GaussianPolicy(obs_dim, act_dim, rng, hidden=hidden)
    # Non-trivial output scale so gradients are well away from zero.
    policy.mean_net.params[-2][:] = rng.standard_normal(
        policy.mean_net.params[-2].shape) * 0.5
    value_net = DenseNet((obs_dim, *hidden, 1), rng, final_gain=1.0)
    obs = rng.standard_normal((batch, obs_dim))
    actions = policy.mean_net(obs) + rng.standard_normal((batch, act_dim))
    logp_old = policy.log_prob_of(policy.mean_net(obs), actions)[0] \
        + 0.1 * rng.standard_normal(batch)
    advantages = rng.standard_normal(batch)
    returns = rng.standard_normal(batch)
    config = PPOConfig()
    return policy, value_net, obs, actions, logp_old, advantages, returns, config


def test_full_ppo_loss_gradients_match_finite_differences():
    policy, value_net, obs, actions, logp_old, adv, ret, config = \
        make_loss_setup(seed=3)
    params = policy.mean_net.params + [policy.log_std] + value_net.params

    def loss():
        value, _, _ = ppo_loss_and_grads(policy, value_net, obs, actions,
                                         logp_old, adv, ret, config)
        return value

    _, analytic, _ = ppo_loss_and_grads(policy, value_net, obs, actions,
                                        logp_old, adv, ret, config)
    numeric = finite_difference_grads(params, loss, h=1e-5)
    assert_grads_close(analytic, numeric, rel=1e-4, abs_floor=1e-7)


def test_unchanged_policy_has_zero_kl_and_clipfrac():
    policy, value_net, obs, actions, _, adv, ret, config = make_loss_setup(seed=4)
    logp_now, _ = policy.log_prob_of(policy.mean_net(obs), actions)
    _, _, stats = ppo_loss_and_grads(policy, value_net, obs, actions,
                                     logp_now, adv, ret, config)
    assert stats["approx_kl"] == pytest.approx(0.0, abs=1e-12)
    assert stats["clip_fraction"] == 0.0


# ----------------------------------------------------------------------
# Update-level behaviour
# ----------------------------------------------------------------------

def random_buffer(rng, n_steps=256, obs_dim=5, act_dim=2):
    buf = RolloutBuffer(n_steps, 1, obs_dim, act_dim)
    for _ in range(n_steps):
        obs = rng.standard_normal((1, obs_dim))
        actions = rng.standard_normal((1, act_dim))
        log_prob, reward, value = rng.standard_normal(3)
        t = buf.add(obs, np.array([rng.random() < 0.05]))
        buf.actions[t] = actions
        buf.log_probs[t] = log_prob
        buf.rewards[t] = reward
        buf.values[t] = value
    compute_gae(buf, np.array([0.0]), np.array([False]), 0.99, 0.98)
    return buf


def snapshot(policy, value_net):
    return copy.deepcopy(policy.mean_net.params), policy.log_std.copy(), \
        copy.deepcopy(value_net.params)


def test_advantage_rescaling_leaves_update_invariant():
    config = PPOConfig(n_steps=256, minibatch_size=64, epochs=2, target_kl=1e9)
    results = []
    for scale in (1.0, 37.5):
        rng = np.random.default_rng(5)
        policy = GaussianPolicy(5, 2, np.random.default_rng(6))
        value_net = DenseNet((5, *HIDDEN, 1), np.random.default_rng(7),
                             final_gain=1.0)
        # Use realistic stored log-probs so ratios vary.
        buf = random_buffer(rng)
        buf.advantages *= scale
        optimizer = Adam(policy.mean_net.params + [policy.log_std]
                         + value_net.params)
        ppo_update(policy, value_net, optimizer, buf, config, 1e-3,
                   np.random.default_rng(8))
        results.append(snapshot(policy, value_net))
    for a, b in zip(results[0], results[1]):
        if isinstance(a, list):
            for pa, pb in zip(a, b):
                np.testing.assert_allclose(pa, pb, atol=1e-12)
        else:
            np.testing.assert_allclose(a, b, atol=1e-12)


def test_update_reports_epoch_skip_on_kl_breach():
    rng = np.random.default_rng(9)
    policy = GaussianPolicy(5, 2, np.random.default_rng(10))
    value_net = DenseNet((5, *HIDDEN, 1), np.random.default_rng(11),
                         final_gain=1.0)
    buf = random_buffer(rng)
    optimizer = Adam(policy.mean_net.params + [policy.log_std]
                     + value_net.params)
    config = PPOConfig(n_steps=256, minibatch_size=64, epochs=5,
                       target_kl=1e-9, learning_rate=0.05)
    stats = ppo_update(policy, value_net, optimizer, buf, config, 0.05,
                       np.random.default_rng(12))
    assert stats["epochs_completed"] == 1


def test_update_aborts_on_nonfinite_loss():
    rng = np.random.default_rng(13)
    policy = GaussianPolicy(5, 2, np.random.default_rng(14))
    policy.log_std[:] = np.nan
    value_net = DenseNet((5, 8, 1), np.random.default_rng(15), final_gain=1.0)
    buf = random_buffer(rng)
    optimizer = Adam(policy.mean_net.params + [policy.log_std]
                     + value_net.params)
    config = PPOConfig(n_steps=256, minibatch_size=64)
    stats = ppo_update(policy, value_net, optimizer, buf, config, 1e-4,
                       np.random.default_rng(16))
    assert stats["aborted"]


# ----------------------------------------------------------------------
# Normalizers
# ----------------------------------------------------------------------

def test_normalizer_constant_stream_maps_to_zero():
    norm = RunningNormalizer(3)
    for _ in range(10):
        norm.update(np.full((4, 3), 2.5))
    np.testing.assert_allclose(norm.apply(np.full(3, 2.5)), 0.0, atol=1e-6)


def test_normalizer_one_pass_matches_batch_statistics():
    rng = np.random.default_rng(17)
    batch = rng.standard_normal((512, 4)) * 3.0 + 1.0
    norm = RunningNormalizer(4)
    norm.update(batch)
    np.testing.assert_allclose(norm.mean, batch.mean(axis=0), atol=1e-6)
    np.testing.assert_allclose(norm.var, batch.var(axis=0), atol=1e-6)


def test_normalizer_chunked_matches_batch_statistics():
    rng = np.random.default_rng(18)
    batch = rng.standard_normal((600, 2)) * 2.0 - 0.5
    norm = RunningNormalizer(2)
    for chunk in np.split(batch, 6):
        norm.update(chunk)
    np.testing.assert_allclose(norm.mean, batch.mean(axis=0), atol=1e-6)
    np.testing.assert_allclose(norm.var, batch.var(axis=0), atol=1e-6)


def moments_update(mean, var, count, batch):
    """The parallel update with numpy's own ``mean``/``var`` batch moments."""
    batch_mean, batch_var, batch_count = batch.mean(axis=0), batch.var(axis=0), len(batch)
    if count == 0.0:
        return batch_mean, batch_var, float(batch_count)
    delta = batch_mean - mean
    total = count + batch_count
    m2 = var * count + batch_var * batch_count + delta * delta * count * batch_count / total
    return mean + delta * batch_count / total, m2 / total, total


@st.composite
def split_batches(draw):
    dim = draw(st.integers(1, 5))
    elements = maybe_special(draw, st.floats(-1e6, 1e6))
    rows = draw(st.lists(st.lists(elements, min_size=dim, max_size=dim),
                         min_size=1, max_size=40))
    cuts = draw(st.lists(st.integers(1, len(rows)), max_size=len(rows)))
    # The last rows may arrive one at a time, after the counts are > 0.
    single = draw(st.integers(0, len(rows) - 1))
    cuts += range(len(rows) - single, len(rows))
    return np.array(rows), sorted(cuts)


@example(split=(np.array([[-0.0, 1.0], [-0.0, -0.0], [math.inf, 2.0],
                          [3.0, math.nan]]), [1, 2, 3]),
         probe=[0.0, math.nan, math.inf, -math.inf, -0.0])
# A NaN row meets the NaN variance that the infinite row left (see
# RunningNormalizer._update_row).
@example(split=(np.array([[math.inf], [math.nan]]), [1]), probe=[0.0] * 5)
@given(split_batches(),
       st.lists(st.floats(-1e7, 1e7) | SPECIAL_FLOATS, min_size=5, max_size=5))
def test_normalizer_update_is_bit_identical_to_mean_var_moments(split, probe):
    batch, cuts = split
    norm = RunningNormalizer(batch.shape[1])
    mean, var, count = norm.mean, norm.var, norm.count
    for chunk in np.split(batch, cuts):  # empty chunks skipped; cuts may repeat
        if len(chunk):
            with np.errstate(invalid="ignore", over="ignore"):
                norm.update(chunk)
                mean, var, count = moments_update(mean, var, count, chunk)
            assert norm.mean.tobytes() == mean.tobytes()
            assert norm.var.tobytes() == var.tobytes()
            assert norm.count == count
            assert norm.scale.tobytes() == np.sqrt(var + norm.eps).tobytes()
    x = np.array(probe[:batch.shape[1]])
    with np.errstate(invalid="ignore"):
        z = (x - norm.mean) / np.sqrt(norm.var + norm.eps)
        assert norm.apply(x).tobytes() == np.clip(z, -norm.clip, norm.clip).tobytes()
    restored = RunningNormalizer(batch.shape[1])
    assert restored.scale.tobytes() == np.sqrt(restored.var + restored.eps).tobytes()
    restored.load_state(norm.state())
    assert restored.scale.tobytes() == norm.scale.tobytes()


@pytest.mark.parametrize("eps", [0.0, -1e-8, math.nan])
def test_normalizers_reject_a_nonpositive_eps(eps):
    with pytest.raises(ValueError, match="eps"):
        RunningNormalizer(3, eps=eps)
    with pytest.raises(ValueError, match="eps"):
        ReturnNormalizer(0.99, 1, eps=eps)


def test_normalizer_clips_extreme_zscore():
    norm = RunningNormalizer(1)
    norm.update(np.random.default_rng(19).standard_normal((100, 1)))
    z = norm.apply(np.array([norm.mean[0] + 50 * math.sqrt(norm.var[0])]))
    assert z[0] == 10.0


def test_return_normalizer_divides_by_running_std():
    rn = ReturnNormalizer(gamma=0.99, n_envs=1)
    rng = np.random.default_rng(20)
    acc = 0.0
    accs = []
    for _ in range(200):
        r = float(rng.uniform(-1, 3))
        acc = acc * 0.99 + r
        accs.append(acc)
        got = np.empty(1)
        rn.update(np.array([r]), np.array([False]), got)
        expected = r / math.sqrt(np.var(accs) + 1e-8)
        assert got[0] == pytest.approx(min(10.0, max(-10.0, expected)), rel=1e-9)


def reference_return_update(state, rewards, dones, gamma, clip=10.0, eps=1e-8):
    """The array form of :meth:`ReturnNormalizer.update` over ``state``,
    a dict of accumulator and return moments."""
    state["accumulator"] = state["accumulator"] * gamma + rewards
    state["mean"], state["var"], state["count"] = moments_update(
        state["mean"], state["var"], state["count"], state["accumulator"][:, None])
    normalized = np.clip(rewards / np.sqrt(state["var"] + eps), -clip, clip)
    state["accumulator"][dones] = 0.0
    return normalized


@st.composite
def reward_streams(draw):
    n_envs = draw(st.integers(1, 3))
    rewards = maybe_special(draw, st.floats(-1e3, 1e3))
    step = st.tuples(st.lists(rewards, min_size=n_envs, max_size=n_envs),
                     st.lists(st.booleans(), min_size=n_envs, max_size=n_envs))
    return n_envs, draw(st.lists(step, min_size=1, max_size=30))


@example(stream=(1, [([-0.0], [False]), ([1.5], [True]), ([-0.0], [False]),
                     ([math.inf], [False]), ([2.0], [True])]), gamma=0.99)
@example(stream=(1, [([math.inf], [False]), ([math.nan], [False])]), gamma=1.0)
@given(reward_streams(), st.floats(0.5, 1.0))
def test_return_normalizer_update_is_bit_identical_to_the_array_update(stream, gamma):
    n_envs, steps = stream
    rn = ReturnNormalizer(gamma=gamma, n_envs=n_envs)
    state = {"accumulator": np.zeros(n_envs), "mean": np.zeros(1),
             "var": np.ones(1), "count": 0.0}
    row = np.empty(n_envs)
    for rewards, dones in steps:
        with np.errstate(invalid="ignore", over="ignore"):
            rn.update(rewards, dones, row)  # as the trainer passes them: lists
            want = reference_return_update(state, np.array(rewards), np.array(dones),
                                           gamma)
        assert row.tobytes() == want.tobytes()
        assert rn.accumulator.tobytes() == state["accumulator"].tobytes()
        assert rn.stats.mean.tobytes() == state["mean"].tobytes()
        assert rn.stats.var.tobytes() == state["var"].tobytes()
        assert rn.stats.count == state["count"]


def test_return_normalizer_resets_accumulator_on_done():
    rn = ReturnNormalizer(gamma=0.99, n_envs=2)
    rn.update([1.0, 2.0], [False, True], np.empty(2))
    assert rn.accumulator[0] == 1.0
    assert rn.accumulator[1] == 0.0


@st.composite
def statistics_and_row(draw):
    """A normalizer, fresh or with drawn statistics, and one row whose
    entries are any float, a special one, or at either clip bound of the
    statistics (a huge count leaves them all but unmoved by the row)."""
    dim = draw(st.integers(1, 5))
    norm = RunningNormalizer(dim)
    if draw(st.booleans()):
        moments = st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)
        norm.load_state({"mean": draw(moments), "var": np.abs(draw(moments)),
                         "count": draw(st.sampled_from([1.0, 37.0, 2.0 ** 60]))})
    row = []
    for m, s in zip(norm.mean.tolist(), norm.scale.tolist()):
        at_clip = m + draw(st.sampled_from([-1.0, 1.0])) * norm.clip * s
        row.append(draw(st.floats(-1e4, 1e4) | SPECIAL_FLOATS | st.sampled_from(
            [at_clip, math.nextafter(at_clip, -math.inf),
             math.nextafter(at_clip, math.inf)])))
    return norm, row


@example(drawn=(RunningNormalizer(4), [math.nan, math.inf, -math.inf, -0.0]))
@given(statistics_and_row())
def test_row_update_writes_what_apply_gives_on_the_new_statistics(drawn):
    norm, row = drawn
    reference = copy.deepcopy(norm)
    out = np.empty((1, len(row)))
    with np.errstate(invalid="ignore", over="ignore"):
        norm.update([np.array(row)], out)  # as the trainer passes a step's rows
        reference.update(np.array([row]))
        assert out.tobytes() == reference.apply(np.array([row])).tobytes()
    assert norm.mean.tobytes() == reference.mean.tobytes()
    assert norm.var.tobytes() == reference.var.tobytes()
    assert norm.scale.tobytes() == reference.scale.tobytes()


# ----------------------------------------------------------------------
# Trainer integration (cheap dummy environment)
# ----------------------------------------------------------------------

class QuadraticEnv:
    """Reward peaks when the action matches a fixed linear map of the obs."""

    observation_dim = 5
    action_dim = 2

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.coef = np.array([[0.5, 0.0, 0.3, 0.0, 0.0],
                              [0.0, 0.4, 0.0, 0.0, 0.2]])
        self.steps = 0

    def reset(self, seed=None):
        if seed is not None:
            self.rng = np.random.default_rng(seed)
        self.steps = 0
        self.obs = self.rng.standard_normal(5)
        return self.obs

    def step(self, action):
        target = self.coef @ self.obs
        reward = 2.0 - float(np.sum((np.asarray(action) - target) ** 2))
        self.steps += 1
        done = self.steps >= 64
        self.obs = self.rng.standard_normal(5)
        return self.obs, reward, done, {}


class ConstantRewardEnv:
    observation_dim = 5
    action_dim = 2

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.steps = 0

    def reset(self, seed=None):
        if seed is not None:
            self.rng = np.random.default_rng(seed)
        self.steps = 0
        return self.rng.standard_normal(5)

    def step(self, action):
        self.steps += 1
        return self.rng.standard_normal(5), 1.0, self.steps >= 64, {}


class DiesInSecondRolloutEnv(QuadraticEnv):
    """Raises on its first step after one 512-step rollout."""

    def __init__(self, seed):
        super().__init__(seed)
        self.taken = 0

    def step(self, action):
        self.taken += 1
        if self.taken > 512:
            raise RuntimeError("simulator died")
        return super().step(action)


def small_config(**overrides):
    base = dict(n_steps=512, minibatch_size=128, epochs=3, total_steps=2048,
                eval_every=10 ** 9, checkpoint_every=10 ** 9)
    base.update(overrides)
    return PPOConfig(**base)


def test_exact_update_count():
    trainer = PPOTrainer(QuadraticEnv, small_config(n_steps=1024,
                                                    total_steps=2048), seed=0)
    metrics = trainer.train()
    assert len(metrics) == 2
    assert trainer.global_step == 2048


def test_each_update_runs_at_the_rate_where_it_starts():
    """The first update runs at the base rate, and the last of a
    whole-number budget (4 updates of 512 steps) above 0."""
    config = small_config()
    rates = [d.learning_rate for d in PPOTrainer(QuadraticEnv, config, seed=0).train()]
    assert rates[0] == config.learning_rate
    assert rates[-1] > 0.0
    assert rates == [lr_schedule("linear", config.learning_rate, 1.0 - k / 4)
                     for k in range(4)]


def test_training_is_seed_reproducible():
    def run():
        trainer = PPOTrainer(QuadraticEnv, small_config(), seed=7)
        metrics = trainer.train()
        return metrics, trainer.policy.mean_net.params

    m1, p1 = run()
    m2, p2 = run()
    assert [d.row() for d in m1] == [d.row() for d in m2]
    for a, b in zip(p1, p2):
        np.testing.assert_array_equal(a, b)


class RecordingEnv(QuadraticEnv):
    """Records the actions it receives and its ``done`` flags; the two
    training envs of seed 3 end episodes after 5 and 8 steps."""

    def __init__(self, seed):
        super().__init__(seed)
        self.length = {1003: 5, 2003: 8}.get(seed, 64)
        self.actions = []
        self.dones = []

    def step(self, action):
        self.actions.append(np.array(action))
        obs, reward, _, info = super().step(action)
        done = self.steps >= self.length
        self.dones.append(done)
        return obs, reward, done, info


def test_collection_with_two_envs_keeps_each_env_in_its_own_column(monkeypatch):
    config = small_config(n_steps=32, minibatch_size=16, total_steps=128, n_envs=2)
    trainer = PPOTrainer(RecordingEnv, config, seed=3)
    steps = []
    monkeypatch.setattr(trainer, "_maybe_eval_and_checkpoint",
                        lambda: steps.append(trainer.global_step))
    trainer.collect_rollout()
    assert steps == list(range(2, 2 * 32 + 1, 2))
    buffer = trainer.buffer
    for i, env in enumerate(trainer.envs):
        np.testing.assert_array_equal(buffer.actions[:, i], np.array(env.actions))
        # An episode starts at the first step and after each of the env's own dones.
        assert buffer.episode_starts[:, i].tolist() == [True] + env.dones[:-1]
    assert trainer.envs[0].dones != trainer.envs[1].dones

    def run():
        return [d.row() for d in PPOTrainer(RecordingEnv, config, seed=3).train()]

    assert run() == run()


@pytest.mark.parametrize("n_envs", [1, 2])
def test_collected_values_are_the_value_net_of_each_step(n_envs):
    config = small_config(n_steps=64, minibatch_size=16, total_steps=128, n_envs=n_envs)
    trainer = PPOTrainer(RecordingEnv, config, seed=3)
    trainer.collect_rollout()
    buffer = trainer.buffer
    for t in range(config.n_steps):
        values = trainer.value_net(buffer.obs[t])[:, 0]
        assert buffer.values[t].tobytes() == values.tobytes()


def array_sample(policy, obs, rng):
    """The sampler's array form: the mean of the 1-D row ``obs``, one numpy
    draw, and the update's own :meth:`GaussianPolicy.log_prob_of`."""
    mean = policy.mean_net(obs)[0]
    action = mean + np.exp(policy.log_std) * rng.standard_normal(policy.act_dim)
    log_prob, _ = policy.log_prob_of(mean[None], action[None])
    return action, log_prob[0]


def array_collect(trainer, carried):
    """One rollout of ``trainer`` in numpy's array forms, the oracle of
    :meth:`PPOTrainer.collect_rollout`: ``update`` and ``apply`` of the
    observation batch into ``RolloutBuffer.add``, :func:`array_sample` per
    env, and the array return update. ``carried`` holds the observations,
    dones, running returns and return moments between rollouts."""
    cfg, buffer = trainer.config, trainer.buffer
    buffer.reset()
    obs, dones = carried["obs"], carried["dones"]
    finished = []
    for _ in range(cfg.n_steps):
        trainer.obs_norm.update(obs)
        t = buffer.add(trainer.obs_norm.apply(obs), dones)
        for i in range(cfg.n_envs):
            buffer.actions[t, i], buffer.log_probs[t, i] = array_sample(
                trainer.policy, buffer.obs[t, i], trainer.rng)
        obs, dones = obs.copy(), dones.copy()
        for i, env in enumerate(trainer.envs):
            obs[i], buffer.rewards[t, i], dones[i], _ = env.step(buffer.actions[t, i])
            carried["running"][i] += buffer.rewards[t, i]
            if dones[i]:
                finished.append(carried["running"][i])
                carried["running"][i] = 0.0
                obs[i] = env.reset()
        buffer.rewards[t] = reference_return_update(
            carried["returns"], buffer.rewards[t], dones, cfg.gamma)
    carried["obs"], carried["dones"] = obs, dones
    buffer.values[:] = trainer.value_net(buffer.obs)[..., 0]
    last_values = trainer.value_net(trainer.obs_norm.apply(obs))[:, 0]
    compute_gae(buffer, last_values, dones, cfg.gamma, cfg.gae_lambda)
    return finished


@pytest.mark.parametrize("n_envs", [1, 2])
def test_collection_is_bit_identical_to_its_array_form(n_envs):
    """Two rollouts, each with episodes that end inside it (after 5 and 8
    steps), against :func:`array_collect` on a trainer of the same seed."""
    config = small_config(n_steps=32, minibatch_size=16, total_steps=128, n_envs=n_envs)
    trainer = PPOTrainer(RecordingEnv, config, seed=3)
    oracle = PPOTrainer(RecordingEnv, config, seed=3)
    carried = {"obs": np.array(oracle._obs), "dones": np.ones(n_envs, dtype=bool),
               "running": np.zeros(n_envs),
               "returns": {"accumulator": np.zeros(n_envs), "mean": np.zeros(1),
                           "var": np.ones(1), "count": 0.0}}
    for _ in range(2):
        trainer.collect_rollout()
        finished = array_collect(oracle, carried)
        assert trainer._episode_returns == finished
        for name in ("obs", "actions", "log_probs", "rewards", "episode_starts",
                     "values", "advantages", "returns"):
            got, want = getattr(trainer.buffer, name), getattr(oracle.buffer, name)
            assert got.tobytes() == want.tobytes(), name
        for name in ("mean", "var", "scale"):
            assert (getattr(trainer.obs_norm, name).tobytes()
                    == getattr(oracle.obs_norm, name).tobytes())
        assert trainer.ret_norm.stats.var.tobytes() == carried["returns"]["var"].tobytes()
        assert trainer.ret_norm.accumulator.tobytes() == \
            carried["returns"]["accumulator"].tobytes()


def test_value_loss_decreases_on_constant_reward():
    trainer = PPOTrainer(ConstantRewardEnv,
                         small_config(total_steps=8 * 512), seed=1)
    metrics = trainer.train()
    assert metrics[-1].value_loss < metrics[0].value_loss


def test_evaluation_does_not_touch_normalizer():
    trainer = PPOTrainer(QuadraticEnv, small_config(), seed=3)
    trainer.collect_rollout()
    before = trainer.obs_norm.state()
    ret_before = trainer.ret_norm.state()
    trainer.evaluate(max_steps=100)
    after = trainer.obs_norm.state()
    ret_after = trainer.ret_norm.state()
    assert np.array_equal(before["mean"], after["mean"])
    assert np.array_equal(before["var"], after["var"])
    assert before["count"] == after["count"]
    assert np.array_equal(ret_before["var"], ret_after["var"])


def test_eval_cadence_hits_every_5000_steps():
    config = small_config(n_steps=4096, total_steps=16384, eval_every=5000)
    trainer = PPOTrainer(QuadraticEnv, config, seed=4)
    trainer.train()
    assert trainer._eval_bucket == 16384 // 5000  # 3 evaluations ran


def test_checkpoint_roundtrip_restores_deterministic_eval(tmp_path):
    trainer = PPOTrainer(QuadraticEnv, small_config(), seed=5,
                         extra_meta={"action_mode": "joint", "fixed_gain": 0.9})
    trainer.train()
    path = tmp_path / "model.npz"
    trainer.save(path)
    bundle = load_checkpoint(path)
    assert isinstance(bundle, PolicyBundle)
    assert bundle.meta["action_mode"] == "joint"

    rng = np.random.default_rng(6)
    for _ in range(20):
        obs = rng.standard_normal(5)
        expected = trainer.policy.mean_action(trainer.obs_norm.apply(obs))
        np.testing.assert_array_equal(bundle.act(obs), expected)


def test_checkpoint_rejects_unknown_version(tmp_path):
    trainer = PPOTrainer(QuadraticEnv, small_config(), seed=8)
    path = tmp_path / "model.npz"
    trainer.save(path)
    data = dict(np.load(path, allow_pickle=False))
    meta = data["meta_json"].item() if data["meta_json"].shape == () else str(data["meta_json"])
    data["meta_json"] = np.array(str(meta).replace('"format_version": 1',
                                                   '"format_version": 99'))
    np.savez(path, **data)
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_metrics_csv_columns(tmp_path):
    trainer = PPOTrainer(QuadraticEnv, small_config(), seed=9,
                         out_dir=str(tmp_path))
    trainer.train()
    path = tmp_path / "metrics.csv"
    assert path.exists()
    header = open(path).readline().strip().split(",")
    for column in ("step", "approx_kl", "clip_fraction", "value_loss",
                   "entropy", "mean_episode_return", "eval_return",
                   "learning_rate", "action_std_0", "action_std_1"):
        assert column in header


class TimedEnv(QuadraticEnv):
    """Each step advances the fake clock ``clock[0]`` by 1 ms. In the
    evaluation worker, where no clock is faked, it advances a copy."""

    clock = [0.0]

    def step(self, action):
        self.clock[0] += 0.001
        return super().step(action)


def test_metrics_csv_records_phase_timings(tmp_path, monkeypatch):
    # A fake clock: each env step takes 1 ms and an update 0.5 s, so the
    # split of every cycle is known exactly. Evaluations run in the worker
    # on its own clock, overlapping the cycle; eval_s is what it reports.
    clock = [0.0]
    monkeypatch.setattr(TimedEnv, "clock", clock)
    monkeypatch.setattr(ppo.time, "perf_counter", lambda: clock[0])
    real_update = ppo.ppo_update

    def timed_update(*args):
        clock[0] += 0.5
        return real_update(*args)

    monkeypatch.setattr(ppo, "ppo_update", timed_update)
    reported = []
    real_result = ppo.EvalWorker.result

    def recorded_result(self):
        value, seconds = real_result(self)
        reported.append(seconds)
        return value, seconds

    monkeypatch.setattr(ppo.EvalWorker, "result", recorded_result)
    trainer = PPOTrainer(TimedEnv, small_config(eval_every=1024), seed=2,
                         out_dir=str(tmp_path))
    trainer.train()

    with open(tmp_path / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(trainer.cycle_times) == 4
    assert len(reported) == 2 and all(seconds > 0.0 for seconds in reported)
    for row, times, eval_s in zip(rows, trainer.cycle_times,
                                  [0.0, reported[0], 0.0, reported[1]]):
        for column in ("collect_s", "update_s", "eval_s", "env_steps_per_s"):
            assert float(row[column]) == getattr(times, column)
        assert float(row["collect_s"]) == pytest.approx(0.512, abs=1e-9)
        assert float(row["update_s"]) == pytest.approx(0.5, abs=1e-9)
        assert times.eval_s == eval_s
        assert float(row["env_steps_per_s"]) == pytest.approx(512 / 1.012, rel=1e-9)


@pytest.mark.parametrize("failure", ["env_raises", "diverges"])
def test_metrics_csv_holds_every_finished_update(tmp_path, monkeypatch, failure):
    if failure == "env_raises":
        env_factory, expected, message = DiesInSecondRolloutEnv, RuntimeError, "died"
    else:
        env_factory, expected, message = QuadraticEnv, TrainingDiverged, "non-finite"
        real_update, calls = ppo.ppo_update, []

        def poisoned_update(policy, value_net, *args):
            calls.append(1)
            stats = real_update(policy, value_net, *args)
            if len(calls) == 2:
                value_net.params[0][...] = np.nan
            return stats

        monkeypatch.setattr(ppo, "ppo_update", poisoned_update)
    trainer = PPOTrainer(env_factory, small_config(), seed=3, out_dir=str(tmp_path))
    with pytest.raises(expected, match=message):
        trainer.train()

    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv"]
    with open(tmp_path / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0]) == ["step", "approx_kl", "clip_fraction", "value_loss",
                             "entropy", "mean_episode_return", "eval_return",
                             "learning_rate", "aborted", "epochs_completed",
                             "action_std_0", "action_std_1", "collect_s",
                             "update_s", "eval_s", "env_steps_per_s"]
    first = trainer.metrics[0]
    assert len(rows) == 1 and rows[0]["step"] == "512"
    assert rows[0]["aborted"] == "0"
    assert int(rows[0]["epochs_completed"]) == first.epochs_completed
    assert 1 <= first.epochs_completed <= small_config().epochs
    assert float(rows[0]["learning_rate"]) == first.learning_rate
    assert float(rows[0]["action_std_1"]) == first.action_std[1]


# ----------------------------------------------------------------------
# The evaluation worker
# ----------------------------------------------------------------------

@pytest.fixture
def workers(monkeypatch):
    """Every EvalWorker started during the test."""
    started = []
    real_init = ppo.EvalWorker.__init__

    def recorded_init(self, *args):
        real_init(self, *args)
        started.append(self)

    monkeypatch.setattr(ppo.EvalWorker, "__init__", recorded_init)
    return started


def assert_reaped(workers):
    """train() started one worker and reaped it before it returned or raised."""
    assert len(workers) == 1
    assert workers[0]._proc.returncode is not None


def test_best_model_is_the_evaluated_snapshot(tmp_path, workers):
    trainer = PPOTrainer(QuadraticEnv, small_config(eval_every=512), seed=5,
                         out_dir=str(tmp_path))
    trainer.train()
    assert_reaped(workers)

    returns = [d.eval_return for d in trainer.metrics]
    assert len(returns) == 4 and trainer.best_eval_return == max(returns)
    bundle = load_checkpoint(tmp_path / "best_model.npz")
    seed = 5 + ppo.EVAL_ENV_SEED_OFFSET
    value = ppo.evaluate_episode(QuadraticEnv(seed), bundle.policy, bundle.obs_norm, seed)
    assert value == trainer.best_eval_return
    # Each cycle's evaluation falls due at its last step.
    assert bundle.meta["step"] == trainer.metrics[returns.index(max(returns))].step


def test_no_worker_without_an_evaluation_in_the_budget(workers):
    trainer = PPOTrainer(QuadraticEnv, small_config(eval_every=2048), seed=5)
    trainer.train(total_steps=1536)
    assert workers == []
    trainer.train(total_steps=2048)
    assert_reaped(workers)
    assert math.isfinite(trainer.last_eval_return)


def test_worker_is_reaped_when_training_diverges(monkeypatch, workers):
    real_update = ppo.ppo_update

    def poisoned_update(policy, value_net, *args):
        stats = real_update(policy, value_net, *args)
        value_net.params[0][...] = np.nan
        return stats

    monkeypatch.setattr(ppo, "ppo_update", poisoned_update)
    trainer = PPOTrainer(QuadraticEnv, small_config(eval_every=256), seed=3)
    with pytest.raises(TrainingDiverged):
        trainer.train()
    assert_reaped(workers)


class DiesInEvaluationEnv(QuadraticEnv):
    """Raises ``error`` on every step of the evaluation env; training envs run."""

    error = RuntimeError

    def __init__(self, seed):
        super().__init__(seed)
        self.evaluating = seed >= ppo.EVAL_ENV_SEED_OFFSET

    def step(self, action):
        if self.evaluating:
            raise self.error("evaluation env died")
        return super().step(action)


class UnpicklableError(RuntimeError):
    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class DiesUnpicklablyInEvaluationEnv(DiesInEvaluationEnv):
    error = UnpicklableError


@pytest.mark.parametrize("env_factory", [DiesInEvaluationEnv,
                                         DiesUnpicklablyInEvaluationEnv])
def test_an_error_in_the_worker_is_raised_by_train(workers, env_factory):
    # Two evaluations fall due in the first cycle: the first one's error is
    # raised while the second is still unread.
    trainer = PPOTrainer(env_factory, small_config(eval_every=256), seed=3)
    with pytest.raises(RuntimeError, match="evaluation env died"):
        trainer.train()
    assert_reaped(workers)
    assert trainer.metrics == []


def test_an_unpicklable_env_factory_fails_before_training():
    trainer = PPOTrainer(lambda seed: QuadraticEnv(seed),
                         small_config(eval_every=512), seed=3)
    with pytest.raises((AttributeError, pickle.PicklingError)):
        trainer.train()
    assert trainer.global_step == 0


DEV_MODE_TRAINING = """
import gc, sys
from pursuitlab import config, ppo, raceline as rl
cfg = config.load_config(sys.argv[1])
cfg["train"].update(n_steps=256, minibatch_size=64, eval_every=256, max_steps=200)
track = rl.scale_speeds(config.build_track(cfg), cfg["train"]["multiplier"])
trainer = ppo.PPOTrainer(config.build_env_factory(cfg, track),
                         config.build_ppo_config(cfg), seed=0)
trainer.train(total_steps=512)
assert [d.eval_return == d.eval_return for d in trainer.metrics] == [True, True]
del trainer
gc.collect()
"""


def test_training_with_evaluations_leaves_nothing_open_under_dev_mode():
    """A pipe left open or a worker left unreaped is a ResourceWarning, and
    in dev mode with ResourceWarning as an error it shows on stderr."""
    config_path = Path(__file__).resolve().parent.parent / "configs" / "smoke_train.yaml"
    src = str(Path(ppo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-c", DEV_MODE_TRAINING, str(config_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr[-4000:]
    assert "ResourceWarning" not in done.stderr, done.stderr[-4000:]
