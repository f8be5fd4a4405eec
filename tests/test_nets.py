import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pursuitlab.nets import HIDDEN, Adam, DenseNet, GaussianPolicy, clip_gradients


def finite_difference_grads(params, loss_fn, h=1e-5):
    """Central differences of loss_fn() w.r.t. every coordinate of params."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = loss_fn()
            p[idx] = orig - h
            down = loss_fn()
            p[idx] = orig
            g[idx] = (up - down) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rel=1e-4, abs_floor=1e-7):
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(n), abs_floor)
        np.testing.assert_array_less(np.abs(a - n) / denom, rel)


# ----------------------------------------------------------------------
# Forward pass
# ----------------------------------------------------------------------

def test_zero_network_outputs_zero():
    net = DenseNet((3, 4, 2), np.random.default_rng(0))
    for p in net.params:
        p[:] = 0.0
    out = net(np.ones((5, 3)))
    np.testing.assert_array_equal(out, np.zeros((5, 2)))


def test_hand_computed_two_layer():
    net = DenseNet((1, 1, 1), np.random.default_rng(0))
    net.params[0][:] = 0.7   # W0
    net.params[1][:] = 0.1   # b0
    net.params[2][:] = -1.3  # W1
    net.params[3][:] = 0.25  # b1
    x = 0.4
    expected = -1.3 * math.tanh(0.7 * 0.4 + 0.1) + 0.25
    assert net(np.array([[x]]))[0, 0] == pytest.approx(expected, abs=1e-15)


@given(rows=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_call_is_forward_without_the_cache(rows, seed):
    rng = np.random.default_rng(seed)
    net = DenseNet((5, 8, 8, 2), rng)
    x = rng.standard_normal(5) if rows == 0 else rng.standard_normal((rows, 5))
    assert net(x).tobytes() == net.forward(x)[0].tobytes()


def test_batch_rows_are_independent():
    rng = np.random.default_rng(1)
    net = DenseNet((5, 8, 2), rng)
    batch = rng.standard_normal((16, 5))
    full = net(batch)
    for i in range(16):
        np.testing.assert_allclose(net(batch[i]), full[i][None, :], atol=1e-15)


@pytest.mark.parametrize("n_envs", [1, 2])
@pytest.mark.parametrize("kind", ["policy", "value"])
def test_a_stack_of_batches_is_the_forward_of_each_batch(kind, n_envs):
    """PPO collection takes a rollout's values from one pass over its
    (n_steps, n_envs, obs_dim) observations. That keeps the per-step floats
    only while numpy's matmul runs each (n_envs, obs_dim) slice of a stack
    as its own product; one product over the merged rows rounds
    differently."""
    rng = np.random.default_rng(n_envs)
    if kind == "policy":
        net = GaussianPolicy(5, 2, rng, mean_bias=[2.175, 0.8]).mean_net
    else:
        net = DenseNet((5, *HIDDEN, 1), rng, final_gain=1.0)
    stack = rng.standard_normal((512, n_envs, 5))
    stacked = net(stack)
    assert stacked.shape == (512, n_envs, net.sizes[-1])
    for t in range(len(stack)):
        assert stacked[t].tobytes() == net(stack[t]).tobytes()


# ----------------------------------------------------------------------
# Backward pass
# ----------------------------------------------------------------------

def test_single_linear_layer_gradient():
    net = DenseNet((1, 1), np.random.default_rng(0))
    net.params[0][:] = 0.8
    net.params[1][:] = 0.0
    x, target = 1.5, 2.0
    out, cache = net.forward(np.array([[x]]))
    err = out[0, 0] - target
    grads = net.backward(cache, np.array([[2.0 * err]]))
    assert grads[0][0, 0] == pytest.approx(2.0 * err * x, abs=1e-12)
    assert grads[1][0] == pytest.approx(2.0 * err, abs=1e-12)


def test_zero_output_gradient_gives_zero_grads():
    rng = np.random.default_rng(2)
    net = DenseNet((4, 6, 3), rng)
    out, cache = net.forward(rng.standard_normal((7, 4)))
    grads = net.backward(cache, np.zeros_like(out))
    for g in grads:
        np.testing.assert_array_equal(g, np.zeros_like(g))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    net = DenseNet((4, 6, 5, 2), rng, final_gain=1.0)
    x = rng.standard_normal((8, 4))
    target = rng.standard_normal((8, 2))

    def loss():
        return float(np.sum((net(x) - target) ** 2))

    out, cache = net.forward(x)
    analytic = net.backward(cache, 2.0 * (out - target))
    numeric = finite_difference_grads(net.params, loss)
    assert_grads_close(analytic, numeric)


# ----------------------------------------------------------------------
# Gaussian policy
# ----------------------------------------------------------------------

def test_sample_collapses_to_mean_at_tiny_std():
    rng = np.random.default_rng(4)
    policy = GaussianPolicy(5, 2, rng)
    policy.log_std[:] = -40.0
    obs = rng.standard_normal(5)
    action, _ = policy.sample(obs, np.random.default_rng(0))
    np.testing.assert_allclose(action, policy.mean_action(obs), atol=1e-12)


def test_sample_at_a_std_that_underflowed_gives_the_array_forms_nan():
    rng = np.random.default_rng(4)
    policy = GaussianPolicy(5, 2, rng)
    policy.log_std[:] = -800.0  # exp underflows to 0.0
    obs = rng.standard_normal((1, 5))
    with np.errstate(invalid="ignore"):
        action, log_prob = policy.sample(obs, np.random.default_rng(0))
        want, _ = policy.log_prob_of(policy.mean_action(obs)[None], np.array([action]))
    assert action == policy.mean_action(obs).tolist()
    assert math.isnan(log_prob) and math.isnan(want[0])


def test_log_prob_at_mode():
    rng = np.random.default_rng(5)
    policy = GaussianPolicy(5, 2, rng)
    policy.log_std[:] = [math.log(0.5), math.log(0.8)]
    obs = rng.standard_normal(5)
    mean = policy.mean_action(obs)
    logp = policy.log_prob_of(mean[None, :], mean[None, :])[0][0]
    expected = -(math.log(0.5) + math.log(0.8)) - math.log(2.0 * math.pi)
    assert logp == pytest.approx(expected, abs=1e-12)


def test_sampling_is_seed_deterministic():
    policy = GaussianPolicy(5, 2, np.random.default_rng(6))
    obs = np.random.default_rng(1).standard_normal(5)
    a1, lp1 = policy.sample(obs, np.random.default_rng(77))
    a2, lp2 = policy.sample(obs, np.random.default_rng(77))
    np.testing.assert_array_equal(a1, a2)
    assert lp1 == lp2


def test_entropy_formula():
    policy = GaussianPolicy(3, 2, np.random.default_rng(7))
    policy.log_std[:] = [0.1, -0.4]
    expected = (0.1 - 0.4) + 0.5 * 2 * (1.0 + math.log(2.0 * math.pi))
    assert policy.entropy() == pytest.approx(expected, abs=1e-12)


def test_log_std_initialization():
    policy = GaussianPolicy(5, 2, np.random.default_rng(8))
    np.testing.assert_allclose(policy.std(), 0.5)


# ----------------------------------------------------------------------
# Gradient clipping and Adam
# ----------------------------------------------------------------------

def test_clip_gradients_scales_to_limit():
    grads = [np.full(4, 3.0), np.full(3, -2.0)]
    norm = math.sqrt(4 * 9 + 3 * 4)
    pre = clip_gradients(grads, 0.7)
    assert pre == pytest.approx(norm)
    post = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    assert post <= 0.7 + 1e-9
    assert post == pytest.approx(0.7, abs=1e-12)


def test_clip_gradients_noop_below_limit():
    grads = [np.array([0.1, -0.2])]
    clip_gradients(grads, 0.7)
    np.testing.assert_allclose(grads[0], [0.1, -0.2], atol=1e-15)


def test_adam_minimizes_quadratic():
    rng = np.random.default_rng(9)
    target = rng.standard_normal(6)
    params = [np.zeros(6)]
    opt = Adam(params)
    for _ in range(3000):
        grads = [2.0 * (params[0] - target)]
        opt.step(grads, 1e-2)
    np.testing.assert_allclose(params[0], target, atol=1e-6)
