"""Dense networks with hand-rolled reverse-mode differentiation.

Small enough to own outright: affine layers with tanh hidden activations
and a linear head, exact gradients via cached forward activations, a
diagonal Gaussian policy head with learnable state-independent log-stds,
and an Adam optimizer over flat parameter lists. Everything is float64
numpy, so gradient checks against central finite differences are exact to
roundoff.
"""

from __future__ import annotations

import math

import numpy as np

LOG_STD_INIT = math.log(0.5)
HIDDEN = (64, 64)  # hidden-layer widths of the policy's mean net and the value net
LOG_2PI = math.log(2.0 * math.pi)


def orthogonal_init(rng: np.random.Generator, shape, gain: float) -> np.ndarray:
    """Orthogonal weight matrix scaled by ``gain``."""
    a = rng.standard_normal(shape)
    q, r = np.linalg.qr(a if shape[0] >= shape[1] else a.T)
    q = q * np.sign(np.diag(r))
    if shape[0] < shape[1]:
        q = q.T
    return gain * q[: shape[0], : shape[1]]


class DenseNet:
    """Affine-tanh stack with a linear output layer.

    Parameters live in ``self.params`` as [W0, b0, W1, b1, ...]; gradients
    returned by :meth:`backward` share that ordering.
    """

    def __init__(self, sizes, rng: np.random.Generator,
                 final_gain: float = 0.01, final_bias=None):
        self.sizes = tuple(sizes)
        self.params = []
        last = len(sizes) - 2
        for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            gain = final_gain if i == last else math.sqrt(2.0)
            w = orthogonal_init(rng, (n_in, n_out), gain)
            b = np.zeros(n_out)
            if i == last and final_bias is not None:
                b = np.array(final_bias, dtype=float)
            self.params.extend([w, b])

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    def forward(self, x: np.ndarray):
        """Batch forward pass. Returns (output, cache) with cache holding
        each layer's input and post-activation."""
        cache = []
        return self._layers(x, cache), cache

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Batch forward pass for inference: :meth:`forward`'s output, with
        no cache built."""
        return self._layers(x, None)

    def _layers(self, x, cache):
        h = np.atleast_2d(np.asarray(x, dtype=float))
        last = self.n_layers - 1
        for i in range(self.n_layers):
            out = h @ self.params[2 * i] + self.params[2 * i + 1]
            if i < last:
                np.tanh(out, out=out)
            if cache is not None:
                cache.append((h, out))
            h = out
        return h

    def backward(self, cache, grad_out: np.ndarray):
        """Exact gradients of a scalar loss w.r.t. every weight and bias.

        ``grad_out`` is dLoss/dOutput for the batch that produced ``cache``.
        """
        grads = [None] * len(self.params)
        d = np.atleast_2d(np.asarray(grad_out, dtype=float))
        for i in reversed(range(self.n_layers)):
            h_in, h_out = cache[i]
            if i < self.n_layers - 1:
                d = d * (1.0 - h_out * h_out)
            grads[2 * i] = h_in.T @ d
            grads[2 * i + 1] = d.sum(axis=0)
            if i > 0:
                d = d @ self.params[2 * i].T
        return grads


class GaussianPolicy:
    """Diagonal Gaussian over actions, mean from a DenseNet.

    Sampling is unsquashed; ``pure_pursuit.ExternalSource.publish`` clips
    actions to their bounds; the log-probability is of the unclipped sample.
    """

    def __init__(self, obs_dim: int, act_dim: int, rng: np.random.Generator,
                 hidden=HIDDEN, mean_bias=None):
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.mean_net = DenseNet((obs_dim, *hidden, act_dim), rng,
                                 final_gain=0.01, final_bias=mean_bias)
        self.log_std = np.full(act_dim, LOG_STD_INIT)

    @property
    def params(self):
        return self.mean_net.params + [self.log_std]

    def std(self) -> np.ndarray:
        return np.exp(self.log_std)

    def sample(self, obs: np.ndarray, rng: np.random.Generator):
        """Draw one action; returns (action, log_prob).

        The log-probability is :meth:`log_prob_of`'s, summed on floats in
        numpy's order (from 0.0, one term at a time).
        """
        mean = self.mean_net(obs)[0]
        std = np.exp(self.log_std)
        action = mean + std * rng.standard_normal(self.act_dim)
        square_sum = 0.0
        for z in ((action - mean) / std).tolist():
            square_sum += z * z
        log_std_sum = 0.0
        for log_std in self.log_std.tolist():
            log_std_sum += log_std
        return action, -0.5 * square_sum - log_std_sum - 0.5 * self.act_dim * LOG_2PI

    def mean_action(self, obs: np.ndarray) -> np.ndarray:
        return self.mean_net(obs)[0]

    def log_prob_of(self, mean: np.ndarray, actions: np.ndarray):
        """Log-probabilities of a batch of ``actions`` given their means.

        Returns ``(log_prob, z)``, where ``z = (actions - mean) / std`` are
        the standardized deviations that the PPO gradient reuses.
        """
        z = (actions - mean) / self.std()
        return (-0.5 * np.sum(z * z, axis=1)
                - np.sum(self.log_std)
                - 0.5 * self.act_dim * LOG_2PI), z

    def entropy(self) -> float:
        """Differential entropy (state-independent for a fixed diagonal std)."""
        return float(np.sum(self.log_std) + 0.5 * self.act_dim * (1.0 + LOG_2PI))


def clip_gradients(grads, max_norm: float) -> float:
    """Scale ``grads`` in place to a global L2 norm of ``max_norm``; returns
    the pre-clip norm."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


class Adam:
    """Adam over a list of parameter arrays, updated in place."""

    def __init__(self, params, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.params = params
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads, lr: float):
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
