"""On-policy PPO trainer for the (lookahead, gain) policy.

From-scratch implementation: rollout buffer with GAE, clipped-surrogate
updates with entropy and value terms, running observation/return
normalization, linear or cosine learning-rate schedules, KL-triggered
epoch skipping, periodic deterministic evaluation against a frozen copy
of the policy and normalization statistics, and versioned checkpoints that
fully restore deterministic evaluation.

Rollouts may fan out over several sequentially-stepped environments; the
update itself is a single-threaded critical section. Scheduled
evaluations run in a worker process while collection goes on, so the
trainer's ``env_factory`` must pickle. Every random stream derives from the
master seed by fixed offsets, so runs are reproducible.
"""

from __future__ import annotations

import collections
import csv
import json
import math
import numbers
import os
import pickle
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass

import numpy as np

from .files import atomic_open
from .nets import HIDDEN, Adam, DenseNet, GaussianPolicy, clip_gradients
from .pure_pursuit import GAIN_BOUNDS, LOOKAHEAD_BOUNDS

CHECKPOINT_FORMAT_VERSION = 1
TRAIN_ENV_SEED_STRIDE = 1000
EVAL_ENV_SEED_OFFSET = 999_983


@dataclass(frozen=True)
class PPOConfig:
    n_steps: int = 4096
    minibatch_size: int = 256
    epochs: int = 5
    gamma: float = 0.99
    gae_lambda: float = 0.98
    clip_epsilon: float = 0.2
    target_kl: float = 0.015
    entropy_coef: float = 0.02
    value_coef: float = 0.6
    max_grad_norm: float = 0.7
    learning_rate: float = 2.4e-4
    lr_schedule: str = "linear"  # linear | cosine
    total_steps: int = 1_200_000
    eval_every: int = 5000
    checkpoint_every: int = 25000
    n_envs: int = 1

    def __post_init__(self):
        if self.lr_schedule not in ("linear", "cosine"):
            raise ValueError("lr_schedule must be 'linear' or 'cosine'")
        if not (0.0 < self.gamma <= 1.0 and 0.0 < self.gae_lambda <= 1.0):
            raise ValueError("gamma and gae_lambda must be in (0, 1]")
        # Used as counts (``range``, array sizes); the other counts are
        # only compared and divided, where an integral float works.
        for name in ("n_steps", "minibatch_size", "epochs", "n_envs"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("n_steps", "minibatch_size", "epochs", "n_envs", "total_steps",
                     "eval_every", "checkpoint_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # Written as `not x > 0` so that a NaN fails too.
        for name in ("learning_rate", "clip_epsilon", "target_kl", "max_grad_norm"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        for name in ("entropy_coef", "value_coef"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0")
        if (self.n_steps * self.n_envs) % self.minibatch_size != 0:
            raise ValueError("minibatch_size must divide n_steps * n_envs")


def lr_schedule(kind: str, base: float, remaining: float) -> float:
    """Learning rate at remaining progress ``remaining`` (1 at start, 0 at end)."""
    if not 0.0 <= remaining <= 1.0:
        raise ValueError("remaining progress must be in [0, 1]")
    if kind == "linear":
        return base * remaining
    if kind == "cosine":
        return 0.5 * base * (1.0 + math.cos(math.pi * (1.0 - remaining)))
    raise ValueError(f"unknown schedule {kind!r}")


class RunningNormalizer:
    """Running mean/variance in the numerically-stable parallel-update form.

    ``scale`` is ``sqrt(var + eps)``, kept with the statistics: every
    assignment of ``var`` assigns it too, so :meth:`apply`, which runs on
    every collected and evaluated step while the statistics change at most
    once per step, only subtracts, divides and clips.
    """

    def __init__(self, shape, clip: float = 10.0, eps: float = 1e-8):
        if not eps > 0.0:
            raise ValueError("eps must be > 0")
        self.mean = np.zeros(shape)
        self.var = np.ones(shape)
        self.scale = np.sqrt(self.var + eps)
        self.count = 0.0
        self.clip = clip
        self.eps = eps

    def update(self, batch: np.ndarray):
        batch = np.atleast_2d(np.asarray(batch, dtype=float))
        if batch.shape[0] == 1:
            self._update_row(batch[0].tolist())
            return
        batch_count = batch.shape[0]
        # The steps of ``batch.mean(axis=0)`` and ``batch.var(axis=0)``,
        # without their per-call overhead; the floats are the same.
        batch_mean = np.add.reduce(batch, axis=0) / batch_count
        deviation = batch - batch_mean
        batch_var = np.add.reduce(deviation * deviation, axis=0) / batch_count
        if self.count == 0.0:
            self.mean = batch_mean
            self.var = batch_var
            self.scale = np.sqrt(batch_var + self.eps)
            self.count = float(batch_count)
            return
        delta = batch_mean - self.mean
        total = self.count + batch_count
        self.mean = self.mean + delta * batch_count / total
        m_a = self.var * self.count
        m_b = batch_var * batch_count
        m2 = m_a + m_b + delta * delta * self.count * batch_count / total
        self.var = m2 / total
        self.scale = np.sqrt(self.var + self.eps)
        self.count = total

    def _update_row(self, row: list):
        """:meth:`update` with one row, on floats, giving the same floats.

        numpy's reduction adds the row to 0.0, so the row's mean is
        ``0.0 + x`` (a -0.0 becomes 0.0) and its variance ``(x - mean)**2``,
        which is NaN for an infinite or NaN ``x``. A batch count of 1
        multiplies exactly, so it is left out. ``math.sqrt`` rounds as
        ``np.sqrt`` does, and a variance is never below 0.
        """
        count = self.count
        total = count + 1.0
        eps = self.eps
        mean, var, scale = [], [], []
        for x, m, v in zip(row, self.mean.tolist(), self.var.tolist()):
            row_mean = 0.0 + x
            d = x - row_mean
            if count == 0.0:
                mean.append(row_mean)
                v = d * d
            else:
                delta = row_mean - m
                mean.append(m + delta / total)
                v = (v * count + d * d + delta * delta * count / total) / total
            var.append(v)
            scale.append(math.sqrt(v + eps))
        self.mean = np.array(mean)
        self.var = np.array(var)
        self.scale = np.array(scale)
        self.count = total

    def apply(self, x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - self.mean) / self.scale
        return np.minimum(np.maximum(z, -self.clip), self.clip)

    def state(self) -> dict:
        return {"mean": self.mean.copy(), "var": self.var.copy(),
                "count": self.count}

    def load_state(self, state: dict):
        self.mean = np.array(state["mean"], dtype=float)
        self.var = np.array(state["var"], dtype=float)
        self.scale = np.sqrt(self.var + self.eps)
        self.count = float(state["count"])


class ReturnNormalizer:
    """Scales rewards by the running std of the discounted return accumulator."""

    def __init__(self, gamma: float, n_envs: int, clip: float = 10.0,
                 eps: float = 1e-8):
        self.gamma = gamma
        self.accumulator = np.zeros(n_envs)
        self.stats = RunningNormalizer(1, clip=clip, eps=eps)
        self.clip = clip

    def update(self, rewards: np.ndarray, dones: np.ndarray) -> np.ndarray:
        """Fold rewards into the accumulator, update the variance, and
        return the normalized rewards."""
        rewards = np.asarray(rewards, dtype=float)
        if rewards.shape == (1,):
            # One environment, on floats with the array path's results.
            reward = rewards.item()
            accumulated = self.accumulator.item() * self.gamma + reward
            self.stats._update_row([accumulated])
            scaled = reward / self.stats.scale.item()
            self.accumulator[0] = 0.0 if dones[0] else accumulated
            return np.array([min(max(scaled, -self.clip), self.clip)])
        self.accumulator = self.accumulator * self.gamma + rewards
        self.stats.update(self.accumulator[:, None])
        normalized = self.apply(rewards)
        self.accumulator[np.asarray(dones, dtype=bool)] = 0.0
        return normalized

    def apply(self, rewards: np.ndarray) -> np.ndarray:
        scaled = np.asarray(rewards, dtype=float) / self.stats.scale
        return np.minimum(np.maximum(scaled, -self.clip), self.clip)

    def state(self) -> dict:
        return {"var": self.stats.var.copy(), "count": self.stats.count,
                "accumulator": self.accumulator.copy()}


class RolloutBuffer:
    """Fixed-capacity on-policy storage, written once per update cycle."""

    def __init__(self, n_steps: int, n_envs: int, obs_dim: int, act_dim: int):
        self.n_steps = n_steps
        self.n_envs = n_envs
        self.obs = np.zeros((n_steps, n_envs, obs_dim))
        self.actions = np.zeros((n_steps, n_envs, act_dim))
        self.log_probs = np.zeros((n_steps, n_envs))
        self.rewards = np.zeros((n_steps, n_envs))
        self.values = np.zeros((n_steps, n_envs))
        self.episode_starts = np.zeros((n_steps, n_envs), dtype=bool)
        self.advantages = np.zeros((n_steps, n_envs))
        self.returns = np.zeros((n_steps, n_envs))
        self.pos = 0

    def add(self, obs, episode_start) -> int:
        """Open the next row with its normalized observations and
        episode-start flags; return its index. The caller writes the row's
        actions, log-probabilities and rewards into their row views, and
        the values once the buffer is full."""
        t = self.pos
        self.obs[t] = obs
        self.episode_starts[t] = episode_start
        self.pos += 1
        return t

    @property
    def full(self) -> bool:
        return self.pos == self.n_steps

    def reset(self):
        self.pos = 0

    def flat(self, arr: np.ndarray) -> np.ndarray:
        return arr.reshape(self.n_steps * self.n_envs, *arr.shape[2:])


def compute_gae(buffer: RolloutBuffer, last_values: np.ndarray,
                last_dones: np.ndarray, gamma: float, lam: float):
    """Backward-recursive GAE; fills ``buffer.advantages`` and ``buffer.returns``.

    ``last_values`` bootstrap the step after the buffer; ``last_dones``
    flag environments whose final transition ended an episode.

    The recursion runs per env column on floats, in the operation order
    of its array form over all envs at once
    (``delta = r + gamma * v' * (1 - done') - v``,
    ``gae = delta + gamma * lam * (1 - done') * gae``), so the floats are
    the same without numpy's per-call cost on every step.
    """
    if not buffer.full:
        raise ValueError("buffer must be full before computing advantages")
    gamma_lam = gamma * lam
    columns = zip(buffer.rewards.T.tolist(), buffer.values.T.tolist(),
                  buffer.episode_starts.T.tolist(),
                  np.asarray(last_values, dtype=float).tolist(),
                  np.asarray(last_dones, dtype=float).tolist())
    for env, (rewards, values, starts, next_value, last_done) in enumerate(columns):
        next_non_terminal = 1.0 - last_done
        gae = 0.0
        advantages = [0.0] * buffer.n_steps
        for t in reversed(range(buffer.n_steps)):
            value = values[t]
            delta = rewards[t] + gamma * next_value * next_non_terminal - value
            gae = delta + gamma_lam * next_non_terminal * gae
            advantages[t] = gae
            next_non_terminal = 1.0 - starts[t]
            next_value = value
        buffer.advantages[:, env] = advantages
    buffer.returns[:] = buffer.advantages + buffer.values
    return buffer.advantages, buffer.returns


@dataclass
class Diagnostics:
    step: int
    approx_kl: float
    clip_fraction: float
    action_std: tuple
    value_loss: float
    entropy: float
    mean_episode_return: float
    eval_return: float
    learning_rate: float
    aborted: bool = False
    epochs_completed: int = 0

    def row(self) -> dict:
        """One metrics.csv row: the fields in order, ``aborted`` as 0/1 and
        ``action_std`` split into trailing ``action_std_<j>`` columns."""
        out = asdict(self)
        out["aborted"] = int(self.aborted)
        for j, s in enumerate(out.pop("action_std")):
            out[f"action_std_{j}"] = s
        return out


@dataclass
class CycleTimes:
    """Wall-clock seconds of one collect/update cycle.

    ``eval_s`` is the episode seconds that the evaluation worker reported
    for the evaluations read in this cycle; they overlap collection and
    the update rather than adding to them. ``env_steps_per_s`` is the
    cycle's training env steps over its wall clock, which includes any
    wait for those evaluations. Unlike :class:`Diagnostics`, these differ
    between runs of one seed.
    """

    collect_s: float
    update_s: float
    eval_s: float
    env_steps_per_s: float


class TrainingDiverged(RuntimeError):
    """Raised when parameters stop being finite."""


def clipped_surrogate(ratio: np.ndarray, advantages: np.ndarray,
                      eps: float) -> np.ndarray:
    """Per-sample pessimistic surrogate: min of the raw and ratio-clipped terms."""
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps) * advantages
    return np.minimum(unclipped, clipped)


def ppo_loss_and_grads(policy: GaussianPolicy, value_net: DenseNet,
                       obs, actions, log_probs_old, advantages, returns,
                       config: PPOConfig):
    """Full PPO minibatch loss and its exact parameter gradients.

    Returns (loss, grads, stats) where ``grads`` aligns with
    ``policy.mean_net.params + [policy.log_std] + value_net.params`` and is
    not yet norm-clipped. ``advantages`` are used as given (standardize
    before calling).
    """
    eps = config.clip_epsilon
    b = obs.shape[0]

    mean, cache_pi = policy.mean_net.forward(obs)
    logp, z = policy.log_prob_of(mean, actions)
    std = policy.std()
    with np.errstate(over="ignore"):
        ratio = np.exp(logp - log_probs_old)

    surrogate = clipped_surrogate(ratio, advantages, eps)
    policy_loss = -surrogate.mean()

    values, cache_v = value_net.forward(obs)
    v_err = values[:, 0] - returns
    value_loss = float(np.mean(v_err * v_err))

    entropy = policy.entropy()
    loss = float(policy_loss + config.value_coef * value_loss
                 - config.entropy_coef * entropy)

    # Reverse pass. The surrogate gradient flows through the branch the min
    # selected; the clipped branch is flat outside the band.
    take_unclipped = ratio * advantages <= surrogate
    inside_band = (ratio > 1.0 - eps) & (ratio < 1.0 + eps)
    dsurr_dratio = np.where(take_unclipped, advantages, advantages * inside_band)
    dloss_dlogp = -(dsurr_dratio * ratio) / b
    grad_mean = dloss_dlogp[:, None] * (z / std)
    grad_log_std = np.sum(dloss_dlogp[:, None] * (z * z - 1.0), axis=0)
    grad_log_std = grad_log_std - config.entropy_coef
    grad_values = (2.0 * config.value_coef / b) * v_err[:, None]

    policy_grads = policy.mean_net.backward(cache_pi, grad_mean)
    value_grads = value_net.backward(cache_v, grad_values)
    grads = policy_grads + [grad_log_std] + value_grads

    with np.errstate(over="ignore"):
        kl = float(np.mean(log_probs_old - logp + ratio - 1.0))
    stats = {
        "approx_kl": kl,
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > eps)),
        "value_loss": value_loss,
    }
    return loss, grads, stats


def ppo_update(policy: GaussianPolicy, value_net: DenseNet, optimizer: Adam,
               buffer: RolloutBuffer, config: PPOConfig, learning_rate: float,
               shuffle_rng: np.random.Generator) -> dict:
    """One PPO update over the full buffer; returns aggregate diagnostics.

    Advantages are standardized once per update. After each epoch the
    low-variance KL estimate is compared against the target and remaining
    epochs are skipped when it is exceeded. A non-finite loss aborts the
    update and flags the run.
    """
    obs = buffer.flat(buffer.obs)
    actions = buffer.flat(buffer.actions)
    log_probs_old = buffer.flat(buffer.log_probs)
    advantages = buffer.flat(buffer.advantages).copy()
    returns = buffer.flat(buffer.returns)

    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

    n = obs.shape[0]
    kls, clip_fracs, value_losses = [], [], []
    aborted = False
    epochs_completed = 0

    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        epoch_kls = []
        for start in range(0, n, config.minibatch_size):
            idx = order[start:start + config.minibatch_size]
            loss, grads, stats = ppo_loss_and_grads(
                policy, value_net, obs[idx], actions[idx], log_probs_old[idx],
                advantages[idx], returns[idx], config)
            if not np.isfinite(loss):
                aborted = True
                break
            clip_gradients(grads, config.max_grad_norm)
            optimizer.step(grads, learning_rate)
            epoch_kls.append(stats["approx_kl"])
            kls.append(stats["approx_kl"])
            clip_fracs.append(stats["clip_fraction"])
            value_losses.append(stats["value_loss"])
        if aborted:
            break
        epochs_completed += 1
        if np.mean(epoch_kls) > config.target_kl:
            break

    return {
        "approx_kl": float(np.mean(kls)) if kls else 0.0,
        "clip_fraction": float(np.mean(clip_fracs)) if clip_fracs else 0.0,
        "value_loss": float(np.mean(value_losses)) if value_losses else math.nan,
        "entropy": policy.entropy(),
        "aborted": aborted,
        "epochs_completed": epochs_completed,
    }


def save_checkpoint(path, policy: GaussianPolicy, value_net: DenseNet,
                    obs_norm: RunningNormalizer, ret_norm: ReturnNormalizer,
                    meta: dict):
    """Atomic versioned dump of everything deterministic evaluation needs."""
    arrays = {}
    for i, p in enumerate(policy.mean_net.params):
        arrays[f"pi_{i}"] = p
    arrays["pi_log_std"] = policy.log_std
    for i, p in enumerate(value_net.params):
        arrays[f"vf_{i}"] = p
    arrays["obs_mean"] = obs_norm.mean
    arrays["obs_var"] = obs_norm.var
    arrays["obs_count"] = np.array(obs_norm.count)
    # Acting never reads the return statistics; they stay in the file so
    # that readers expecting them still load it.
    arrays["ret_var"] = np.array(ret_norm.stats.var)
    arrays["ret_count"] = np.array(ret_norm.stats.count)
    full_meta = {"format_version": CHECKPOINT_FORMAT_VERSION,
                 "obs_dim": policy.obs_dim, "act_dim": policy.act_dim,
                 "hidden": list(policy.mean_net.sizes[1:-1])}
    full_meta.update(meta)
    arrays["meta_json"] = np.array(json.dumps(full_meta))

    with atomic_open(path, "wb") as f:
        np.savez(f, **arrays)


@dataclass
class PolicyBundle:
    """A restored checkpoint: policy, value net, frozen normalization, meta."""

    policy: GaussianPolicy
    value_net: DenseNet
    obs_norm: RunningNormalizer
    meta: dict

    def act(self, raw_obs: np.ndarray) -> np.ndarray:
        """Deterministic (mean) action for a raw observation."""
        return self.policy.mean_action(self.obs_norm.apply(raw_obs))


def load_checkpoint(path) -> PolicyBundle:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta_json"]))
        if meta["format_version"] != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['format_version']}")
        rng = np.random.default_rng(0)
        policy = GaussianPolicy(meta["obs_dim"], meta["act_dim"], rng,
                                hidden=tuple(meta["hidden"]))
        policy.mean_net.params = [data[f"pi_{i}"].copy()
                                  for i in range(len(policy.mean_net.params))]
        policy.log_std = data["pi_log_std"].copy()
        value_net = DenseNet((meta["obs_dim"], *meta["hidden"], 1), rng,
                             final_gain=1.0)
        value_net.params = [data[f"vf_{i}"].copy()
                            for i in range(len(value_net.params))]
        obs_norm = RunningNormalizer(meta["obs_dim"])
        obs_norm.load_state({"mean": data["obs_mean"], "var": data["obs_var"],
                             "count": float(data["obs_count"])})
        return PolicyBundle(policy, value_net, obs_norm, meta)


def evaluate_episode(env, policy: GaussianPolicy, obs_norm: RunningNormalizer,
                     seed: int, max_steps: int | None = None) -> float:
    """Return of one deterministic episode of ``env`` reset with ``seed``.

    Acts with the policy's mean on ``obs_norm``-normalized observations;
    the statistics are applied but never updated.
    """
    obs = env.reset(seed=seed)
    total = 0.0
    steps = 0
    done = False
    while not done:
        action = policy.mean_action(obs_norm.apply(obs))
        obs, reward, done, _ = env.step(action)
        total += reward
        steps += 1
        if max_steps is not None and steps >= max_steps:
            break
    return total


# The worker's command: the parent's import path, then the request loop.
_WORKER_CODE = ("import json, sys; sys.path[:] = json.loads(sys.argv[1]); "
                f"from {__name__} import serve_evaluations; serve_evaluations()")


def serve_evaluations():
    """Evaluation worker loop, the body of :class:`EvalWorker`'s process.

    Reads pickles from stdin: first ``(env_factory, seed)``, then one
    snapshot per evaluation, :func:`save_checkpoint`'s arguments after the
    path, of which it evaluates the policy and ``obs_norm``. Answers each
    on stdout, in order, with ``(return, seconds)`` or the exception that
    the episode raised. The env is built once, on the first request. Ends
    at EOF.
    """
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # stray prints go to stderr, not into the replies
    # An interrupt reaches the whole process group; the trainer's handling
    # of it stops this process.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    requests = sys.stdin.buffer
    env_factory, seed = pickle.load(requests)
    env = None
    with replies:
        while True:
            try:
                policy, _, obs_norm, _, _ = pickle.load(requests)
            except EOFError:
                return
            start = time.perf_counter()
            try:
                if env is None:
                    env = env_factory(seed)
                reply = (evaluate_episode(env, policy, obs_norm, seed),
                         time.perf_counter() - start)
            except Exception as exc:  # reported to the trainer, which raises it
                traceback.print_exc()
                try:
                    data = pickle.dumps(exc)
                    pickle.loads(data)
                except Exception:
                    data = pickle.dumps(RuntimeError(f"evaluation failed: {exc!r}"))
            else:
                data = pickle.dumps(reply)
            replies.write(data)
            replies.flush()


class EvalWorker:
    """A fresh interpreter that runs :func:`evaluate_episode` on request.

    It is started with the parent's ``sys.path`` and builds its env once,
    from ``env_factory(seed)``; the factory is pickled here, so an
    unpicklable one fails before any request. :meth:`submit` sends a
    pickled snapshot of the trainer and returns at once;
    :meth:`result` waits for the oldest unread answer. :meth:`close`
    stops the process and reaps it.
    """

    def __init__(self, env_factory, seed: int):
        self._setup = pickle.dumps((env_factory, seed))
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _WORKER_CODE, json.dumps(sys.path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def submit(self, snapshot: bytes):
        """Send ``snapshot``, the pickled :func:`save_checkpoint` arguments
        after the path, to be evaluated."""
        # The set-up message goes with the first request, by when the
        # worker has started and reads it without stalling the trainer.
        data = self._setup + snapshot
        self._setup = b""
        self._proc.stdin.write(data)
        self._proc.stdin.flush()

    def result(self) -> tuple[float, float]:
        """``(return, episode seconds)`` of the oldest unread request."""
        try:
            reply = pickle.load(self._proc.stdout)
        except EOFError:
            raise RuntimeError(f"evaluation worker exited with code "
                               f"{self._proc.wait()}") from None
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def close(self):
        """Stop the worker, dropping unread requests, and reap it."""
        self._proc.kill()
        self._proc.wait()
        try:
            self._proc.stdin.close()
        except BrokenPipeError:  # a request the worker never read
            pass
        self._proc.stdout.close()


class PPOTrainer:
    """Owns environments, networks, normalizers, and the training loop.

    ``env_factory(seed)`` must return a fresh environment exposing
    ``reset(seed)``, ``step(action)``, ``observation_dim`` and
    ``action_dim``. Training environments get ``seed + 1000 * (i + 1)``;
    the evaluation environment gets a fixed large offset. Scheduled
    evaluations run in an :class:`EvalWorker` that builds its own
    evaluation env, so ``env_factory`` must pickle: a module-level class
    or function, or a ``functools.partial`` of one.
    """

    def __init__(self, env_factory, config: PPOConfig, seed: int = 0,
                 out_dir=None, extra_meta: dict | None = None):
        self.config = config
        self.seed = seed
        self.out_dir = out_dir
        self.extra_meta = dict(extra_meta or {})
        self.env_factory = env_factory
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)

        self.envs = [env_factory(seed + TRAIN_ENV_SEED_STRIDE * (i + 1))
                     for i in range(config.n_envs)]
        self.eval_env = env_factory(seed + EVAL_ENV_SEED_OFFSET)
        obs_dim = self.envs[0].observation_dim
        act_dim = self.envs[0].action_dim

        self.rng = np.random.default_rng(seed)
        mean_bias = [0.5 * (LOOKAHEAD_BOUNDS[0] + LOOKAHEAD_BOUNDS[1])]
        if act_dim == 2:
            mean_bias.append(0.5 * (GAIN_BOUNDS[0] + GAIN_BOUNDS[1]))
        self.policy = GaussianPolicy(obs_dim, act_dim, self.rng, mean_bias=mean_bias)
        self.value_net = DenseNet((obs_dim, *HIDDEN, 1), self.rng, final_gain=1.0)
        self.optimizer = Adam(self.policy.params + self.value_net.params)
        self.obs_norm = RunningNormalizer(obs_dim)
        self.ret_norm = ReturnNormalizer(config.gamma, config.n_envs)
        self.buffer = RolloutBuffer(config.n_steps, config.n_envs, obs_dim, act_dim)

        self.global_step = 0
        self.best_eval_return = -math.inf
        self.last_eval_return = math.nan
        self.metrics: list[Diagnostics] = []
        self.cycle_times: list[CycleTimes] = []  # one per entry of metrics
        self._episode_returns: list[float] = []
        self._running_returns = np.zeros(config.n_envs)
        self._eval_bucket = 0
        self._checkpoint_bucket = 0
        self._evaluator: EvalWorker | None = None  # only while train() runs
        # pickled save_checkpoint arguments of each submitted, unread evaluation
        self._pending: collections.deque[bytes] = collections.deque()

        self._obs = np.stack([env.reset() for env in self.envs])
        self._episode_start = np.ones(config.n_envs, dtype=bool)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def collect_rollout(self):
        """Fill the buffer with ``n_steps`` steps of every training env, then
        its values, advantages and returns.

        Each step does only what the next env step needs: it updates the
        observation statistics, writes the normalized observations into
        the buffer's next row, samples each env's action and
        log-probability into that row, steps the envs and stores the
        normalized rewards. The value net cannot change before the update,
        so the values come after the loop, from one forward pass over the
        ``(n_steps, n_envs, obs_dim)`` observations. numpy's matmul runs
        each ``(n_envs, obs_dim)`` slice of that stack with the same BLAS
        call as a forward of that slice alone, so the values are the
        floats a per-step pass would give (tests/test_nets.py checks it).

        An evaluation that falls due is handed to :meth:`train`'s worker,
        so a call outside :meth:`train` must not cross ``eval_every``.
        """
        buffer = self.buffer
        buffer.reset()
        self._episode_returns = []
        cfg = self.config
        dones = self._episode_start  # a step's dones start the next step's episodes
        for _ in range(cfg.n_steps):
            self.obs_norm.update(self._obs)
            t = buffer.add(self.obs_norm.apply(self._obs), dones)
            norm_obs, actions = buffer.obs[t], buffer.actions[t]
            log_probs, rewards = buffer.log_probs[t], buffer.rewards[t]
            for i in range(cfg.n_envs):
                actions[i], log_probs[i] = self.policy.sample(norm_obs[i], self.rng)

            for i, env in enumerate(self.envs):
                obs_i, reward_i, done_i, _ = env.step(actions[i])
                rewards[i] = reward_i
                dones[i] = done_i
                self._running_returns[i] += reward_i
                if done_i:
                    self._episode_returns.append(self._running_returns[i])
                    self._running_returns[i] = 0.0
                    obs_i = env.reset()
                self._obs[i] = obs_i

            rewards[:] = self.ret_norm.update(rewards, dones)
            self.global_step += cfg.n_envs
            self._maybe_eval_and_checkpoint()

        buffer.values[:] = self.value_net(buffer.obs)[..., 0]
        last_values = self.value_net(self.obs_norm.apply(self._obs))[:, 0]
        compute_gae(buffer, last_values, dones, cfg.gamma, cfg.gae_lambda)

    # ------------------------------------------------------------------
    # Evaluation / checkpoints
    # ------------------------------------------------------------------

    def evaluate(self, max_steps: int | None = None) -> float:
        """One deterministic episode on the eval environment, in this
        process: :func:`evaluate_episode` with the trainer's current policy
        and normalization statistics, which it reads but never updates."""
        return evaluate_episode(self.eval_env, self.policy, self.obs_norm,
                                self.seed + EVAL_ENV_SEED_OFFSET, max_steps)

    def _maybe_eval_and_checkpoint(self):
        cfg = self.config
        bucket = self.global_step // cfg.eval_every
        if bucket > self._eval_bucket:
            if self._evaluator is None:
                raise RuntimeError("an evaluation fell due outside train(), "
                                   "whose worker runs them")
            self._eval_bucket = bucket
            snapshot = pickle.dumps(self._checkpoint_args())
            self._evaluator.submit(snapshot)
            self._pending.append(snapshot)
        bucket = self.global_step // cfg.checkpoint_every
        if bucket > self._checkpoint_bucket:
            self._checkpoint_bucket = bucket
            if self.out_dir is not None:
                self.save(os.path.join(self.out_dir,
                                       f"checkpoint_{self.global_step:09d}.npz"))

    def _read_evaluations(self) -> float:
        """Wait for every submitted evaluation, in order, and save the best
        snapshot; returns the episode seconds the worker reported."""
        seconds = 0.0
        while self._pending:
            value, episode_s = self._evaluator.result()
            snapshot = self._pending.popleft()
            seconds += episode_s
            self.last_eval_return = value
            if value > self.best_eval_return:
                self.best_eval_return = value
                if self.out_dir is not None:
                    save_checkpoint(os.path.join(self.out_dir, "best_model.npz"),
                                    *pickle.loads(snapshot))
        return seconds

    def _checkpoint_args(self) -> tuple:
        """:func:`save_checkpoint`'s arguments after the path, for now."""
        return (self.policy, self.value_net, self.obs_norm, self.ret_norm,
                {"seed": self.seed, "step": self.global_step, **self.extra_meta})

    def save(self, path):
        save_checkpoint(path, *self._checkpoint_args())

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------

    def learning_rate(self) -> float:
        remaining = max(0.0, 1.0 - self.global_step / self.config.total_steps)
        return lr_schedule(self.config.lr_schedule, self.config.learning_rate,
                           remaining)

    def train(self, total_steps: int | None = None) -> list[Diagnostics]:
        """Collect/update cycles until ``total_steps`` (default: the
        config's) is reached; returns every cycle's diagnostics.

        Evaluations that fall due run in one :class:`EvalWorker`, started
        here when the last cycle's step crosses an ``eval_every``
        boundary and stopped before this returns or raises. Each cycle
        reads its evaluations after the update.
        """
        cfg = self.config
        target = total_steps if total_steps is not None else cfg.total_steps
        per_cycle = cfg.n_steps * cfg.n_envs
        # Whole cycles run until the step reaches target: ceil division.
        cycles = max(0, -(-(target - self.global_step) // per_cycle))
        if (self.global_step + cycles * per_cycle) // cfg.eval_every > self._eval_bucket:
            self._evaluator = EvalWorker(self.env_factory,
                                         self.seed + EVAL_ENV_SEED_OFFSET)
        try:
            while self.global_step < target:
                self._cycle()
        finally:
            if self._evaluator is not None:
                self._evaluator.close()
                self._evaluator = None
            self._pending.clear()
        if self.out_dir is not None:
            self.save(os.path.join(self.out_dir, "final_model.npz"))
        return self.metrics

    def _cycle(self):
        cfg = self.config
        start = time.perf_counter()
        lr = self.learning_rate()  # at the progress where this update starts
        self.collect_rollout()
        collected = time.perf_counter()
        stats = ppo_update(self.policy, self.value_net, self.optimizer,
                           self.buffer, cfg, lr, self.rng)
        updated = time.perf_counter()
        eval_s = self._read_evaluations()
        self._check_finite()
        mean_ep = float(np.mean(self._episode_returns)) \
            if self._episode_returns else math.nan
        self.metrics.append(Diagnostics(
            step=self.global_step,
            approx_kl=stats["approx_kl"],
            clip_fraction=stats["clip_fraction"],
            action_std=tuple(self.policy.std()),
            value_loss=stats["value_loss"],
            entropy=stats["entropy"],
            mean_episode_return=mean_ep,
            eval_return=self.last_eval_return,
            learning_rate=lr,
            aborted=stats["aborted"],
            epochs_completed=stats["epochs_completed"],
        ))
        self.cycle_times.append(CycleTimes(
            collect_s=collected - start,
            update_s=updated - collected,
            eval_s=eval_s,
            env_steps_per_s=cfg.n_steps * cfg.n_envs / (time.perf_counter() - start),
        ))
        if self.out_dir is not None:
            # Every finished update is on disk, even if a later one dies.
            self.write_metrics(os.path.join(self.out_dir, "metrics.csv"))

    def _check_finite(self):
        for p in self.policy.params + self.value_net.params:
            if not np.all(np.isfinite(p)):
                raise TrainingDiverged(
                    f"non-finite parameters at step {self.global_step}")

    def write_metrics(self, path):
        if not self.metrics:
            return
        rows = [{**d.row(), **asdict(t)}
                for d, t in zip(self.metrics, self.cycle_times)]
        with atomic_open(path) as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
