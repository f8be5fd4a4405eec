"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail lines.
The two training-based criteria (11, 12) are stochastic by nature; they
train real policies and take several minutes each.
"""

import math
import time

import numpy as np

from pursuitlab import pure_pursuit as pp
from pursuitlab import raceline as rl
from pursuitlab.controllers import PurePursuitAdapter, RLPurePursuitController
from pursuitlab.env import RacingEnv, EnvConfig, RewardWeights, compute_reward
from pursuitlab.evaluation import run_laps, sweep_multipliers
from pursuitlab.mpc import MPCConfig, MPCTracker
from pursuitlab.nets import DenseNet, GaussianPolicy
from pursuitlab.ppo import (PPOConfig, PPOTrainer, PolicyBundle,
                            RunningNormalizer, RolloutBuffer, compute_gae,
                            lr_schedule, ppo_loss_and_grads)
from pursuitlab.pure_pursuit import (AdaptiveLinearSource, FixedSource,
                                     teacher_gain, teacher_lookahead)
from pursuitlab.qp import QPProblem, admm_solve
from pursuitlab.vehicle import (SimConfig, VehicleState, control_step,
                                rk4_step)

from test_env import random_context, reward_oracle
from test_nets import finite_difference_grads
from test_ppo import gae_oracle
from test_qp import random_box_qp

SIM = SimConfig()


def report(number, passed, description):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {number:2d}] {status}: {description}")
    assert passed, f"criterion {number}: {description}"


# ----------------------------------------------------------------------
# 1. Pure Pursuit law exactness
# ----------------------------------------------------------------------

def test_criterion_01_pure_pursuit_law():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10_000):
        y = float(rng.uniform(-3.0, 3.0))
        lookahead = float(rng.uniform(0.35, 4.0))
        gain = float(rng.uniform(0.45, 1.15))
        expected = min(0.35, max(-0.35, gain * 2.0 * y / lookahead ** 2))
        got = pp.pp_steering(y, lookahead, gain)
        worst = max(worst, abs(got - expected))
        assert pp.pp_steering(-y, lookahead, gain) == -got  # odd symmetry
        half = pp.pp_steering(y, lookahead, 0.5 * gain)
        if abs(got) < 0.35 and abs(half) < 0.35:
            assert abs(half - 0.5 * got) <= 1e-15 * max(1.0, abs(got))
    elapsed = time.time() - start
    report(1, worst < 1e-12 and elapsed < 1.0,
           f"steering law exact to {worst:.2e} over 10k inputs, "
           f"odd symmetry and gain linearity hold ({elapsed:.2f}s)")


# ----------------------------------------------------------------------
# 2. Bicycle integration
# ----------------------------------------------------------------------

def _circle_error(dt, delta=0.35, v=5.0, wheelbase=0.33):
    radius = wheelbase / math.tan(delta)
    omega = v * math.tan(delta) / wheelbase
    steps = int(round((math.pi / 2) / (omega * dt)))
    state = VehicleState(0.0, 0.0, 0.0, v)
    worst = 0.0
    for _ in range(steps):
        state = rk4_step(state, 0.0, delta, dt, wheelbase)
        r = math.hypot(state.x, state.y - radius)
        worst = max(worst, abs(r - radius) / radius)
    return worst

def test_criterion_02_bicycle_integration():
    start = time.time()
    base = _circle_error(0.01)
    halved = _circle_error(0.005)
    ratio = base / halved
    elapsed = time.time() - start
    report(2, base < 1e-3 and ratio >= 8.0 and elapsed < 5.0,
           f"circle radius error {base:.2e} (< 0.1%), halving dt improves "
           f"{ratio:.1f}x (>= 8x) ({elapsed:.2f}s)")


# ----------------------------------------------------------------------
# 3. Teacher targets
# ----------------------------------------------------------------------

def test_criterion_03_teacher_targets():
    checks = [
        abs(teacher_lookahead(10.0, 0.1) - 2.95),
        abs(teacher_gain(3.0) - 0.90),
        abs(teacher_gain(18.0) - 0.65),
    ]
    report(3, max(checks) < 1e-9,
           f"teacher schedule endpoints match hand evaluation "
           f"(worst {max(checks):.2e})")


# ----------------------------------------------------------------------
# 4. Reward oracle
# ----------------------------------------------------------------------

def test_criterion_04_reward_oracle():
    rng = np.random.default_rng(104)
    weights = RewardWeights()
    worst = 0.0
    in_bounds = True
    for _ in range(10_000):
        ctx = random_context(rng)
        got = compute_reward(ctx, weights)
        worst = max(worst, abs(got - reward_oracle(ctx, weights)))
        in_bounds &= weights.clip_lo <= got <= weights.clip_hi
    report(4, worst < 1e-12 and in_bounds,
           f"reward matches the independent term-by-term oracle "
           f"(worst {worst:.2e}) and stays in [-30, 100]")


# ----------------------------------------------------------------------
# 5. GAE oracle
# ----------------------------------------------------------------------

def test_criterion_05_gae_oracle():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(10):
        n = 200
        rewards = rng.standard_normal(n)
        values = rng.standard_normal(n)
        starts = rng.random(n) < 0.05
        starts[0] = True
        last_value = float(rng.standard_normal())
        last_done = bool(rng.random() < 0.5)
        buf = RolloutBuffer(n, 1, 1, 1)
        for r, v, s in zip(rewards, values, starts):
            t = buf.add(np.zeros((1, 1)), np.array([s]))
            buf.rewards[t] = r
            buf.values[t] = v
        adv, _ = compute_gae(buf, np.array([last_value]),
                             np.array([last_done]), 0.99, 0.98)
        oracle, _ = gae_oracle(rewards, values, starts, last_value, last_done,
                               0.99, 0.98)
        worst = max(worst, float(np.max(np.abs(adv[:, 0] - oracle))))
        # lambda limits
        buf2 = RolloutBuffer(n, 1, 1, 1)
        for r, v, s in zip(rewards, values, starts):
            t = buf2.add(np.zeros((1, 1)), np.array([s]))
            buf2.rewards[t] = r
            buf2.values[t] = v
        adv0, _ = compute_gae(buf2, np.array([last_value]),
                              np.array([last_done]), 0.99, 0.0)
        o0, _ = gae_oracle(rewards, values, starts, last_value, last_done,
                           0.99, 0.0)
        worst = max(worst, float(np.max(np.abs(adv0[:, 0] - o0))))
        adv1, _ = compute_gae(buf2, np.array([last_value]),
                              np.array([last_done]), 0.99, 1.0)
        o1, _ = gae_oracle(rewards, values, starts, last_value, last_done,
                           0.99, 1.0)
        worst = max(worst, float(np.max(np.abs(adv1[:, 0] - o1))))
    report(5, worst < 1e-12,
           f"advantage estimates match the brute-force nested-loop oracle "
           f"including terminals and both lambda limits (worst {worst:.2e})")


# ----------------------------------------------------------------------
# 6. Gradient check
# ----------------------------------------------------------------------

def test_criterion_06_gradient_check():
    start = time.time()
    rng = np.random.default_rng(106)
    policy = GaussianPolicy(5, 2, rng, hidden=(8, 8))
    policy.mean_net.params[-2][:] = 0.5 * rng.standard_normal(
        policy.mean_net.params[-2].shape)
    value_net = DenseNet((5, 8, 8, 1), rng, final_gain=1.0)
    batch = 16
    obs = rng.standard_normal((batch, 5))
    actions = policy.mean_net(obs) + rng.standard_normal((batch, 2))
    logp_old = policy.log_prob_of(policy.mean_net(obs), actions)[0] \
        + 0.1 * rng.standard_normal(batch)
    advantages = rng.standard_normal(batch)
    returns = rng.standard_normal(batch)
    config = PPOConfig()
    params = policy.mean_net.params + [policy.log_std] + value_net.params

    def loss():
        value, _, _ = ppo_loss_and_grads(policy, value_net, obs, actions,
                                         logp_old, advantages, returns, config)
        return value

    _, analytic, _ = ppo_loss_and_grads(policy, value_net, obs, actions,
                                        logp_old, advantages, returns, config)
    numeric = finite_difference_grads(params, loss, h=1e-5)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        rel = np.abs(a - n) / np.maximum(np.abs(n), 1e-7)
        worst = max(worst, float(rel.max()))
    elapsed = time.time() - start
    report(6, worst < 1e-4 and elapsed < 30.0,
           f"full loss gradients match central finite differences "
           f"(worst rel {worst:.2e}) ({elapsed:.1f}s)")


# ----------------------------------------------------------------------
# 7. QP solver
# ----------------------------------------------------------------------

def test_criterion_07_qp_solver():
    rng = np.random.default_rng(107)
    kkt_ok = True
    worst_kkt = 0.0
    for _ in range(100):
        qp = random_box_qp(rng, n=int(rng.integers(2, 10)),
                           m=int(rng.integers(1, 14)))
        result = admm_solve(qp)
        kkt = float(np.linalg.norm(qp.P @ result.x + qp.q + qp.A.T @ result.y,
                                   np.inf))
        worst_kkt = max(worst_kkt, kkt)
        kkt_ok &= result.converged and kkt < 1e-5

    # analytic box projection
    qp1 = QPProblem(np.eye(1) * 2.0, np.array([-2.0]), np.eye(1),
                    np.array([-0.4189]), np.array([0.4189]))
    r1 = admm_solve(qp1)
    proj_ok = abs(r1.x[0] - 0.4189) < 2e-4

    # 2-variable dense grid search
    factor = rng.standard_normal((2, 2))
    p2 = factor.T @ factor + 0.3 * np.eye(2)
    q2 = rng.uniform(-1.0, 1.0, size=2)
    qp2 = QPProblem(p2, q2, np.eye(2),
                    np.array([-0.5, -0.5]), np.array([0.5, 0.5]))
    r2 = admm_solve(qp2)
    xs = np.arange(-0.5, 0.5 + 5e-5, 1e-4)
    best = np.inf
    for x0 in xs:
        grid = np.column_stack([np.full_like(xs, x0), xs])
        vals = 0.5 * np.einsum("ij,jk,ik->i", grid, p2, grid) + grid @ q2
        best = min(best, float(vals.min()))
    grid_ok = abs(qp2.objective(r2.x) - best) < 2e-4

    # closed-loop straight-line steady state
    track = rl.synthesize_track("oval", straight=30.0, radius=3.0,
                                spacing=0.25, v_cap=2.0, a_lat_max=3.0)
    tracker = MPCTracker(track, MPCConfig())
    state = VehicleState(1.0, 0.12, 0.0, 2.0)
    prev_delta = 0.0
    steady_ok = True
    for k in range(80):
        command = tracker.step(state, k * SIM.dt_control).command
        state, prev_delta = control_step(state, command, prev_delta, SIM)
        if k * SIM.dt_control >= 3.0:
            steady_ok &= abs(rl.lateral_error(track, state.position)) < 0.05

    report(7, kkt_ok and proj_ok and grid_ok and steady_ok,
           f"KKT residual < 1e-5 on 100 random QPs (worst {worst_kkt:.2e}), "
           f"analytic projection and grid search agree, straight-line MPC "
           f"steady-state error < 0.05 m")


# ----------------------------------------------------------------------
# 8. Learning-rate schedules
# ----------------------------------------------------------------------

def test_criterion_08_schedules():
    base = 2.4e-4
    checks = [
        abs(lr_schedule("linear", base, 1.0) - base),
        abs(lr_schedule("linear", base, 0.5) - base / 2),
        abs(lr_schedule("linear", base, 0.0) - 0.0),
        abs(lr_schedule("cosine", base, 1.0) - base),
        abs(lr_schedule("cosine", base, 0.5) - base / 2),
        abs(lr_schedule("cosine", base, 0.0) - 0.0),
    ]
    report(8, max(checks) < 1e-12,
           f"linear and cosine schedules exact at f in {{1, 0.5, 0}} "
           f"(worst {max(checks):.2e})")


# ----------------------------------------------------------------------
# 9. Normalization
# ----------------------------------------------------------------------

class _TinyEnv:
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
        return (self.rng.standard_normal(5), float(self.rng.uniform()),
                self.steps >= 50, {})


def test_criterion_09_normalization():
    rng = np.random.default_rng(109)
    batch = rng.standard_normal((512, 4)) * 2.0 + 3.0
    norm = RunningNormalizer(4)
    norm.update(batch)
    one_pass = max(float(np.max(np.abs(norm.mean - batch.mean(axis=0)))),
                   float(np.max(np.abs(norm.var - batch.var(axis=0)))))

    trainer = PPOTrainer(_TinyEnv, PPOConfig(n_steps=256, minibatch_size=64,
                                             total_steps=256,
                                             eval_every=10**9,
                                             checkpoint_every=10**9), seed=3)
    trainer.collect_rollout()
    before = trainer.obs_norm.state()
    ret_before = trainer.ret_norm.state()
    trainer.evaluate(max_steps=200)
    after = trainer.obs_norm.state()
    ret_after = trainer.ret_norm.state()
    frozen = (np.array_equal(before["mean"], after["mean"])
              and np.array_equal(before["var"], after["var"])
              and before["count"] == after["count"]
              and np.array_equal(ret_before["var"], ret_after["var"])
              and ret_before["count"] == ret_after["count"])
    report(9, one_pass < 1e-6 and frozen,
           f"one-pass running stats match batch stats ({one_pass:.2e}); "
           f"evaluation left the shared statistics bit-identical")


# ----------------------------------------------------------------------
# 10. Teacher-fallback protocol
# ----------------------------------------------------------------------

def test_criterion_10_teacher_fallback():
    track = rl.synthesize_track("oval", straight=10.0, radius=3.0,
                                spacing=0.25, v_cap=8.0, a_lat_max=3.0)
    rng = np.random.default_rng(110)
    policy = GaussianPolicy(5, 2, rng,
                            mean_bias=[1.8, 0.7])  # sensible constant params
    bundle = PolicyBundle(policy, DenseNet((5, 8, 1), rng, final_gain=1.0),
                          RunningNormalizer(5),
                          {"action_mode": "joint", "fixed_gain": 0.6})
    controller = RLPurePursuitController(bundle, track)
    full_eval = run_laps(controller, track, SIM, laps=3, max_lap_time=30.0)
    fresh_ok = (full_eval.teacher_steps == 0
                and full_eval.teacher_summary()
                == f"0/{full_eval.total_steps} steps (0.000%)")

    # Withhold publications: the teacher must engage within one control step
    # of the staleness timeout expiring.
    controller.reset()
    state = VehicleState(float(track.x[0]), float(track.y[0]), 0.0, 3.0)
    out = controller.step(state, 0.0)
    starve_ok = out.mode == "rl"
    controller.publish_enabled = False
    timeout = controller.source.timeout
    first_stale_step = None
    for k in range(1, 10):
        now = k * SIM.dt_control
        mode = controller.step(state, now).mode
        if mode == "teacher" and first_stale_step is None:
            first_stale_step = now
    expected_first = math.floor(timeout / SIM.dt_control + 1) * SIM.dt_control
    starve_ok &= first_stale_step is not None \
        and abs(first_stale_step - expected_first) < 1e-9

    report(10, fresh_ok and starve_ok,
           f"fresh actions: teacher engaged {full_eval.teacher_summary()}; "
           f"starved slot fell back at t={first_stale_step}s "
           f"(timeout {timeout}s)")


# ----------------------------------------------------------------------
# 11. Training smoke (stochastic)
# ----------------------------------------------------------------------

SMOKE_TRACK = dict(straight=14.0, radius=5.0, spacing=0.25, v_cap=6.0,
                   a_lat_max=4.0)
SMOKE_MULTIPLIER = 1.3
TRANSFER_TRACK = dict(straight=10.0, radius=3.0, spacing=0.25, v_cap=8.0,
                      a_lat_max=3.0)
TRANSFER_MULTIPLIER = 1.6
SMOKE_STEPS = 100_000


def _smoke_track():
    return rl.scale_speeds(rl.synthesize_track("oval", **SMOKE_TRACK),
                           SMOKE_MULTIPLIER)


def _teacher_gap(trainer, factory, episodes=4):
    gaps = []
    for e in range(episodes):
        env = factory(123456 + e)
        obs = env.reset(seed=123456 + e)
        done = False
        steps = 0
        while not done and steps < 1200:
            action = trainer.policy.mean_action(trainer.obs_norm.apply(obs))
            obs, _, done, info = env.step(action)
            ctx = info["reward_context"]
            gaps.append(abs(ctx.lookahead - ctx.teacher_lookahead))
            steps += 1
    return float(np.mean(gaps))


def _train(track, seed, mode="joint", fixed_gain=0.6, steps=SMOKE_STEPS):
    env_cfg = EnvConfig(action_mode=mode, fixed_gain=fixed_gain)

    def factory(s):
        return RacingEnv(track, env_config=env_cfg, seed=s)

    trainer = PPOTrainer(factory, PPOConfig(total_steps=steps), seed=seed,
                         extra_meta={"action_mode": mode,
                                     "fixed_gain": fixed_gain})
    return trainer, factory


def test_criterion_11_training_smoke():
    start = time.time()
    track = _smoke_track()
    outcomes = []
    for seed in (0, 1, 2):
        trainer, factory = _train(track, seed)
        untrained = _teacher_gap(trainer, factory)
        trainer.train()
        trained = _teacher_gap(trainer, factory)
        reduction = 1.0 - trained / untrained
        kls = np.array([d.approx_kl for d in trainer.metrics])
        kl_fraction = float(np.mean(kls < 0.05))
        outcomes.append((seed, reduction, kl_fraction))
        print(f"  seed {seed}: teacher-distance {untrained:.3f} -> {trained:.3f} "
              f"({100*reduction:.1f}% reduction), kl<0.05 on "
              f"{100*kl_fraction:.0f}% of updates")
    passes = sum(1 for _, red, klf in outcomes if red >= 0.40 and klf >= 0.95)
    elapsed = time.time() - start
    report(11, passes >= 2,
           f"{passes}/3 seeds reduced the teacher distance >= 40% with "
           f"stable KL (runtime {elapsed/60:.1f} min, target < 15 min)")


# ----------------------------------------------------------------------
# 12. Ordering trend (stochastic)
# ----------------------------------------------------------------------

def test_criterion_12_ordering_trend():
    start = time.time()
    transfer_base = rl.synthesize_track("oval", **TRANSFER_TRACK)
    transfer_track = rl.scale_speeds(transfer_base, TRANSFER_MULTIPLIER)

    joint_tr, _ = _train(transfer_track, seed=0, mode="joint")
    joint_tr.train()
    ld_tr, _ = _train(transfer_track, seed=0, mode="ld_only", fixed_gain=0.6)
    ld_tr.train()

    import tempfile, os
    tmp = tempfile.mkdtemp()
    joint_path = os.path.join(tmp, "joint.npz")
    ld_path = os.path.join(tmp, "ld.npz")
    joint_tr.save(joint_path)
    ld_tr.save(ld_path)
    from pursuitlab.ppo import load_checkpoint
    joint = load_checkpoint(joint_path)
    ldonly = load_checkpoint(ld_path)

    heldout = rl.synthesize_track("rounded_rectangle", length_x=14.0,
                                  length_y=5.0, radius=2.0, spacing=0.25,
                                  v_cap=12.0, a_lat_max=3.0)
    grid = [round(0.80 + 0.05 * i, 2) for i in range(11)]

    def sweep(build, g=grid):
        return sweep_multipliers(build, heldout, SIM, g, laps=10,
                                 max_lap_time=60.0, refine_step=0.01)

    res_fixed = sweep(lambda s: PurePursuitAdapter(s, FixedSource(1.5, 0.6)))
    res_adapt = sweep(lambda s: PurePursuitAdapter(s, AdaptiveLinearSource(
        float(s.v_max.min()), float(s.v_max.max()), 0.6)))
    res_ld = sweep(lambda s: RLPurePursuitController(ldonly, s))
    res_joint = sweep(lambda s: RLPurePursuitController(joint, s))
    res_mpc = sweep(lambda s: MPCTracker(s, MPCConfig()),
                    g=[0.8, 0.9, 1.0])

    m_fixed = res_fixed.best_multiplier
    m_adapt = res_adapt.best_multiplier
    m_ld = res_ld.best_multiplier
    m_joint = res_joint.best_multiplier
    print(f"  swept best multipliers: joint {m_joint}, ld-only {m_ld}, "
          f"adaptive {m_adapt}, fixed {m_fixed}")

    ordering = (res_joint.fully_completing and res_ld.fully_completing
                and res_adapt.fully_completing and res_fixed.fully_completing
                and m_joint >= m_ld >= m_adapt >= m_fixed)

    mpc_stats = res_mpc.best_entry().report.stats()
    mpc_ok = (res_mpc.fully_completing
              and math.isfinite(mpc_stats["mean"]))
    print(f"  MPC best multiplier {res_mpc.best_multiplier}, "
          f"mean lap {mpc_stats['mean']:.2f}s")

    elapsed = time.time() - start
    report(12, ordering and mpc_ok,
           f"joint {m_joint} >= ld-only {m_ld} >= adaptive {m_adapt} >= "
           f"fixed {m_fixed}; MPC completes at x{res_mpc.best_multiplier} "
           f"with finite lap times (runtime {elapsed/60:.1f} min, "
           f"target < 45 min)")
