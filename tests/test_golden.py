"""Golden outcomes: a short training run, one lap per PP controller, one
MPC lap, and two runs whose laps are lost and restarted.

The pinned values were recorded before the per-step float kernels of the
simulator, the normalizers (the statistics, then also the normalized
observation row and the scaled reward), the policy sampler (its
log-probability, then also its action) and the Pure Pursuit step replaced
their numpy forms; the MPC lap was recorded before the MPC's QP
was built from a step-invariant template, and its two floats were
re-pinned, 2e-14 relative from the old ones, when its QP came to be
built over the controls alone (the condensing sums in another order),
and again, 1e-13 and 3e-14 relative, when each step's gradient came to
be formed as one affine map of its state, condensed per horizon, instead
of rolling the state through the knots. The training pins were
re-recorded when each update came to run at the learning rate of the
step where it starts (the first at the base rate, no longer one update
later in the schedule). Every float must stay exactly the same: the
training metrics (including the eval returns), a digest of the final
parameter and normalizer bytes, and the lap reports.
"""

import hashlib
from pathlib import Path

import numpy as np

from pursuitlab import raceline as rl
from pursuitlab.config import (build_env_factory, build_ppo_config,
                               build_sim_config, build_track, load_config)
from pursuitlab.controllers import PolicySource, PurePursuitAdapter, build_controller
from pursuitlab.evaluation import run_laps
from pursuitlab.nets import HIDDEN, DenseNet, GaussianPolicy
from pursuitlab.ppo import PolicyBundle, PPOTrainer, RunningNormalizer

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SMOKE_METRICS = [
    {"step": 512, "approx_kl": 0.0004499811624373917, "clip_fraction": 0.00078125,
     "value_loss": 4.520580086848883, "entropy": 1.455520323462944,
     "mean_episode_return": float("nan"), "eval_return": 67757.16701670778,
     "learning_rate": 0.00024, "aborted": 0, "epochs_completed": 5,
     "action_std_0": 0.5010626570530183, "action_std_1": 0.5009081033308171},
    {"step": 1024, "approx_kl": 0.0003133591295117619, "clip_fraction": 0.0,
     "value_loss": 1.651305089321644, "entropy": 1.457621086812539,
     "mean_episode_return": float("nan"), "eval_return": 67612.08727997777,
     "learning_rate": 0.0002387712, "aborted": 0, "epochs_completed": 5,
     "action_std_0": 0.5020449476392408, "action_std_1": 0.500979371483728},
]
# sha256 of the policy, value-net and normalizer bytes after the run.
SMOKE_STATE_SHA256 = "de94339032ec54bf5ed29895a2a1986939e7c6a288e25ec64c859eb4cd2cff0b"

LAPS = {
    "fixed": {"times": [4.849999999999991], "completed": 1, "total_steps": 97,
              "teacher_steps": 0, "mean_abs_lateral_error": 0.049633955584473755,
              "steering_rate_rms": 0.9084446137008513},
    "adaptive": {"times": [4.749999999999991], "completed": 1, "total_steps": 95,
                 "teacher_steps": 0, "mean_abs_lateral_error": 0.09707234319061075,
                 "steering_rate_rms": 0.4577610643801065},
    "teacher": {"times": [4.749999999999991], "completed": 1, "total_steps": 95,
                "teacher_steps": 95, "mean_abs_lateral_error": 0.11719676129928713,
                "steering_rate_rms": 0.6712483923371837},
    "rl": {"times": [4.749999999999991], "completed": 1, "total_steps": 95,
           "teacher_steps": 0, "mean_abs_lateral_error": 0.1135517174746519,
           "steering_rate_rms": 0.6303757833926623},
    "mpc": {"times": [5.699999999999988], "completed": 1, "total_steps": 114,
            "teacher_steps": 0, "mean_abs_lateral_error": 0.10789146670157367,
            "steering_rate_rms": 1.48234064285251},
}

# Runs that lose laps: each lost lap restarts from the start line. The
# fixed controller at x1.3 crashes on laps 2 and 4; the teacher, given
# 3 s a lap, times out on every lap. ``trace_sha256`` is that of trace.csv.
RESTARTS = {
    "fixed": {"times": [4.11666666666666, float("nan"), 4.116666666666684,
                        float("nan"), 4.116666666666726],
              "completed": [True, False, True, False, True],
              "total_steps": 311, "teacher_steps": 0,
              "mean_abs_lateral_error": 0.07401926426150321,
              "steering_rate_rms": 1.233735123369769,
              "trace_sha256": "de8dba86b05fdade506db72f4bc5d0b220d07488e18c5458a56e2e73de7e2f05"},
    "teacher": {"times": [float("nan")] * 3, "completed": [False] * 3,
                "total_steps": 180, "teacher_steps": 180,
                "mean_abs_lateral_error": 0.09286187325152974,
                "steering_rate_rms": 0.6954201706387226,
                "trace_sha256": "795266b00448152875ea42abe1f7b389e84293747f3e1173855e26dee78d7ab4"},
}
# (speed multiplier, laps, max_lap_time) of each restart run.
RESTART_RUNS = {"fixed": (1.3, 5, 60.0), "teacher": (1.0, 3, 3.0)}


def smoke_training() -> PPOTrainer:
    """configs/smoke_train.yaml for two 512-step updates, evaluating after each."""
    cfg = load_config(CONFIGS / "smoke_train.yaml")
    cfg["train"].update(n_steps=512, eval_every=512)
    track = rl.scale_speeds(build_track(cfg), cfg["train"]["multiplier"])
    trainer = PPOTrainer(build_env_factory(cfg, track), build_ppo_config(cfg),
                         seed=cfg["seed"])
    trainer.train(total_steps=1024)
    return trainer


def state_digest(trainer: PPOTrainer) -> str:
    arrays = (trainer.policy.params + trainer.value_net.params
              + [trainer.obs_norm.mean, trainer.obs_norm.var,
                 trainer.ret_norm.stats.mean, trainer.ret_norm.stats.var,
                 trainer.ret_norm.accumulator])
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def untrained_bundle() -> PolicyBundle:
    rng = np.random.default_rng(3)
    return PolicyBundle(GaussianPolicy(5, 2, rng, mean_bias=[2.175, 0.8]),
                        DenseNet((5, *HIDDEN, 1), rng, final_gain=1.0),
                        RunningNormalizer(5),
                        {"action_mode": "joint", "fixed_gain": 0.6})


def one_lap(kind: str) -> dict:
    """One lap on the held-out rectangle; the report's floats and counts."""
    cfg = load_config(CONFIGS / "heldout_rect.yaml")
    track = build_track(cfg)
    sim = build_sim_config(cfg)
    if kind == "rl":
        controller = PurePursuitAdapter(track, PolicySource(untrained_bundle()))
    else:
        controller = build_controller({"type": kind}, track, sim)
    report = run_laps(controller, track, sim, laps=1,
                      max_lap_time=cfg["eval"]["max_lap_time"])
    return {"times": [lap.time for lap in report.laps],
            "completed": report.completed,
            "total_steps": report.total_steps,
            "teacher_steps": report.teacher_steps,
            "mean_abs_lateral_error": report.mean_abs_lateral_error,
            "steering_rate_rms": report.steering_rate_rms}


def restart_run(kind: str, trace_path) -> dict:
    """A :data:`RESTART_RUNS` run on the held-out rectangle, traced to
    ``trace_path``; every lap's time and flag, and the report's counts and
    floats."""
    multiplier, laps, max_lap_time = RESTART_RUNS[kind]
    cfg = load_config(CONFIGS / "heldout_rect.yaml")
    track = rl.scale_speeds(build_track(cfg), multiplier)
    sim = build_sim_config(cfg)
    report = run_laps(build_controller({"type": kind}, track, sim), track, sim,
                      laps=laps, max_lap_time=max_lap_time, trace_path=trace_path)
    return {"times": [lap.time for lap in report.laps],
            "completed": [lap.completed for lap in report.laps],
            "total_steps": report.total_steps,
            "teacher_steps": report.teacher_steps,
            "mean_abs_lateral_error": report.mean_abs_lateral_error,
            "steering_rate_rms": report.steering_rate_rms,
            "trace_sha256": hashlib.sha256(trace_path.read_bytes()).hexdigest()}


def test_smoke_training_outcomes_are_pinned():
    trainer = smoke_training()
    np.testing.assert_equal([d.row() for d in trainer.metrics], SMOKE_METRICS)
    assert state_digest(trainer) == SMOKE_STATE_SHA256


def test_one_lap_outcomes_are_pinned():
    np.testing.assert_equal({kind: one_lap(kind) for kind in LAPS}, LAPS)


def test_restarted_laps_are_pinned(tmp_path):
    np.testing.assert_equal(
        {kind: restart_run(kind, tmp_path / f"{kind}.csv") for kind in RESTARTS},
        RESTARTS)
