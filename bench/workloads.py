"""The three closed-loop workloads: set-up, warm-up, one pass, and checks.

Every workload is a closed loop: the next control step or env step starts
only when the previous one returns, and time is simulated, so there is no
arrival rate. One pass is a fixed amount of work fully determined by the
seed, so the passes of a run give identical simulated outcomes.

A pass has three parts: ``prepare`` builds fresh objects (untimed), ``run``
is the timed call into pursuitlab, and ``result`` checks the outputs
(untimed). pursuitlab functions are called through their modules
(``evaluation.run_laps``, not an imported name) so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pursuitlab import config, controllers, evaluation, nets, ppo
from pursuitlab import raceline as rl
from pursuitlab.pure_pursuit import GAIN_BOUNDS, LOOKAHEAD_BOUNDS


@dataclass
class PassResult:
    """What one pass did and whether its outputs are correct."""

    steps: int          # control steps (env steps in training) taken
    attempted: int      # operations, in the workload's own unit
    failed: int
    checks: dict        # check name -> passed
    outcomes: dict      # simulated results, identical for a fixed seed


def write_policy_checkpoint(path, seed: int):
    """Untrained joint-mode policy from a seeded GaussianPolicy/DenseNet."""
    rng = np.random.default_rng(seed)
    mean_bias = [0.5 * (LOOKAHEAD_BOUNDS[0] + LOOKAHEAD_BOUNDS[1]),
                 0.5 * (GAIN_BOUNDS[0] + GAIN_BOUNDS[1])]
    policy = nets.GaussianPolicy(5, 2, rng, mean_bias=mean_bias)
    value_net = nets.DenseNet((5, 64, 64, 1), rng, final_gain=1.0)
    ppo.save_checkpoint(path, policy, value_net, ppo.RunningNormalizer(5),
                        ppo.ReturnNormalizer(0.99, 1),
                        {"action_mode": "joint",
                         "fixed_gain": controllers.DEFAULT_FIXED_GAIN})


class Train:
    """PPOTrainer.train on the transfer oval: collection, updates, evals."""

    name = "train"
    cycles = 3  # collect/update cycles per pass; covers two scheduled evals

    def __init__(self, root: Path, seed: int, tmp_dir: Path):
        cfg = config.load_config(root / "configs" / "transfer_train.yaml")
        cfg["seed"] = seed
        self.seed = seed
        track = rl.scale_speeds(config.build_track(cfg), cfg["train"]["multiplier"])
        self.factory = config.build_env_factory(cfg, track)
        self.ppo_config = config.build_ppo_config(cfg)
        self.ppo_epochs = self.ppo_config.epochs
        self.budget = self.cycles * self.ppo_config.n_steps * self.ppo_config.n_envs
        self.extra_meta = {
            "action_mode": config.action_mode_from_cli(cfg["train"]["mode"]),
            "fixed_gain": cfg["train"]["fixed_gain"],
        }
        self._trainer()  # construction counts toward set-up; passes build their own

    def _trainer(self) -> ppo.PPOTrainer:
        return ppo.PPOTrainer(self.factory, self.ppo_config, seed=self.seed,
                              extra_meta=self.extra_meta)

    def warm_up(self):
        self._trainer().train(total_steps=self.ppo_config.n_steps)

    def prepare(self, probe):
        trainer = self._trainer()
        for env in trainer.envs + [trainer.eval_env]:
            env.step = probe.step(env.step, "env.step", nested=True)
        return trainer

    def run(self, trainer) -> bool:
        try:
            trainer.train(total_steps=self.budget)
        except ppo.TrainingDiverged:
            return True
        return False

    def result(self, trainer, diverged: bool) -> PassResult:
        params = trainer.policy.params + trainer.value_net.params
        aborted = sum(1 for d in trainer.metrics if d.aborted)
        evals = [d.eval_return if math.isfinite(d.eval_return) else None
                 for d in trainer.metrics]
        checks = {
            "parameters_finite": all(bool(np.all(np.isfinite(p))) for p in params),
            "no_aborted_update": aborted == 0 and not diverged,
            "budget_reached": trainer.global_step >= self.budget,
            "final_eval_return_finite": math.isfinite(trainer.last_eval_return),
        }
        return PassResult(
            steps=trainer.global_step,
            attempted=len(trainer.metrics) + int(diverged),
            failed=aborted + int(diverged),
            checks=checks,
            outcomes={"global_step": trainer.global_step, "eval_returns": evals},
        )


class Sweep:
    """sweep_multipliers on the held-out rectangle for four controllers."""

    name = "sweep"
    kinds = ("fixed", "adaptive", "teacher", "rl")
    baselines = ("fixed", "adaptive", "teacher")  # the rl policy is untrained
    ppo_epochs = 0

    def __init__(self, root: Path, seed: int, tmp_dir: Path):
        cfg = config.load_config(root / "configs" / "heldout_rect.yaml")
        self.sim = config.build_sim_config(cfg)
        self.track = config.build_track(cfg)
        self.eval_cfg = cfg["eval"]
        checkpoint = tmp_dir / "rl_policy.npz"
        write_policy_checkpoint(checkpoint, seed)
        self.specs = {kind: dict(cfg["controller"], type=kind) for kind in self.kinds}
        self.specs["rl"]["checkpoint"] = str(checkpoint)
        for spec in self.specs.values():  # construction counts toward set-up
            controllers.build_controller(spec, self.track, self.sim)

    def warm_up(self):
        for spec in self.specs.values():
            controller = controllers.build_controller(spec, self.track, self.sim)
            evaluation.run_laps(controller, self.track, self.sim, laps=1,
                                max_lap_time=self.eval_cfg["max_lap_time"])

    def prepare(self, probe):
        def builder(kind):
            def build(scaled):
                controller = controllers.build_controller(self.specs[kind], scaled,
                                                          self.sim)
                controller.step = probe.step(controller.step,
                                             f"controllers.step.{kind}", nested=False)
                return controller
            return build
        return {kind: builder(kind) for kind in self.kinds}

    def run(self, builders) -> dict:
        e = self.eval_cfg
        return {kind: evaluation.sweep_multipliers(
                    build, self.track, self.sim, grid=e["sweep_grid"], laps=e["laps"],
                    max_lap_time=e["max_lap_time"], refine_step=e["refine_step"])
                for kind, build in builders.items()}

    def result(self, builders, sweeps: dict) -> PassResult:
        laps = self.eval_cfg["laps"]
        entries = [entry for sweep in sweeps.values() for entry in sweep.entries]

        def completes_at_one(kind):
            at_one = [x for x in sweeps[kind].entries if x.multiplier == 1.0]
            return len(at_one) == 1 and at_one[0].report.completed == laps

        best = {kind: sweeps[kind].best_multiplier for kind in self.kinds}
        checks = {
            "every_entry_attempted_all_laps":
                all(x.report.attempted == laps for x in entries),
            "teacher_completes_at_1.0": completes_at_one("teacher"),
            "adaptive_completes_at_1.0": completes_at_one("adaptive"),
            "adaptive_not_below_fixed": best["adaptive"] >= best["fixed"],
        }
        times = [t for kind in self.baselines for x in sweeps[kind].entries
                 for t in x.report.completed_times()]
        return PassResult(
            steps=sum(x.report.total_steps for x in entries),
            attempted=len(entries),
            failed=sum(1 for x in entries if x.report.attempted != laps),
            checks=checks,
            outcomes={
                "lap_time_s": float(np.mean(times)) if times else None,
                **{f"best_multiplier.{kind}": best[kind] for kind in self.kinds},
                "laps_attempted": sum(x.report.attempted for x in entries),
                "laps_incomplete": sum(x.report.attempted - x.report.completed
                                       for x in entries),
                "laps_incomplete_by_controller": {
                    kind: sum(x.report.attempted - x.report.completed
                              for x in sweeps[kind].entries) for kind in self.kinds},
            },
        )


class MPCLaps:
    """Consecutive run_laps calls with the MPC tracker on the held-out rectangle."""

    name = "mpc_laps"
    laps = 3  # per run_laps call; the first lap of each call starts at half speed
    ppo_epochs = 0

    def __init__(self, root: Path, seed: int, tmp_dir: Path):
        cfg = config.load_config(root / "configs" / "heldout_rect.yaml")
        self.sim = config.build_sim_config(cfg)
        self.track = config.build_track(cfg)  # speed multiplier 1.0
        self.max_lap_time = cfg["eval"]["max_lap_time"]
        self.spec = dict(cfg["controller"], type="mpc")
        controllers.build_controller(self.spec, self.track, self.sim)  # counts toward set-up

    def warm_up(self):
        controller = controllers.build_controller(self.spec, self.track, self.sim)
        evaluation.run_laps(controller, self.track, self.sim, laps=1,
                            max_lap_time=self.max_lap_time)

    def prepare(self, probe):
        controller = controllers.build_controller(self.spec, self.track, self.sim)
        held = []
        inner = probe.step(controller.step, "controllers.step.mpc", nested=False)

        def step(state, now):
            output = inner(state, now)
            if not controller.last_info.converged:
                held.append(now)
            return output

        controller.step = step
        return controller, held

    def run(self, prepared):
        controller, _ = prepared
        return evaluation.run_laps(controller, self.track, self.sim, laps=self.laps,
                                   max_lap_time=self.max_lap_time)

    def result(self, prepared, report) -> PassResult:
        _, held = prepared
        incomplete = report.attempted - report.completed
        times = report.completed_times()
        return PassResult(
            steps=report.total_steps,
            attempted=report.total_steps,
            failed=len(held) + incomplete,
            checks={
                "every_lap_completes": incomplete == 0 and report.attempted == self.laps,
                "lap_times_finite": all(math.isfinite(t) for t in times),
            },
            outcomes={
                "lap_time_s": float(np.mean(times)) if times else None,
                "lap_times": times,
                "laps_incomplete": incomplete,
                "nonconverged_steps": len(held),
            },
        )


WORKLOADS = {w.name: w for w in (Train, Sweep, MPCLaps)}
