"""Command-line entry point: train, eval, sweep, and compare."""

from __future__ import annotations

import argparse
import os
import sys

from . import raceline as rl
from .config import (action_mode_from_cli, build_env_factory,
                     build_ppo_config, build_sim_config, build_track,
                     load_config)
from .controllers import build_controller
from .evaluation import (format_comparison, run_laps, sweep_multipliers,
                         write_comparison_csv, write_laps_csv)
from .files import atomic_open
from .ppo import PPOTrainer


def _out_dir(args, default: str) -> str:
    out = args.out or default
    os.makedirs(out, exist_ok=True)
    return out


def _report(out: str, text: str):
    """Write ``text`` as the lines of ``out``/report.txt and print it."""
    with atomic_open(os.path.join(out, "report.txt")) as f:
        f.write(text + "\n")
    print(text)


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.steps is not None:
        cfg["train"]["steps"] = args.steps
    if args.lr_schedule is not None:
        cfg["train"]["lr_schedule"] = args.lr_schedule
    if args.mode is not None:
        cfg["train"]["mode"] = args.mode
    out = _out_dir(args, "runs/train")

    track = rl.scale_speeds(build_track(cfg), cfg["train"]["multiplier"])
    factory = build_env_factory(cfg, track)
    ppo_config = build_ppo_config(cfg)
    trainer = PPOTrainer(
        factory, ppo_config, seed=cfg["seed"], out_dir=out,
        extra_meta={
            "action_mode": action_mode_from_cli(cfg["train"]["mode"]),
            "fixed_gain": cfg["train"]["fixed_gain"],
            "train_multiplier": cfg["train"]["multiplier"],
        })
    trainer.train()
    print(f"trained {trainer.global_step} steps; "
          f"best eval return {trainer.best_eval_return:.1f}; artifacts in {out}")
    return 0


def _eval_once(cfg: dict, controller_cfg: dict, out: str, prefix: str = ""):
    sim_config = build_sim_config(cfg)
    track = rl.scale_speeds(build_track(cfg), controller_cfg["multiplier"])
    controller = build_controller(controller_cfg, track, sim_config)
    report = run_laps(
        controller, track, sim_config,
        laps=cfg["eval"]["laps"],
        max_lap_time=cfg["eval"]["max_lap_time"],
        trace_path=os.path.join(out, prefix + "trace.csv"),
    )
    write_laps_csv(report, os.path.join(out, prefix + "laps.csv"))
    return report


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    if args.checkpoint is not None:
        cfg["controller"]["type"] = "rl"
        cfg["controller"]["checkpoint"] = args.checkpoint
    out = _out_dir(args, "runs/eval")

    report = _eval_once(cfg, cfg["controller"], out)
    _report(out, format_comparison([(cfg["controller"]["type"], report)]))
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, "runs/sweep")

    sim_config = build_sim_config(cfg)
    base_track = build_track(cfg)
    controller_cfg = cfg["controller"]

    def build(scaled):
        return build_controller(controller_cfg, scaled, sim_config)

    result = sweep_multipliers(
        build, base_track, sim_config,
        grid=cfg["eval"]["sweep_grid"],
        laps=cfg["eval"]["laps"],
        max_lap_time=cfg["eval"]["max_lap_time"],
        refine_step=cfg["eval"]["refine_step"],
    )

    rows = [(f"x{entry.multiplier:.2f}", entry.report) for entry in result.entries]
    write_comparison_csv(rows, os.path.join(out, "sweep.csv"))
    status = "full completion" if result.fully_completing else \
        "NO multiplier fully completed; best available"
    _report(out, f"controller: {controller_cfg['type']}\n"
                 f"best multiplier: {result.best_multiplier} ({status})\n\n"
                 + format_comparison(rows))
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    entries = cfg["compare"]
    if len(entries) < 2:
        print("compare requires at least 2 controller entries in the config",
              file=sys.stderr)
        return 2
    out = _out_dir(args, "runs/compare")

    rows = []
    for entry in entries:  # each writes <name>_trace.csv and <name>_laps.csv
        name = entry["name"]
        controller_cfg = {**cfg["controller"], **entry.get("controller", {})}
        report = _eval_once(cfg, controller_cfg, out, prefix=f"{name}_")
        rows.append((name, report))

    write_comparison_csv(rows, os.path.join(out, "compare.csv"))
    _report(out, format_comparison(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pursuitlab",
        description="Path-tracking lab: Pure Pursuit with learned parameter "
                    "schedules, PPO training, and an MPC baseline.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="YAML config file")
        p.add_argument("--out", default=None, help="output directory")

    p_train = sub.add_parser("train", help="train a policy")
    common(p_train)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--lr-schedule", choices=["linear", "cosine"], default=None)
    p_train.add_argument("--mode", choices=["joint", "ld-only"], default=None)
    p_train.add_argument("--steps", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="run consecutive evaluation laps")
    common(p_eval)
    p_eval.add_argument("--checkpoint", default=None,
                        help="evaluate this checkpoint with the learned controller")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="find the best speed multiplier")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_compare = sub.add_parser("compare", help="compare the configured controllers")
    common(p_compare)
    p_compare.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
