"""Run configuration: embedded defaults, YAML overlay, object builders.

Every table and trace in this package is reproducible from one config
file plus a seed: the file overlays these defaults, and CLI flags overlay
the file.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import os

import yaml

from . import evaluation as ev
from . import raceline as rl
from .controllers import OPTIONAL_SPEC_KEYS, SPEC_DEFAULTS
from .env import EnvConfig, RacingEnv, RewardWeights
from .ppo import PPOConfig
from .vehicle import SimConfig

# train.<key> -> PPOConfig field.
PPO_KEYS = {"steps": "total_steps", **{name: name for name in (
    "n_steps", "minibatch_size", "epochs", "gamma", "gae_lambda",
    "clip_epsilon", "target_kl", "entropy_coef", "value_coef",
    "max_grad_norm", "learning_rate", "lr_schedule", "eval_every",
    "checkpoint_every", "n_envs")}}

_PPO = PPOConfig()
_ENV = EnvConfig()

# Sections with a dataclass take its defaults, the track section the keyword
# defaults of rl.synthesize_track, the eval section evaluation's; the rest are written out.
DEFAULTS = {
    "seed": 0,
    "track": {
        "kind": "oval",  # oval | rounded_rectangle | file
        "path": None,
        **rl.synthesize_track.__kwdefaults__,
    },
    "sim": dataclasses.asdict(SimConfig()),
    "controller": {
        "type": "teacher",  # fixed | adaptive | teacher | rl | mpc
        "multiplier": 1.0,
        **SPEC_DEFAULTS,
    },
    "eval": {
        "laps": ev.LAPS,
        "max_lap_time": ev.MAX_LAP_TIME,
        "sweep_grid": [round(0.80 + 0.05 * i, 2) for i in range(11)],
        "refine_step": ev.REFINE_STEP,
    },
    "compare": [],
    "train": {
        "mode": _ENV.action_mode,  # joint | ld-only
        "multiplier": 1.0,
        "laps": _ENV.laps,
        "max_steps": _ENV.max_steps,
        "fixed_gain": _ENV.fixed_gain,
        **{key: getattr(_PPO, name) for key, name in PPO_KEYS.items()},
        # CLI runs default to 200k steps; PPOConfig's 1.2M is the full schedule.
        "steps": 200_000,
    },
    "reward": dataclasses.asdict(RewardWeights()),
}


def _deep_merge(base: dict, overlay: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


# Keys a section accepts besides those of its defaults.
_OPTIONAL_KEYS = {"controller": OPTIONAL_SPEC_KEYS}


def _section_keys(section: str) -> list:
    return [*DEFAULTS[section], *_OPTIONAL_KEYS.get(section, ())]


def _check_keys(name: str, value, names, kind: str = "section"):
    """Raise unless ``value`` is a mapping whose keys are all in ``names``."""
    if not isinstance(value, dict):
        raise ValueError(f"config {kind} {name} must be a mapping, not {value!r}")
    if unknown := sorted(set(value) - set(names)):
        raise ValueError(f"unknown {name} key(s) {', '.join(unknown)}; "
                         f"valid: {', '.join(names)}")


def load_config(path=None) -> dict:
    """Defaults overlaid with the YAML file at ``path`` (if given).

    Every section that has a mapping of defaults must stay a mapping and
    may hold only those keys (the controller's also ``OPTIONAL_SPEC_KEYS``),
    so a misspelt key is an error rather than a silent default. Each
    ``compare`` entry is a mapping of ``name`` and a ``controller`` checked
    like the controller section. Its name (default ``controller_<i>``)
    prefixes its output files, so it must be a plain file name, unique
    among the entries.
    """
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        with open(path, "r", encoding="utf-8") as f:
            try:
                overlay = yaml.safe_load(f) or {}
            except yaml.YAMLError as exc:
                raise ValueError(f"config file {path} is not valid YAML: {exc}") from None
        if not isinstance(overlay, dict):
            raise ValueError("config file must contain a mapping")
        cfg = _deep_merge(cfg, overlay)
    for section, defaults in DEFAULTS.items():
        if isinstance(defaults, dict):
            _check_keys(section, cfg[section], _section_keys(section))
    if not isinstance(cfg["compare"], list):
        raise ValueError(f"config section compare must be a list, not {cfg['compare']!r}")
    names = []
    for i, entry in enumerate(cfg["compare"]):
        _check_keys(f"compare[{i}]", entry, ("name", "controller"), kind="entry")
        _check_keys(f"compare[{i}].controller", entry.get("controller", {}),
                    _section_keys("controller"), kind="entry")
        name = entry.setdefault("name", f"controller_{i}")
        if not isinstance(name, str) or name in ("", ".", "..") or any(
                sep and sep in name for sep in ("/", os.sep, os.altsep)):
            raise ValueError(f"compare[{i}].name must be a file name, not {name!r}")
        names.append(name)
    if repeated := sorted({name for name in names if names.count(name) > 1}):
        raise ValueError(f"compare entry names repeat: {', '.join(repeated)}")
    return cfg


def build_track(cfg: dict) -> rl.Raceline:
    track = cfg["track"]
    kind = track["kind"]
    if kind == "file":
        if not track.get("path"):
            raise ValueError("track.kind 'file' requires track.path")
        return rl.load_raceline_file(track["path"], track["half_width"])
    if kind not in ("oval", "rounded_rectangle"):
        raise ValueError(f"unknown track.kind {kind!r}")
    return rl.synthesize_track(kind, **{key: track[key]
                                        for key in rl.synthesize_track.__kwdefaults__})


def build_sim_config(cfg: dict) -> SimConfig:
    return SimConfig(**cfg["sim"])


def build_reward_weights(cfg: dict) -> RewardWeights:
    return RewardWeights(**cfg["reward"])


def action_mode_from_cli(mode: str) -> str:
    modes = {"joint": "joint", "ld-only": "ld_only", "ld_only": "ld_only"}
    if not isinstance(mode, str) or mode not in modes:
        raise ValueError(f"unknown train.mode {mode!r}; valid: joint, ld-only")
    return modes[mode]


def build_env_factory(cfg: dict, track: rl.Raceline) -> functools.partial:
    """Returns ``factory(seed) -> RacingEnv`` for training.

    The factory is a ``functools.partial`` of :class:`RacingEnv`, so it
    pickles: :class:`~pursuitlab.ppo.PPOTrainer` sends it to its
    evaluation worker.
    """
    train = cfg["train"]
    env_config = EnvConfig(
        laps=train["laps"],
        max_steps=train["max_steps"],
        action_mode=action_mode_from_cli(train["mode"]),
        fixed_gain=train["fixed_gain"],
    )
    return functools.partial(RacingEnv, track, build_sim_config(cfg),
                             build_reward_weights(cfg), env_config)


def build_ppo_config(cfg: dict) -> PPOConfig:
    train = cfg["train"]
    return PPOConfig(**{name: train[key] for key, name in PPO_KEYS.items()})
