"""Uniform controller adapters for the evaluation harness.

Every controller exposes ``reset()`` and ``step(state, now)`` returning a
:class:`ControllerOutput`, so the lap runner can drive fixed/adaptive/
teacher Pure Pursuit, checkpoint-backed learned Pure Pursuit, and the MPC
tracker interchangeably.
"""

from __future__ import annotations

import numpy as np

from . import raceline as rl
from .env import observe
from .mpc import MPCConfig, MPCTracker
from .ppo import PolicyBundle, load_checkpoint
from .pure_pursuit import (DEFAULT_FIXED_GAIN, DEFAULT_FIXED_LOOKAHEAD, STALENESS_TIMEOUT,
                           AdaptiveLinearSource, ExternalSource, FixedSource,
                           PurePursuitController, TeacherSource)
from .vehicle import ControllerOutput, SimConfig, VehicleState


class PurePursuitAdapter:
    """Wraps a PurePursuitController built from any parameter source."""

    def __init__(self, raceline: rl.Raceline, source):
        self.controller = PurePursuitController(raceline, source)
        self.index = None  # the last step's waypoint, the next query's hint

    def reset(self):
        self.controller.reset()
        self.index = None

    def step(self, state: VehicleState, now: float) -> ControllerOutput:
        self.index = rl.nearest_index(self.controller.raceline, state.position,
                                      near=self.index)
        return self.controller.step(state, self.index, now)


class PolicySource(ExternalSource):
    """A checkpoint's policy as the slot's writer: each select publishes the
    deterministic action on the frozen-normalized observation. The action
    mode is the policy's action size. Clear ``publishing`` to starve the
    slot, and the teacher takes over."""

    def __init__(self, bundle: PolicyBundle, timeout: float = STALENESS_TIMEOUT):
        mode = "joint" if bundle.policy.act_dim == 2 else "ld_only"
        if bundle.meta.get("action_mode", mode) != mode:
            raise ValueError(f"checkpoint action_mode {bundle.meta['action_mode']!r} "
                             f"disagrees with its {mode!r} policy")
        super().__init__(mode, bundle.meta.get("fixed_gain", DEFAULT_FIXED_GAIN), timeout)
        self.bundle = bundle
        self.publishing = True

    def select(self, state: VehicleState, raceline: rl.Raceline, index: int, now: float):
        if self.publishing:
            self.publish(self.bundle.act(observe(state, rl.taps(raceline, index))), now)
        return super().select(state, raceline, index, now)


# Defaults of the spec keys that build_controller reads besides the type;
# the config's controller section takes them too.
SPEC_DEFAULTS = {"lookahead": DEFAULT_FIXED_LOOKAHEAD, "gain": DEFAULT_FIXED_GAIN,
                 "checkpoint": None, "timeout": STALENESS_TIMEOUT}
# Spec keys that build_controller reads when present, beyond SPEC_DEFAULTS:
# the adaptive source's speed band and MPCConfig fields.
MPC_SPEC_KEYS = ("horizon", "dt", "v_floor", "rho", "tol", "max_iter")
OPTIONAL_SPEC_KEYS = ("v_lo", "v_hi", *MPC_SPEC_KEYS)


def build_controller(spec: dict, raceline: rl.Raceline, sim_config: SimConfig):
    """Construct a controller from a config mapping.

    ``spec['type']`` selects among: ``fixed``, ``adaptive``, ``teacher``,
    ``rl`` (requires ``checkpoint``), and ``mpc``.
    """
    kind = spec.get("type")
    opts = {**SPEC_DEFAULTS, **spec}
    if kind == "fixed":
        return PurePursuitAdapter(raceline, FixedSource(float(opts["lookahead"]),
                                                        float(opts["gain"])))
    if kind == "adaptive":
        v_lo = float(spec.get("v_lo", np.min(raceline.v_max)))
        v_hi = float(spec.get("v_hi", np.max(raceline.v_max)))
        if v_lo >= v_hi and not {"v_lo", "v_hi"} & spec.keys():  # constant-speed track
            v_hi = v_lo + 1.0
        return PurePursuitAdapter(raceline, AdaptiveLinearSource(
            v_lo, v_hi, float(opts["gain"])))
    if kind == "teacher":
        return PurePursuitAdapter(raceline, TeacherSource())
    if kind == "rl":
        if not opts["checkpoint"]:
            raise ValueError("rl controller requires a 'checkpoint' path")
        return PurePursuitAdapter(raceline, PolicySource(
            load_checkpoint(opts["checkpoint"]), float(opts["timeout"])))
    if kind == "mpc":
        fields = {k: spec[k] for k in MPC_SPEC_KEYS if k in spec}
        # The MPC plans for the plant that the simulator runs.
        return MPCTracker(raceline, MPCConfig(plant=sim_config, **fields))
    raise ValueError(f"unknown controller type {kind!r}")
