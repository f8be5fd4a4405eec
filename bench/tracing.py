"""Span recording around pursuitlab's public functions, and the per-layer
metrics derived from the spans.

Spans are kept in memory as columns (name, start, end, parent, unit) and
written out once at exit. A unit is one control step, one env step or one
PPO cycle: every span started while a unit is current carries its id, so
per-step call counts are measured where the work happens.

The program itself is not edited. Each traced function is replaced at
every pursuitlab module that binds it by name (``vehicle`` imports
``lateral_error``, ``env`` and ``evaluation`` import ``control_step`` and
``collision_check``, ``mpc`` imports ``admm_solve`` and ``QPProblem``,
``controllers`` imports ``observe``), and methods are replaced on their
class, so no call path escapes the trace.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

from pursuitlab import (env, evaluation, mpc, nets, ppo, pure_pursuit, qp,
                        raceline, vehicle)

LAYERS = ("raceline", "vehicle", "pure_pursuit", "controllers", "env", "nets",
          "ppo", "mpc", "qp", "evaluation")
CONTROLLER_TYPES = ("fixed", "adaptive", "teacher", "rl", "mpc")


class Tracer:
    """In-memory span store. Not thread-safe: the benchmark is one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.unit = array("i")
        self.unit_kind: list[str] = []
        self._stack: list[int] = []
        self._current_unit = -1
        # Values read from returned objects (ADMMResult, MPCStepInfo, ...).
        self.admm_iterations: list[int] = []
        self.mpc_converged: list[bool] = []
        self.epochs_completed: list[int] = []

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self._current_unit)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def finish(self, i: int):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def open_unit(self, kind: str) -> int:
        previous = self._current_unit
        self._current_unit = len(self.unit_kind)
        self.unit_kind.append(kind)
        return previous

    def span(self, name, fn, unit: str | None = None, nested: bool = False,
             on_result=None):
        """Wrap ``fn`` so each call records one span.

        ``name`` is a string or a function of the call's arguments.
        ``unit`` opens a new unit of that kind at each call; a ``nested``
        unit (an env step inside a PPO cycle) gives the enclosing unit back
        when the call returns. ``on_result(args, result)`` reads counts off
        the returned object.
        """
        tracer = self

        def traced(*args, **kwargs):
            previous = tracer.open_unit(unit) if unit is not None else None
            i = tracer.begin(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(i)
                if nested:
                    tracer._current_unit = previous
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def columns(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "unit": np.frombuffer(self.unit, dtype=np.int32).copy(),
        }

    def write(self, path):
        """Write every span plus the name and unit tables as one .npz file."""
        np.savez_compressed(path, names=np.array(self.names),
                            unit_kind=np.array(self.unit_kind, dtype="U8"),
                            **self.columns())


def _forward_name(args) -> str:
    x = np.asarray(args[1])
    return "nets.forward.row" if x.ndim == 1 or x.shape[0] == 1 \
        else "nets.forward.batch"


class Instrumentation:
    """Installs span wrappers on pursuitlab and removes them on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _function(self, fn, name, **kwargs):
        wrapper = self.tracer.span(name, fn, **kwargs)
        for module in [m for key, m in sys.modules.items()
                       if key == "pursuitlab" or key.startswith("pursuitlab.")]:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._replace(module, attr, wrapper)

    def _method(self, cls, attr: str, name, **kwargs):
        self._replace(cls, attr,
                      self.tracer.span(name, cls.__dict__[attr], **kwargs))

    def __enter__(self):
        t = self.tracer
        for fn in (raceline.nearest_index, raceline.lateral_error,
                   raceline.lookahead_target, raceline.local_curvature,
                   vehicle.control_step, vehicle.collision_check, env.observe):
            self._function(fn, f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}")
        self._method(pure_pursuit.PurePursuitController, "step", "pure_pursuit.step")
        self._method(env.RacingEnv, "reset", "env.reset")

        self._method(nets.DenseNet, "forward", _forward_name)
        self._method(nets.DenseNet, "backward", "nets.backward")
        self._method(nets.GaussianPolicy, "sample", "nets.sample")

        def normalizer_name(args):
            top = t._stack[-1] if t._stack else -1
            inside_ret = top >= 0 and t.names[t.name[top]] == "ppo.ret_norm_update"
            return "ppo.ret_norm_stats" if inside_ret else "ppo.obs_norm_update"

        self._method(ppo.PPOTrainer, "train", "ppo.train")
        self._method(ppo.PPOTrainer, "collect_rollout", "ppo.collect", unit="cycle")
        self._method(ppo.PPOTrainer, "evaluate", "ppo.eval")
        self._function(ppo.ppo_update, "ppo.update",
                       on_result=lambda a, r: t.epochs_completed.append(r["epochs_completed"]))
        self._function(ppo.ppo_loss_and_grads, "ppo.loss_and_grads")
        self._function(ppo.compute_gae, "ppo.gae")
        self._method(ppo.RunningNormalizer, "update", normalizer_name)
        self._method(ppo.ReturnNormalizer, "update", "ppo.ret_norm_update")

        self._function(mpc.mpc_step, "mpc.step",
                       on_result=lambda a, r: t.mpc_converged.append(r[1].converged))
        self._function(mpc.build_reference, "mpc.build_reference")
        self._function(mpc.linearize, "mpc.linearize")
        self._function(mpc.assemble_qp, "mpc.assemble_qp")
        self._function(qp.QPProblem, "qp.problem")
        self._function(qp.admm_solve, "qp.admm_solve",
                       on_result=lambda a, r: t.admm_iterations.append(r.iterations))

        self._function(evaluation.run_laps, "evaluation.run_laps")
        self._function(evaluation.sweep_multipliers, "evaluation.sweep_multipliers")
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

# name -> (unit, better). Counts are per pass; timings are means per call
# unless the name says otherwise.
PER_LAYER = {
    "raceline.nearest_index.calls_per_step": ("calls/step", "lower"),
    "raceline.nearest_index.us": ("us", "lower"),
    "raceline.lateral_error.calls_per_step": ("calls/step", "lower"),
    "raceline.lateral_error.us": ("us", "lower"),
    "raceline.lookahead_target.us": ("us", "lower"),
    "raceline.local_curvature.us": ("us", "lower"),
    "vehicle.control_step.us": ("us", "lower"),
    "vehicle.collision_check.us": ("us", "lower"),
    "pure_pursuit.step.us": ("us", "lower"),
    **{f"controllers.step.us.{kind}": ("us", "lower") for kind in CONTROLLER_TYPES},
    "env.step.us": ("us", "lower"),
    "env.observe.us": ("us", "lower"),
    "nets.forward.calls": ("count", "lower"),
    "nets.forward.us.row": ("us", "lower"),
    "nets.forward.us.batch": ("us", "lower"),
    "nets.backward.us": ("us", "lower"),
    "nets.sample.us": ("us", "lower"),
    "ppo.cycles": ("count", "higher"),
    "ppo.collect_s": ("s", "lower"),
    "ppo.update_s": ("s", "lower"),
    "ppo.eval_s": ("s", "lower"),
    "ppo.loss_and_grads.us": ("us", "lower"),
    "ppo.obs_norm_update.us": ("us", "lower"),
    "ppo.ret_norm_update.us": ("us", "lower"),
    "ppo.gae.ms": ("ms", "lower"),
    "ppo.epochs_completed_frac": ("fraction", "higher"),
    "mpc.step.ms": ("ms", "lower"),
    "mpc.build_reference.us": ("us", "lower"),
    "mpc.linearize.us": ("us", "lower"),
    "mpc.assemble_qp.ms": ("ms", "lower"),
    "mpc.nonconverged_frac": ("fraction", "lower"),
    "qp.admm_solve.ms": ("ms", "lower"),
    "qp.problem.us": ("us", "lower"),
    "qp.admm_iterations.p50": ("count", "lower"),
    "qp.admm_iterations.p95": ("count", "lower"),
    "qp.admm_iterations.max": ("count", "lower"),
    "qp.admm_us_per_iter": ("us", "lower"),
    "evaluation.run_laps.calls": ("count", "lower"),
    "evaluation.run_laps.s": ("s", "lower"),
    "evaluation.laps_incomplete": ("count", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "lap_time_s": ("sim_s", "lower"),
    "best_multiplier.teacher": ("x", "higher"),
    "best_multiplier.adaptive": ("x", "higher"),
    "best_multiplier.fixed": ("x", "higher"),
    "step_us_p99": ("us", "lower"),
    "trace_overhead.control_steps_per_s": ("steps/s", "higher"),
    "trace_overhead.step_us_p50": ("us", "lower"),
}

# Metric -> span whose call count stands behind it.
_TIMED = {
    "raceline.nearest_index.us": "raceline.nearest_index",
    "raceline.lateral_error.us": "raceline.lateral_error",
    "raceline.lookahead_target.us": "raceline.lookahead_target",
    "raceline.local_curvature.us": "raceline.local_curvature",
    "vehicle.control_step.us": "vehicle.control_step",
    "vehicle.collision_check.us": "vehicle.collision_check",
    "pure_pursuit.step.us": "pure_pursuit.step",
    **{f"controllers.step.us.{kind}": f"controllers.step.{kind}"
       for kind in CONTROLLER_TYPES},
    "env.step.us": "env.step",
    "env.observe.us": "env.observe",
    "nets.forward.us.row": "nets.forward.row",
    "nets.forward.us.batch": "nets.forward.batch",
    "nets.backward.us": "nets.backward",
    "nets.sample.us": "nets.sample",
    "ppo.loss_and_grads.us": "ppo.loss_and_grads",
    "ppo.obs_norm_update.us": "ppo.obs_norm_update",
    "ppo.ret_norm_update.us": "ppo.ret_norm_update",
    "ppo.gae.ms": "ppo.gae",
    "mpc.step.ms": "mpc.step",
    "mpc.build_reference.us": "mpc.build_reference",
    "mpc.linearize.us": "mpc.linearize",
    "mpc.assemble_qp.ms": "mpc.assemble_qp",
    "qp.admm_solve.ms": "qp.admm_solve",
    "qp.problem.us": "qp.problem",
    "evaluation.run_laps.s": "evaluation.run_laps",
}
_SCALE = {"us": 1e-3, "ms": 1e-6, "s": 1e-9}


def span_summary(tracer: Tracer, passes: int, ppo_epochs: int) -> tuple[dict, dict]:
    """Per-layer metric values and the call count behind each, per pass."""
    cols = tracer.columns()
    n_names = len(tracer.names)
    dur = (cols["end_ns"] - cols["start_ns"]).astype(np.float64)
    has_parent = cols["parent"] >= 0
    child_ns = np.zeros_like(dur)
    np.add.at(child_ns, cols["parent"][has_parent], dur[has_parent])
    step_units = np.array([kind == "step" for kind in tracer.unit_kind] + [False])
    in_step = step_units[cols["unit"]]

    def per_name(weights=None, mask=None):
        ids = cols["name"] if mask is None else cols["name"][mask]
        w = None if weights is None else (weights if mask is None else weights[mask])
        out = np.bincount(ids, weights=w, minlength=n_names)
        return {name: out[i] for i, name in enumerate(tracer.names)}

    calls = per_name()
    total_ns = per_name(dur)
    self_ns = per_name(dur - child_ns)
    calls_in_steps = per_name(mask=in_step)
    steps = int(step_units.sum())

    def count(name):
        return int(calls.get(name, 0))

    def total(name):
        return float(total_ns.get(name, 0.0))

    values, counts = {}, {}
    for metric, span in _TIMED.items():
        n = count(span)
        scale = _SCALE[PER_LAYER[metric][0]]
        values[metric] = total(span) * scale / n if n else 0.0
        counts[metric] = n // passes
    for short in ("nearest_index", "lateral_error"):
        span = f"raceline.{short}"
        in_steps = int(calls_in_steps.get(span, 0))
        values[f"{span}.calls_per_step"] = in_steps / steps if steps else 0.0
        counts[f"{span}.calls_per_step"] = steps // passes

    per_pass = {
        "nets.forward.calls": count("nets.forward.row") + count("nets.forward.batch"),
        "ppo.cycles": count("ppo.collect"),
        "evaluation.run_laps.calls": count("evaluation.run_laps"),
    }
    for metric, n in per_pass.items():
        values[metric] = counts[metric] = n // passes

    cycles = count("ppo.collect")
    eval_ns = total("ppo.eval")
    for metric, ns in (("ppo.collect_s", total("ppo.collect") - eval_ns),
                       ("ppo.update_s", total("ppo.update")),
                       ("ppo.eval_s", eval_ns)):
        values[metric] = ns * 1e-9 / cycles if cycles else 0.0
        counts[metric] = cycles // passes
    updates = len(tracer.epochs_completed)
    values["ppo.epochs_completed_frac"] = (
        sum(tracer.epochs_completed) / (updates * ppo_epochs) if updates else 0.0)
    counts["ppo.epochs_completed_frac"] = updates // passes

    solves = len(tracer.mpc_converged)
    values["mpc.nonconverged_frac"] = (
        tracer.mpc_converged.count(False) / solves if solves else 0.0)
    counts["mpc.nonconverged_frac"] = solves // passes

    iterations = np.asarray(tracer.admm_iterations, dtype=float)
    for label, q in (("p50", 50), ("p95", 95), ("max", 100)):
        values[f"qp.admm_iterations.{label}"] = float(
            np.percentile(iterations, q, method="inverted_cdf")) if iterations.size else 0.0
        counts[f"qp.admm_iterations.{label}"] = iterations.size // passes
    values["qp.admm_us_per_iter"] = (
        total("qp.admm_solve") * 1e-3 / iterations.sum() if iterations.size else 0.0)
    counts["qp.admm_us_per_iter"] = iterations.size // passes

    for layer in LAYERS:
        mine = [name for name in tracer.names if name.split(".", 1)[0] == layer]
        values[f"{layer}.self_s"] = sum(self_ns[name] for name in mine) * 1e-9 / passes
        counts[f"{layer}.self_s"] = sum(count(name) for name in mine) // passes
    return values, counts
