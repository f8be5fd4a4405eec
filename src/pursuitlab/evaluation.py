"""Lap-based evaluation: consecutive-lap timing, sweeps, and comparisons.

The protocol mirrors how the controllers are judged end to end: run a
fixed number of consecutive laps, count a lap as complete only if every
step stayed inside the corridor, time laps by interpolating the
start-line crossing between control steps, and report lap statistics,
teacher-activation counts, tracking error, steering smoothness, and the
MPC's solver health.
"""

from __future__ import annotations

import contextlib
import csv
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import raceline as rl
from .files import atomic_open, trace_csv
from .vehicle import SimConfig, VehicleState, collision_check, control_step

# The MPC's solver health in the lap trace; blank on Pure Pursuit rows.
SOLVER_COLUMNS = ("solver", "iterations", "primal_residual", "dual_residual",
                  "converged", "kkt_solves")
LAP_TRACE_COLUMNS = ("lap", "lookahead", "gain", "kappa_max", *SOLVER_COLUMNS)
# The MPC's solver health over a run, from LapReport.solver_health.
SOLVER_HEALTH = ("held_steps", "admm_fallbacks", "kkt_solves_p50", "kkt_solves_p95",
                 "kkt_solves_max")
# The protocol's defaults, which the config's eval section takes.
LAPS = 10
MAX_LAP_TIME = 120.0  # [s]
REFINE_STEP = 0.01


@dataclass
class LapRecord:
    lap: int
    time: float
    completed: bool


@dataclass
class LapReport:
    """Statistics over one multi-lap evaluation run."""

    laps: list[LapRecord] = field(default_factory=list)
    teacher_steps: int = 0
    total_steps: int = 0
    mean_abs_lateral_error: float = math.nan
    steering_rate_rms: float = math.nan
    # The MPC's solver health; Pure Pursuit steps report no solver.
    held_steps: int = 0  # not converged: the previous command was held
    admm_fallbacks: int = 0
    kkt_solves: list[int] = field(default_factory=list)  # per MPC step

    @property
    def completed(self) -> int:
        return sum(1 for lap in self.laps if lap.completed)

    @property
    def attempted(self) -> int:
        return len(self.laps)

    def completed_times(self) -> list[float]:
        return [lap.time for lap in self.laps if lap.completed]

    def stats(self) -> dict:
        times = self.completed_times()
        if not times:
            return {"mean": math.nan, "std": math.nan,
                    "min": math.nan, "max": math.nan}
        arr = np.asarray(times)
        return {"mean": float(arr.mean()), "std": float(arr.std(ddof=0)),
                "min": float(arr.min()), "max": float(arr.max())}

    @property
    def teacher_fraction(self) -> float:
        return self.teacher_steps / self.total_steps if self.total_steps else 0.0

    def teacher_summary(self) -> str:
        return (f"{self.teacher_steps}/{self.total_steps} steps "
                f"({100.0 * self.teacher_fraction:.3f}%)")

    @property
    def solver_steps(self) -> int:
        return len(self.kkt_solves)

    def record_solver(self, health):
        """Count one step's solver health (an ``mpc.MPCStepInfo``)."""
        if not health.converged:
            self.held_steps += 1
        if health.solver == "admm":
            self.admm_fallbacks += 1
        self.kkt_solves.append(health.kkt_solves)

    def solver_health(self) -> dict | None:
        """:data:`SOLVER_HEALTH`: held-command steps, ADMM fallbacks, and the
        active-set solver's KKT solves per step at the p50, p95 and max,
        those of the steps that fell back to ADMM included; None if no step
        reported a solver."""
        if not self.solver_steps:
            return None
        quantiles = np.percentile(np.asarray(self.kkt_solves, dtype=float),
                                  [50, 95, 100]).tolist()
        return dict(zip(SOLVER_HEALTH, [self.held_steps, self.admm_fallbacks, *quantiles]))

    def solver_summary(self) -> str:
        """One line of :meth:`solver_health`; empty if no step reported a solver."""
        health = self.solver_health()
        if health is None:
            return ""
        return (f"held {health['held_steps']}/{self.solver_steps} steps, "
                f"ADMM {health['admm_fallbacks']}, KKT solves "
                f"{health['kkt_solves_p50']:g}/{health['kkt_solves_p95']:g}/"
                f"{health['kkt_solves_max']:g}")


def _start_state(raceline: rl.Raceline, start_index: int = 0) -> VehicleState:
    return VehicleState(float(raceline.x[start_index]),
                        float(raceline.y[start_index]),
                        rl.tangent_heading(raceline, start_index),
                        0.5 * float(raceline.v_max[start_index]))


def run_laps(controller, raceline: rl.Raceline, sim_config: SimConfig,
             laps: int = LAPS, max_lap_time: float = MAX_LAP_TIME,
             trace_path=None, start_index: int = 0) -> LapReport:
    """Drive ``laps`` consecutive laps from the start waypoint ``start_index``.

    A collision (or exceeding ``max_lap_time``) marks the current lap
    incomplete and restarts the run from the start line. Lap split times
    interpolate the crossing between the two straddling control steps.

    ``trace_path`` optionally receives one ``files.trace_csv`` row per
    control step, with :data:`LAP_TRACE_COLUMNS` as the runner's own; the
    file appears when the run returns and not at all if it raises.
    """
    if not isinstance(laps, numbers.Integral) or laps < 1:  # NaN and 2.5 fail too
        raise ValueError(f"laps must be an integer >= 1, got {laps!r}")
    if not 0.0 < max_lap_time < math.inf:  # NaN fails too
        raise ValueError(f"max_lap_time must be finite and > 0, got {max_lap_time}")
    dt = sim_config.dt_control
    n = raceline.n
    if not 0 <= start_index < n:
        raise ValueError(f"start_index must be in 0..{n - 1}, got {start_index}")
    max_lap_steps = int(math.ceil(max_lap_time / dt))

    report = LapReport()
    abs_lat_sum = 0.0
    steer_rate_sq_sum = 0.0
    clock = 0.0

    with contextlib.nullcontext() if trace_path is None else \
            trace_csv(trace_path, LAP_TRACE_COLUMNS) as trace:
        lap_no = 1
        while lap_no <= laps:
            # An attempt: from the start line until ``laps`` laps are done
            # or the current one is lost.
            state = _start_state(raceline, start_index)
            controller.reset()
            prev_delta = 0.0
            prev_index = start_index
            lap_progress = 0
            lap_start_time = clock
            lap_steps = 0
            while lap_no <= laps:
                output = controller.step(state, clock)
                state, applied_delta = control_step(state, output.command,
                                                    prev_delta, sim_config)
                steer_rate_sq_sum += ((applied_delta - prev_delta) / dt) ** 2
                prev_delta = applied_delta
                clock += dt
                lap_steps += 1

                index, lat = rl.locate(raceline, state.position, near=prev_index)
                advance = rl.progress_count(prev_index, index, n)
                prev_index = index
                abs_lat_sum += abs(lat)
                if output.mode == "teacher":
                    report.teacher_steps += 1
                report.total_steps += 1
                health = output.solver
                if health is not None:
                    report.record_solver(health)

                if trace is not None:
                    params = output.params
                    trace(report.total_steps, clock, index, state, output.command, lat,
                          output.mode, lap=lap_no,
                          lookahead=None if params is None else params.lookahead,
                          gain=None if params is None else params.gain,
                          kappa_max=rl.taps(raceline, index).kappa_max,
                          **({} if health is None else
                             {name: getattr(health, name) for name in SOLVER_COLUMNS}))

                if collision_check(raceline, lat) or lap_steps >= max_lap_steps:
                    report.laps.append(LapRecord(lap_no, math.nan, False))
                    lap_no += 1
                    break

                # A step crosses the start line at most once: advance <= n // 2
                # (progress_count) and lap_progress < n.
                if lap_progress + advance >= n:
                    # Interpolate the crossing inside this control step.
                    crossing = clock - dt + (n - lap_progress) / advance * dt
                    report.laps.append(LapRecord(lap_no, crossing - lap_start_time, True))
                    lap_no += 1
                    lap_start_time = crossing
                    lap_steps = 0
                lap_progress = (lap_progress + advance) % n

    if report.total_steps:
        report.mean_abs_lateral_error = abs_lat_sum / report.total_steps
        report.steering_rate_rms = math.sqrt(steer_rate_sq_sum / report.total_steps)
    return report


def write_laps_csv(report: LapReport, path):
    with atomic_open(path) as f:
        writer = csv.writer(f)
        writer.writerow(["lap", "time", "completed"])
        for lap in report.laps:
            writer.writerow([lap.lap,
                             "" if math.isnan(lap.time) else f"{lap.time:.6f}",
                             int(lap.completed)])


@dataclass
class SweepEntry:
    multiplier: float
    report: LapReport


@dataclass
class SweepResult:
    entries: list[SweepEntry]
    best_multiplier: float | None
    fully_completing: bool

    def best_entry(self) -> SweepEntry | None:
        for entry in self.entries:
            if entry.multiplier == self.best_multiplier:
                return entry
        return None


def sweep_multipliers(build_controller_fn, base_raceline: rl.Raceline,
                      sim_config: SimConfig, grid, laps: int = LAPS,
                      max_lap_time: float = MAX_LAP_TIME,
                      refine_step: float = REFINE_STEP) -> SweepResult:
    """Find the largest speed multiplier with full lap completion.

    ``build_controller_fn(raceline)`` must return a fresh controller bound
    to the scaled raceline. The grid must be ascending. With
    ``refine_step`` > 0 the boundary between the best passing and the next
    grid point is refined at that resolution. If no multiplier fully
    completes, the entry with the most completions is reported and the
    result is flagged.
    """
    grid = [float(m) for m in grid]
    if not grid:
        raise ValueError("multiplier grid must not be empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("multiplier grid must be strictly ascending")

    def evaluate(multiplier: float) -> SweepEntry:
        scaled = rl.scale_speeds(base_raceline, multiplier)
        controller = build_controller_fn(scaled)
        report = run_laps(controller, scaled, sim_config, laps=laps,
                          max_lap_time=max_lap_time)
        return SweepEntry(multiplier, report)

    entries = [evaluate(m) for m in grid]
    passing = [e for e in entries if e.report.completed == laps]
    if not passing:
        best = max(entries, key=lambda e: (e.report.completed, e.multiplier))
        return SweepResult(entries, best.multiplier, False)

    best = max(passing, key=lambda e: e.multiplier)
    if refine_step > 0.0:
        above = [m for m in grid if m > best.multiplier]
        ceiling = min(above) if above else best.multiplier + 5 * refine_step
        candidate = best.multiplier + refine_step
        while candidate < ceiling - 1e-12:
            entry = evaluate(round(candidate, 10))
            entries.append(entry)
            if entry.report.completed == laps:
                best = entry
            candidate += refine_step
        entries.sort(key=lambda e: e.multiplier)

    return SweepResult(entries, best.multiplier, True)


def lap_row(name: str, report: LapReport) -> dict:
    """One report as a row of the comparison table: lap-time statistics,
    completed and attempted laps, teacher steps, tracking error, steering
    smoothness, and :data:`SOLVER_HEALTH` (blank for Pure Pursuit)."""
    health = report.solver_health() or dict.fromkeys(SOLVER_HEALTH, "")
    return {"controller": name, **report.stats(), "completed": report.completed,
            "attempted": report.attempted, "teacher_steps": report.teacher_steps,
            "total_steps": report.total_steps,
            "mean_abs_lateral_error": report.mean_abs_lateral_error,
            "steering_rate_rms": report.steering_rate_rms, **health}


# A lap_row as text, with the teacher share [%] and the solver summary.
_TEXT_ROW = ("{controller:<32}{mean:>8.2f}{std:>8.2f}{min:>8.2f}{max:>8.2f}"
             "{completed:>5d}/{attempted:<2d}{share:>10.3f}{mean_abs_lateral_error:>9.4f}"
             "{steering_rate_rms:>12.4f}  {solver}")


def format_comparison(rows: list[tuple[str, LapReport]]) -> str:
    """Plain-text table of :func:`lap_row` per controller: lap times [s],
    laps completed/attempted, teacher share [%], mean |lateral error| [m],
    steering-rate RMS [rad/s] and the MPC's solver health."""
    header = (f"{'Controller':<32}{'Mean':>8}{'Std':>8}{'Min':>8}{'Max':>8}{'Laps':>8}"
              f"{'Teacher%':>10}{'|lat| m':>9}{'steer rad/s':>12}"
              f"  Solver (held, ADMM, KKT solves p50/p95/max)")
    return "\n".join([header, "-" * len(header), *(
        _TEXT_ROW.format(**lap_row(name, report), share=100.0 * report.teacher_fraction,
                         solver=report.solver_summary()).rstrip()
        for name, report in rows)])


def write_comparison_csv(rows: list[tuple[str, LapReport]], path):
    """One CSV line of :func:`lap_row` per controller, under its keys."""
    with atomic_open(path) as f:
        writer = csv.DictWriter(f, list(lap_row("", LapReport())))
        writer.writeheader()
        writer.writerows(lap_row(name, report) for name, report in rows)
