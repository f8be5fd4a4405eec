import copy
import csv
import inspect
import math

import numpy as np
import pytest

from pursuitlab import cli
from pursuitlab import raceline as rl
from pursuitlab.config import (DEFAULTS, build_ppo_config, build_reward_weights,
                               build_sim_config, build_track, load_config)
from pursuitlab.controllers import (DEFAULT_FIXED_GAIN, SPEC_DEFAULTS, ControllerOutput,
                                    PolicySource, PurePursuitAdapter,
                                    build_controller)
from pursuitlab.env import RewardWeights
from pursuitlab.mpc import MPCStepInfo, MPCTracker
from pursuitlab.evaluation import (SOLVER_COLUMNS, SOLVER_HEALTH, LapReport,
                                   format_comparison, run_laps, sweep_multipliers,
                                   write_comparison_csv, write_laps_csv)
from pursuitlab.files import TRACE_CORE
from pursuitlab.nets import HIDDEN, DenseNet, GaussianPolicy
from pursuitlab.ppo import (PolicyBundle, PPOConfig, ReturnNormalizer, RunningNormalizer,
                            save_checkpoint)
from pursuitlab.pure_pursuit import DEFAULT_FIXED_LOOKAHEAD, TeacherSource
from pursuitlab.vehicle import Command, SimConfig

from conftest import make_circle_csv
from test_mpc import heldout_rect

SIM = SimConfig()


def small_oval(v_cap=6.0):
    return rl.synthesize_track("oval", straight=8.0, radius=3.0, spacing=0.25,
                               v_cap=v_cap, a_lat_max=3.0)


def untrained_bundle():
    rng = np.random.default_rng(4)
    return PolicyBundle(GaussianPolicy(5, 2, rng, mean_bias=[1.8, 0.7]),
                        DenseNet((5, 8, 1), rng, final_gain=1.0),
                        RunningNormalizer(5),
                        {"action_mode": "joint", "fixed_gain": 0.6})


def write_checkpoint(path, act_dim, meta):
    """An untrained checkpoint whose policy acts in ``act_dim`` dimensions."""
    rng = np.random.default_rng(6)
    policy = GaussianPolicy(5, act_dim, rng, mean_bias=[1.8, 0.7][:act_dim])
    save_checkpoint(path, policy, DenseNet((5, *HIDDEN, 1), rng, final_gain=1.0),
                    RunningNormalizer(5), ReturnNormalizer(0.99, 1), meta)
    return str(path)


class CrashController:
    """Steers hard right regardless of state; leaves the corridor quickly."""

    def reset(self):
        pass

    def step(self, state, now):
        return ControllerOutput(Command(-0.35, 3.0), None, "fixed")


# ----------------------------------------------------------------------
# Lap runner
# ----------------------------------------------------------------------

def test_teacher_completes_laps_with_consistent_stats(tmp_path):
    track = small_oval()
    controller = PurePursuitAdapter(track, TeacherSource())
    trace = tmp_path / "trace.csv"
    report = run_laps(controller, track, SIM, laps=3, trace_path=trace)
    assert report.completed == 3 and report.attempted == 3
    assert report.teacher_steps == report.total_steps
    assert report.teacher_summary().endswith("(100.000%)")

    rows = list(csv.DictReader(open(trace)))
    assert len(rows) == report.total_steps  # one row per control step

    laps_csv = tmp_path / "laps.csv"
    write_laps_csv(report, laps_csv)
    with open(laps_csv, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [int(row["lap"]) for row in rows] == [1, 2, 3]
    times = [float(row["time"]) for row in rows if int(row["completed"])]
    stats = report.stats()
    assert np.mean(times) == pytest.approx(stats["mean"], abs=1e-9)
    assert np.std(times) == pytest.approx(stats["std"], abs=1e-9)
    assert min(times) == pytest.approx(stats["min"], abs=1e-9)
    assert max(times) == pytest.approx(stats["max"], abs=1e-9)


def test_run_laps_that_raises_leaves_no_trace(tmp_path):
    track = small_oval()
    controller = PurePursuitAdapter(track, TeacherSource())
    teacher_step = controller.step

    def step(state, now):
        if now > 1.0:
            raise RuntimeError("controller failed")
        return teacher_step(state, now)

    controller.step = step
    with pytest.raises(RuntimeError, match="controller failed"):
        run_laps(controller, track, SIM, laps=2, trace_path=tmp_path / "trace.csv")
    assert list(tmp_path.iterdir()) == []  # neither trace.csv nor trace.csv.tmp


def test_lap_is_incomplete_if_any_step_collided():
    track = small_oval()
    report = run_laps(CrashController(), track, SIM, laps=2, max_lap_time=20.0)
    assert report.attempted == 2
    assert report.completed == 0
    assert all(math.isnan(lap.time) for lap in report.laps)
    assert report.stats()["mean"] != report.stats()["mean"]  # NaN


def test_lap_timing_is_interpolated_and_positive():
    track = small_oval()
    controller = PurePursuitAdapter(track, TeacherSource())
    report = run_laps(controller, track, SIM, laps=4)
    times = report.completed_times()
    assert len(times) == 4
    for t in times:
        assert 1.0 < t < 60.0
        assert (t / SIM.dt_control) % 1.0 != 0.0 or True  # sub-step resolution
    # Lap times of consecutive laps on the same track agree closely.
    assert np.std(times[1:]) < 0.5


@pytest.mark.parametrize("kind", ["fixed", "adaptive", "teacher", "rl", "starved_rl",
                                  "mpc"])
def test_run_laps_locates_each_pose_once_per_layer(kind, track_queries, track_scans):
    track = small_oval()
    if kind.endswith("rl"):
        source = PolicySource(untrained_bundle())
        source.publishing = kind == "rl"
        controller = PurePursuitAdapter(track, source)
    else:
        controller = build_controller({"type": kind}, track, SIM)
    report = run_laps(controller, track, SIM, laps=1, max_lap_time=20.0)
    # The lap runner scans once for each stepped pose, which also gives the
    # only lateral error. The controller's query of that pose at its next
    # step (nearest_index, which is locate's index) gets the stored answer;
    # only its first query of the attempt, at the start pose, scans.
    # The teacher schedule and the rl observation each read the taps once;
    # a starved slot falls back to the teacher, which reads them once.
    assert report.total_steps > 0 and report.attempted == 1
    assert len(track_scans) == report.total_steps + 1
    assert track_scans[0] is None
    taps_per_step = {"fixed": 0, "adaptive": 0, "teacher": 1, "rl": 1, "starved_rl": 1,
                     "mpc": 0}[kind]
    assert (track_queries["lateral_error"], track_queries["taps"]) == (
        0, taps_per_step * report.total_steps)


def test_run_laps_scans_the_start_pose_once_per_attempt(track_scans):
    track = small_oval()
    report = run_laps(build_controller({"type": "teacher"}, track, SIM), track, SIM,
                      laps=3, max_lap_time=1.0)
    # Every lap times out, so each is its own attempt from the start line.
    assert [lap.completed for lap in report.laps] == [False] * 3
    assert len(track_scans) == report.total_steps + 3
    assert track_scans.count(None) == 3


@pytest.mark.parametrize("kind", ["teacher", "mpc"])
def test_completed_laps_scan_the_whole_loop_once(kind, full_scans):
    track = heldout_rect()
    report = run_laps(build_controller({"type": kind}, track, SIM), track, SIM,
                      laps=3, max_lap_time=60.0)
    assert report.completed == 3
    # Only the controller's first query after the reset, which has no hint,
    # scans the whole loop; every later query, the lap runner's included,
    # is answered by the window around its hint.
    assert full_scans == [None]


def test_run_laps_rejects_a_start_waypoint_off_the_loop():
    track = small_oval()
    for start_index in (-1, track.n):
        with pytest.raises(ValueError,
                           match=rf"^start_index must be in 0\.\.{track.n - 1}, "):
            run_laps(CrashController(), track, SIM, laps=1, start_index=start_index)


@pytest.mark.parametrize("max_lap_time", [0.0, -5.0, math.nan, math.inf])
def test_lap_runs_reject_a_max_lap_time_they_cannot_honour(max_lap_time):
    track = small_oval()
    message = r"^max_lap_time must be finite and > 0, got "
    with pytest.raises(ValueError, match=message):
        run_laps(build_controller({"type": "teacher"}, track, SIM), track, SIM,
                 laps=2, max_lap_time=max_lap_time)
    with pytest.raises(ValueError, match=message):
        sweep_multipliers(lambda r: build_controller({"type": "teacher"}, r, SIM),
                          track, SIM, [1.0], laps=1, max_lap_time=max_lap_time)


@pytest.mark.parametrize("laps", [math.nan, 2.5, 0])
def test_lap_runs_reject_a_lap_count_that_is_not_a_whole_positive_number(laps):
    """NaN used to drive no lap, and 2.5 two."""
    track = small_oval()
    message = r"^laps must be an integer >= 1, got "
    with pytest.raises(ValueError, match=message):
        run_laps(build_controller({"type": "teacher"}, track, SIM), track, SIM, laps=laps)
    with pytest.raises(ValueError, match=message):
        sweep_multipliers(lambda r: build_controller({"type": "teacher"}, r, SIM),
                          track, SIM, [1.0], laps=laps)


@pytest.mark.parametrize("kind", ["fixed", "adaptive", "teacher", "rl"])
def test_lap_runs_write_no_record_after_building_it(kind, monkeypatch):
    """The per-step records are slotted, not frozen: no code may write one
    once built, so each compares equal after 3 laps to a copy taken when
    it was built (the fixed source's pair: before the run)."""
    track = heldout_rect()
    controller = PurePursuitAdapter(track, PolicySource(untrained_bundle())) \
        if kind == "rl" else build_controller({"type": kind}, track, SIM)
    source = controller.controller.source
    kept = [(source.params, copy.copy(source.params))] if kind == "fixed" else []
    if kind == "rl":
        def publish(action, now, _publish=source.publish):
            params = _publish(action, now)
            kept.append((params, copy.copy(params)))
            return params
        monkeypatch.setattr(source, "publish", publish)

    def step(state, now, _step=controller.step):
        output = _step(state, now)
        kept.append(((state, output), copy.deepcopy((state, output))))
        return output
    monkeypatch.setattr(controller, "step", step)

    report = run_laps(controller, track, SIM, laps=3, max_lap_time=60.0)
    published = report.total_steps if kind == "rl" else 0
    assert len(kept) == report.total_steps + published + (kind == "fixed") > 100
    for record, at_build in kept:
        assert record == at_build


def test_run_continues_after_collision_reset():
    track = small_oval()

    class CrashOnceThenTeach:
        def __init__(self):
            self.inner = PurePursuitAdapter(track, TeacherSource())
            self.crashed = False

        def reset(self):
            self.inner.reset()

        def step(self, state, now):
            if not self.crashed and now > 1.0:
                self.crashed = True  # one hard swerve, then behave
                return ControllerOutput(Command(-0.35, 6.0), None, "fixed")
            if self.crashed and now < 1.2:
                return ControllerOutput(Command(-0.35, 6.0), None, "fixed")
            return self.inner.step(state, now)

    report = run_laps(CrashOnceThenTeach(), track, SIM, laps=3)
    assert report.attempted == 3
    assert report.completed >= 1  # finishes remaining laps after the reset


@pytest.mark.parametrize("owner", ["fixed", "adaptive", "teacher", "rl", "mpc"])
def test_every_trace_begins_with_the_shared_core(owner, tmp_path):
    """The lap runner's trace for each controller has one format: the core
    columns, then the runner's own."""
    track = heldout_rect()
    path = tmp_path / "trace.csv"
    controller = PurePursuitAdapter(track, PolicySource(untrained_bundle())) \
        if owner == "rl" else build_controller({"type": owner}, track, SIM)
    steps = run_laps(controller, track, SIM, laps=1, max_lap_time=3.0,
                     trace_path=path).total_steps
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        header, rows = reader.fieldnames, list(reader)
    assert tuple(header[:len(TRACE_CORE)]) == TRACE_CORE
    assert len(set(header)) == len(header)
    assert len(rows) == steps  # one row per control step
    if owner == "mpc":
        assert {(row["solver"], row["converged"]) for row in rows} == {("active_set", "1")}
    else:
        assert {row[name] for row in rows for name in SOLVER_COLUMNS} == {""}


@pytest.mark.parametrize("kind", ["fixed", "adaptive", "teacher", "rl", "mpc"])
def test_mirrored_track_gives_the_same_laps(kind):
    """Oracle: mirroring the track across the x axis mirrors every pose and
    command, and the controllers read curvature only as magnitudes, so the
    lap results cannot change."""
    track = heldout_rect()
    mirrored = rl.Raceline(track.x, -track.y, -track.kappa, track.v_base, track.half_width)

    def laps(raceline):
        controller = PurePursuitAdapter(raceline, PolicySource(untrained_bundle())) \
            if kind == "rl" else build_controller({"type": kind}, raceline, SIM)
        return run_laps(controller, raceline, SIM, laps=2, max_lap_time=60.0)

    report, mirror = laps(track), laps(mirrored)
    assert report.completed >= 1
    assert [lap.completed for lap in mirror.laps] == [lap.completed for lap in report.laps]
    assert [lap.time for lap in mirror.laps] == pytest.approx(
        [lap.time for lap in report.laps], rel=0.0, abs=1e-9)
    for name in ("mean_abs_lateral_error", "steering_rate_rms"):
        assert getattr(mirror, name) == pytest.approx(getattr(report, name), rel=0.0, abs=1e-9)


# ----------------------------------------------------------------------
# Sweep
# ----------------------------------------------------------------------

def make_threshold_builder(track, limit):
    """Stub: completes laps only at multipliers at or below the limit."""

    def build(scaled):
        if scaled.speed_scale <= limit + 1e-9:
            return PurePursuitAdapter(scaled, TeacherSource())
        return CrashController()

    return build


def test_sweep_returns_largest_fully_completing():
    track = small_oval()
    result = sweep_multipliers(make_threshold_builder(track, 1.1), track, SIM,
                               grid=[0.9, 1.0, 1.1, 1.2], laps=2,
                               max_lap_time=30.0, refine_step=0.0)
    assert result.fully_completing
    assert result.best_multiplier == 1.1


def test_sweep_single_entry_grid():
    track = small_oval()
    result = sweep_multipliers(make_threshold_builder(track, 2.0), track, SIM,
                               grid=[1.0], laps=1, max_lap_time=30.0, refine_step=0.0)
    assert result.best_multiplier == 1.0
    assert len(result.entries) == 1


def test_sweep_non_monotone_still_takes_largest_passing():
    track = small_oval()

    def build(scaled):
        # Passes at 0.9 and 1.1 but fails at 1.0.
        if abs(scaled.speed_scale - 1.0) < 1e-9:
            return CrashController()
        return PurePursuitAdapter(scaled, TeacherSource())

    result = sweep_multipliers(build, track, SIM, grid=[0.9, 1.0, 1.1],
                               laps=1, max_lap_time=30.0, refine_step=0.0)
    assert result.best_multiplier == 1.1


def test_sweep_none_completing_reports_best_available():
    track = small_oval()

    def build(scaled):
        return CrashController()

    result = sweep_multipliers(build, track, SIM, grid=[0.9, 1.0], laps=1,
                               max_lap_time=10.0)
    assert not result.fully_completing
    assert result.best_multiplier is not None


def test_sweep_rejects_unsorted_grid(oval_track):
    with pytest.raises(ValueError):
        sweep_multipliers(lambda r: CrashController(), oval_track, SIM,
                          grid=[1.0, 0.9])


def test_sweep_refinement_tightens_boundary():
    track = small_oval()
    result = sweep_multipliers(make_threshold_builder(track, 1.07), track, SIM,
                               grid=[1.0, 1.05, 1.10], laps=1,
                               max_lap_time=30.0, refine_step=0.01)
    assert result.best_multiplier == pytest.approx(1.07, abs=1e-9)


# ----------------------------------------------------------------------
# Comparison table
# ----------------------------------------------------------------------

def test_comparison_outputs(tmp_path):
    track = small_oval()
    r1 = run_laps(PurePursuitAdapter(track, TeacherSource()), track, SIM, laps=2)
    r2 = run_laps(PurePursuitAdapter(track, TeacherSource()), track, SIM, laps=2)
    rows = [("teacher_a", r1), ("teacher_b", r2)]
    text = format_comparison(rows)
    header = text.splitlines()[0]
    assert header.index("Mean") < header.index("Std") < header.index("Min") \
        < header.index("Max")
    # Identical controllers produce identical rows (determinism).
    lines = text.splitlines()[2:]
    assert lines[0].split()[1:] == lines[1].split()[1:]

    path = tmp_path / "compare.csv"
    write_comparison_csv(rows, path)
    got = list(csv.DictReader(open(path)))
    assert [row["controller"] for row in got] == ["teacher_a", "teacher_b"]
    assert got[0]["mean"] == got[1]["mean"]


def test_solver_health_counts_held_steps_fallbacks_and_kkt_solves(tmp_path):
    mpc_report = LapReport()
    # KKT solves count on every step: 5 before a fallback, 0 where it raised.
    for solver, iterations, kkt_solves, converged in [
            ("active_set", 3, 3, True), ("admm", 40, 5, True), ("active_set", 1, 1, True),
            ("admm", 4000, 0, False), ("active_set", 7, 7, True)]:
        mpc_report.record_solver(MPCStepInfo(iterations, converged=converged, solver=solver,
                                             kkt_solves=kkt_solves))
    health = mpc_report.solver_health()
    assert health == {"held_steps": 1, "admm_fallbacks": 2, "kkt_solves_p50": 3.0,
                      "kkt_solves_p95": pytest.approx(6.6), "kkt_solves_max": 7.0}
    pp_report = LapReport()
    assert pp_report.solver_health() is None and pp_report.solver_summary() == ""

    rows = [("teacher", pp_report), ("mpc", mpc_report)]
    path = tmp_path / "compare.csv"
    write_comparison_csv(rows, path)
    pp_row, mpc_row = csv.DictReader(open(path))
    assert all(pp_row[key] == "" for key in SOLVER_HEALTH)
    assert {key: float(mpc_row[key]) for key in SOLVER_HEALTH} == health
    pp_line, mpc_line = format_comparison(rows).splitlines()[2:]
    assert pp_line.split() == ["teacher", "nan", "nan", "nan", "nan", "0/0", "0.000",
                               "nan", "nan"]
    assert mpc_line.endswith("held 1/5 steps, ADMM 2, KKT solves 3/6.6/7")


def test_cli_reports_read_back_the_mpc_solver_health(tmp_path):
    """report.txt of eval and compare and compare.csv carry the solver health
    that the MPC's lap trace records step by step; blank for Pure Pursuit."""
    extra = ("controller:\n  type: mpc\n"
             "compare:\n"
             "  - name: teacher\n"
             "    controller: {type: teacher}\n"
             "  - name: mpc\n"
             "    controller: {type: mpc}\n")
    cfg = write_cli_config(tmp_path, extra)
    assert cli.main(["compare", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    assert cli.main(["eval", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 0

    trace = list(csv.DictReader(open(tmp_path / "c" / "mpc_trace.csv")))
    solves = [int(row["kkt_solves"]) for row in trace]
    assert solves
    expected = {"held_steps": sum(row["converged"] == "0" for row in trace),
                "admm_fallbacks": sum(row["solver"] == "admm" for row in trace),
                "kkt_solves_p50": float(np.percentile(solves, 50)),
                "kkt_solves_p95": float(np.percentile(solves, 95)),
                "kkt_solves_max": float(max(solves))}
    summary = (f"held {expected['held_steps']}/{len(trace)} steps, "
               f"ADMM {expected['admm_fallbacks']}, KKT solves "
               f"{expected['kkt_solves_p50']:g}/{expected['kkt_solves_p95']:g}/"
               f"{expected['kkt_solves_max']:g}")

    pp_row, mpc_row = csv.DictReader(open(tmp_path / "c" / "compare.csv"))
    assert all(pp_row[key] == "" for key in SOLVER_HEALTH)
    assert {key: float(mpc_row[key]) for key in SOLVER_HEALTH} == expected
    table = (tmp_path / "c" / "report.txt").read_text().splitlines()
    assert table[2].startswith("teacher") and "held" not in table[2]
    assert table[3].startswith("mpc") and table[3].endswith(summary)
    row = (tmp_path / "e" / "report.txt").read_text().splitlines()[2]
    assert row.startswith("mpc") and row.endswith(summary)


def read_table(path):
    """The rows of a report.txt table: name -> (the eight cells after the
    name, the solver summary)."""
    lines = path.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("Controller")) + 2
    rows = {}
    for line in lines[start:]:
        cells = line.split(maxsplit=9)
        rows[cells[0]] = (cells[1:9], cells[9] if len(cells) > 9 else "")
    return rows


def printed(row):
    """A compare.csv or sweep.csv row as report.txt prints it."""
    total = int(row["total_steps"])
    cells = [*(f"{float(row[key]):.2f}" for key in ("mean", "std", "min", "max")),
             f"{row['completed']}/{row['attempted']}",
             f"{100.0 * int(row['teacher_steps']) / total:.3f}",
             f"{float(row['mean_abs_lateral_error']):.4f}",
             f"{float(row['steering_rate_rms']):.4f}"]
    solver = "" if row["held_steps"] == "" else (
        f"held {row['held_steps']}/{total} steps, ADMM {row['admm_fallbacks']}, KKT solves "
        + "/".join(f"{float(row[key]):g}" for key in SOLVER_HEALTH[2:]))
    return cells, solver


def test_cli_reports_print_the_lap_rows_of_the_csvs(tmp_path):
    """Every row of each report.txt of eval, sweep and compare prints lap
    times, laps, teacher share, tracking error, steering smoothness and
    solver health, as compare.csv or sweep.csv holds them."""
    extra = ("controller:\n  type: mpc\n"
             "compare:\n"
             "  - name: teacher\n"
             "    controller: {type: teacher}\n"
             "  - name: mpc\n"
             "    controller: {type: mpc}\n")
    cfg = write_cli_config(tmp_path, extra)
    for command in ("eval", "sweep", "compare"):
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0

    compare = {row["controller"]: printed(row)
               for row in csv.DictReader(open(tmp_path / "compare" / "compare.csv"))}
    sweep = {row["controller"]: printed(row)
             for row in csv.DictReader(open(tmp_path / "sweep" / "sweep.csv"))}
    assert list(compare) == ["teacher", "mpc"] and list(sweep) == ["x0.90", "x1.00"]
    assert compare["teacher"][0][5] == "100.000" and compare["mpc"][1].startswith("held ")
    assert read_table(tmp_path / "compare" / "report.txt") == compare
    assert read_table(tmp_path / "sweep" / "report.txt") == sweep
    # eval runs the config's controller, which is compare's mpc entry and
    # the sweep's x1.00.
    assert read_table(tmp_path / "eval" / "report.txt") == {"mpc": compare["mpc"]}
    assert sweep["x1.00"] == compare["mpc"]


# ----------------------------------------------------------------------
# Controller factory and config
# ----------------------------------------------------------------------

def test_build_controller_types(oval_track, tmp_path):
    checkpoint = write_checkpoint(tmp_path / "policy.npz", 2, {})
    for spec in ({"type": "fixed"}, {"type": "adaptive"}, {"type": "teacher"},
                 {"type": "rl", "checkpoint": checkpoint}):
        assert type(build_controller(spec, oval_track, SIM)) is PurePursuitAdapter
    assert isinstance(build_controller({"type": "mpc", "max_iter": 500},
                                       oval_track, SIM), MPCTracker)
    with pytest.raises(ValueError, match="checkpoint"):
        build_controller({"type": "rl"}, oval_track, SIM)
    with pytest.raises(ValueError, match="unknown"):
        build_controller({"type": "what"}, oval_track, SIM)
    with pytest.raises(ValueError, match="unknown controller type None"):
        build_controller({}, oval_track, SIM)
    source = build_controller({"type": "fixed"}, oval_track, SIM).controller.source
    assert (source.lookahead, source.gain) == (DEFAULT_FIXED_LOOKAHEAD, DEFAULT_FIXED_GAIN)


def test_rl_action_mode_comes_from_the_policy(tmp_path):
    """A lookahead-only checkpoint saved without the trainer's meta still
    publishes 1-D actions, under the default fixed gain."""
    track = small_oval()
    spec = {"type": "rl", "checkpoint": write_checkpoint(tmp_path / "ld.npz", 1, {})}
    controller = build_controller(spec, track, SIM)
    assert controller.controller.source.action_mode == "ld_only"
    report = run_laps(controller, track, SIM, laps=1, max_lap_time=5.0)
    assert report.total_steps > 0 and report.teacher_steps == 0
    assert controller.controller.smoothed.gain == DEFAULT_FIXED_GAIN


def test_rl_checkpoint_meta_must_agree_with_its_policy(tmp_path, oval_track):
    spec = {"type": "rl", "checkpoint": write_checkpoint(
        tmp_path / "ld.npz", 1, {"action_mode": "joint"})}
    with pytest.raises(ValueError, match="'joint'.*'ld_only'"):
        build_controller(spec, oval_track, SIM)


def test_adaptive_band_widens_only_when_taken_from_a_constant_speed_track():
    track = rl.load_raceline(make_circle_csv(v=5.0), half_width=1.1)
    source = build_controller({"type": "adaptive"}, track, SIM).controller.source
    assert (source.v_lo, source.v_hi) == (5.0, 6.0)
    for band in ({"v_lo": 5.0}, {"v_hi": 5.0}):  # a reversed pair: the CLI table
        with pytest.raises(ValueError, match="v_lo must be < v_hi"):
            build_controller({"type": "adaptive", **band}, track, SIM)


def test_load_config_overlay(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("track:\n  straight: 20.0\nseed: 42\n")
    cfg = load_config(path)
    assert cfg["track"]["straight"] == 20.0
    assert cfg["track"]["radius"] == DEFAULTS["track"]["radius"]
    assert cfg["seed"] == 42


def test_build_track_kinds(tmp_path):
    cfg = load_config()
    assert build_track(cfg).n > 20
    cfg["track"]["kind"] = "rounded_rectangle"
    assert build_track(cfg).n > 20
    cfg["track"]["kind"] = "file"
    cfg["track"]["path"] = None
    with pytest.raises(ValueError):
        build_track(cfg)


def test_config_defaults_come_from_the_dataclasses():
    cfg = load_config()
    assert build_sim_config(cfg) == SimConfig()
    assert build_reward_weights(cfg) == RewardWeights()
    assert build_ppo_config(cfg) == PPOConfig(total_steps=200_000)
    assert cfg["train"]["fixed_gain"] == DEFAULT_FIXED_GAIN
    assert cfg["controller"].items() >= SPEC_DEFAULTS.items()
    # The track section is synthesize_track's keyword defaults, whose speed
    # cap every run without a config uses.
    assert cfg["track"]["v_cap"] == 8.0
    for kind in ("oval", "rounded_rectangle"):
        cfg["track"]["kind"] = kind
        built, synthesized = build_track(cfg), rl.synthesize_track(kind)
        for name in ("x", "y", "kappa", "v_max"):
            assert np.array_equal(getattr(built, name), getattr(synthesized, name))
        assert built.half_width == synthesized.half_width
    # Both CSV loaders default to the same corridor.
    for loader in (rl.load_raceline, rl.load_raceline_file):
        default = inspect.signature(loader).parameters["half_width"].default
        assert default == cfg["track"]["half_width"]
    # The eval section is the lap protocol's defaults, which the lap runner
    # and the sweep take; every CLI sweep refines at 0.01.
    laps_defaults = inspect.signature(run_laps).parameters
    sweep_defaults = inspect.signature(sweep_multipliers).parameters
    for key in ("laps", "max_lap_time"):
        assert laps_defaults[key].default == sweep_defaults[key].default == cfg["eval"][key]
    assert sweep_defaults["refine_step"].default == cfg["eval"]["refine_step"] == 0.01


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def write_cli_config(tmp_path, extra=""):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "track:\n  kind: oval\n  straight: 8.0\n  v_cap: 6.0\n"
        "eval:\n  laps: 2\n  sweep_grid: [0.9, 1.0]\n  refine_step: 0.0\n"
        + extra)
    return path


def test_cli_eval_writes_outputs(tmp_path):
    cfg = write_cli_config(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["eval", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    for name in ("report.txt", "laps.csv", "trace.csv"):
        assert (out / name).exists()
    row = (out / "report.txt").read_text().splitlines()[2].split()
    assert row[0] == "teacher" and row[6] == "100.000"  # teacher share [%]
    assert "held" not in row


def test_cli_eval_missing_checkpoint_fails(tmp_path):
    cfg = write_cli_config(tmp_path, "controller:\n  type: rl\n")
    out = tmp_path / "out"
    code = cli.main(["eval", "--config", str(cfg), "--out", str(out)])
    assert code == 1


def test_cli_sweep_writes_outputs(tmp_path):
    cfg = write_cli_config(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "sweep.csv").exists()
    assert "best multiplier" in (out / "report.txt").read_text()


def test_cli_compare_requires_two_entries(tmp_path):
    cfg = write_cli_config(tmp_path)
    code = cli.main(["compare", "--config", str(cfg),
                     "--out", str(tmp_path / "c")])
    assert code == 2


def test_cli_compare_rejects_a_repeated_name_before_any_lap(tmp_path, capsys):
    extra = ("compare:\n"
             "  - name: pp\n"
             "    controller: {type: teacher}\n"
             "  - name: pp\n"
             "    controller: {type: fixed}\n")
    cfg = write_cli_config(tmp_path, extra)
    out = tmp_path / "out"
    code = cli.main(["compare", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert "repeat: pp" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra, named", [
    ("train", "train:\n  mode: ld_onyl\n", "train.mode 'ld_onyl'; valid: joint, ld-only"),
    ("eval", "sim:\n  dt_contrl: 0.05\n", "unknown sim key(s) dt_contrl"),
    ("train", "reward:\n  speeed: 1.0\n", "unknown reward key(s) speeed"),
    ("eval", "eval: [laps\n", "is not valid YAML"),
    ("train", "train:\n  n_step: 7\n", "unknown train key(s) n_step; valid: mode,"),
    ("eval", "track:\n  radus: 2.0\n", "unknown track key(s) radus; valid: kind,"),
    ("eval", "eval:\n  lap: 3\n", "unknown eval key(s) lap; valid: laps,"),
    ("eval", "controller:\n  gian: 0.5\n", "unknown controller key(s) gian; valid: type,"),
    ("eval", "sim: 3\n", "config section sim must be a mapping, not 3"),
    ("train", "train:\n  mode: [joint]\n", "train.mode ['joint']; valid: joint, ld-only"),
    ("train", "train:\n  eval_every: 0\n", "eval_every must be >= 1"),
    ("train", "train:\n  minibatch_size: 0\n", "minibatch_size must be >= 1"),
    ("train", "train:\n  learning_rate: -0.001\n", "learning_rate must be > 0"),
    ("sweep", "eval:\n  sweep_grid: []\n", "multiplier grid must not be empty"),
    ("eval", "controller: {type: adaptive, v_lo: 5, v_hi: 3}\n", "v_lo must be < v_hi"),
    ("sweep", "controller: {type: adaptive, v_hi: 0.5}\n", "v_lo must be < v_hi"),
    ("eval", "controller: {type: adaptive, v_lo: .nan}\n", "v_lo must be < v_hi"),
    ("train", "reward: {speed: .nan}\n", "speed must be >= 0"),
    ("eval", "controller: {type: fixed, lookahead: .nan}\n", "lookahead must not be NaN"),
    ("sweep", "controller: {type: adaptive, gain: .nan}\n", "gain must not be NaN"),
    ("compare", "compare: {name: pp}\n", "config section compare must be a list"),
    ("compare", "compare:\n  - teacher\n  - fixed\n",
     "config entry compare[0] must be a mapping, not 'teacher'"),
    ("compare", "compare:\n  - {name: a, controler: {type: adaptive}}\n  - {name: b}\n",
     "unknown compare[0] key(s) controler; valid: name, controller"),
    ("compare", "compare:\n  - {name: a}\n  - {name: b, controller: {lookahed: 2.5}}\n",
     "unknown compare[1].controller key(s) lookahed; valid: type,"),
    ("compare", "compare:\n  - {name: a, controller: fixed}\n  - {name: b}\n",
     "config entry compare[0].controller must be a mapping, not 'fixed'"),
    ("compare", "compare:\n  - {name: a}\n  - {name: x/y}\n",
     "compare[1].name must be a file name, not 'x/y'"),
    ("compare", "compare:\n  - {name: ..}\n  - {name: b}\n",
     "compare[0].name must be a file name, not '..'"),
    ("compare", "compare:\n  - {name: a}\n  - {name: ''}\n",
     "compare[1].name must be a file name, not ''"),
    ("compare", "compare:\n  - {name: 7}\n  - {name: b}\n",
     "compare[0].name must be a file name, not 7"),
    ("compare", "compare:\n  - {name: controller_1}\n  - {controller: {type: fixed}}\n",
     "compare entry names repeat: controller_1"),
    ("eval", "controller: {type: mpc, dt: .inf}\n", "dt must be finite"),
    ("eval", "controller: {type: mpc, v_floor: .inf}\n", "v_floor must be finite and >= 0"),
    ("eval", "controller: {type: mpc, max_iter: 2.5}\n", "max_iter must be an integer, got 2.5"),
    ("train", "train: {epochs: 2.5}\n", "epochs must be an integer, got 2.5"),
    ("eval", "track: {radius: .inf}\n", "radius must be finite, got inf"),
], ids=["train_mode", "sim_key", "reward_key", "yaml", "train_key", "track_key",
        "eval_key", "controller_key", "section_type", "train_mode_type",
        "eval_every_zero", "minibatch_zero", "negative_rate", "empty_grid",
        "reversed_band", "reversed_band_sweep", "nan_band", "nan_reward",
        "nan_lookahead", "nan_gain",
        "compare_type", "compare_entry_type", "compare_entry_key", "compare_controller_key",
        "compare_controller_type", "compare_name_path", "compare_name_dotdot",
        "compare_name_empty", "compare_name_type", "compare_name_default_repeat",
        "mpc_infinite_dt", "mpc_infinite_v_floor", "mpc_fractional_max_iter",
        "fractional_epochs", "infinite_radius"])
def test_cli_config_mistake_is_an_error_line(tmp_path, capsys, command, extra, named):
    """Each mistake ends in one ``error:`` line and exit 1, before any run."""
    cfg = write_cli_config(tmp_path, extra)
    code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


def test_seed_is_a_train_only_flag():
    parser = cli.build_parser()
    assert parser.parse_args(["train", "--seed", "1"]).seed == 1
    for command in ("eval", "sweep", "compare"):
        with pytest.raises(SystemExit) as usage_error:
            parser.parse_args([command, "--seed", "1"])
        assert usage_error.value.code == 2


def test_cli_compare_runs(tmp_path):
    extra = ("compare:\n"
             "  - name: teacher\n"
             "    controller: {type: teacher, multiplier: 1.0}\n"
             "  - name: fixed\n"
             "    controller: {type: fixed, lookahead: 1.5, multiplier: 0.9}\n")
    cfg = write_cli_config(tmp_path, extra)
    out = tmp_path / "out"
    code = cli.main(["compare", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(open(out / "compare.csv")))
    assert [r["controller"] for r in rows] == ["teacher", "fixed"]


def test_cli_train_and_eval_checkpoint_roundtrip(tmp_path):
    cfg = write_cli_config(
        tmp_path,
        "train:\n  steps: 1024\n  n_steps: 512\n  minibatch_size: 128\n"
        "  laps: 1\n  max_steps: 400\n")
    out = tmp_path / "train_out"
    code = cli.main(["train", "--config", str(cfg), "--out", str(out),
                     "--mode", "ld-only", "--lr-schedule", "cosine",
                     "--steps", "1024"])
    assert code == 0
    final = out / "final_model.npz"
    assert final.exists()
    assert (out / "metrics.csv").exists()

    from pursuitlab.ppo import load_checkpoint
    bundle = load_checkpoint(final)
    assert bundle.meta["action_mode"] == "ld_only"
    assert bundle.policy.act_dim == 1

    out2 = tmp_path / "eval_out"
    code = cli.main(["eval", "--config", str(cfg), "--out", str(out2),
                     "--checkpoint", str(final)])
    assert code == 0
    report = (out2 / "report.txt").read_text()
    assert report.splitlines()[2].split()[0] == "rl"


def test_rl_controller_gain_constant_in_ld_only(tmp_path, oval_track):
    cfg = write_cli_config(
        tmp_path,
        "train:\n  steps: 512\n  n_steps: 512\n  minibatch_size: 128\n"
        "  laps: 1\n  max_steps: 400\n  fixed_gain: 0.8\n")
    out = tmp_path / "t"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out),
                     "--mode", "ld-only"]) == 0
    from pursuitlab.ppo import load_checkpoint
    bundle = load_checkpoint(out / "final_model.npz")
    controller = PurePursuitAdapter(oval_track, PolicySource(bundle))
    controller.reset()
    from pursuitlab.vehicle import VehicleState
    state = VehicleState(float(oval_track.x[0]), float(oval_track.y[0]), 0.0, 2.0)
    gains = []
    prev_delta = 0.0
    from pursuitlab.vehicle import control_step
    for k in range(60):
        output = controller.step(state, k * SIM.dt_control)
        assert output.mode == "rl"
        gains.append(output.params.gain)
        state, prev_delta = control_step(state, output.command, prev_delta, SIM)
    assert max(abs(g - 0.8) for g in gains) < 1e-12


def test_rl_controller_falls_back_when_starved(tmp_path, oval_track):
    cfg = write_cli_config(
        tmp_path,
        "train:\n  steps: 512\n  n_steps: 512\n  minibatch_size: 128\n"
        "  laps: 1\n  max_steps: 400\n")
    out = tmp_path / "t2"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    from pursuitlab.ppo import load_checkpoint
    from pursuitlab.vehicle import VehicleState
    bundle = load_checkpoint(out / "final_model.npz")
    source = PolicySource(bundle, timeout=0.2)
    controller = PurePursuitAdapter(oval_track, source)
    controller.reset()
    state = VehicleState(float(oval_track.x[0]), float(oval_track.y[0]), 0.0, 2.0)
    out0 = controller.step(state, 0.0)
    assert out0.mode == "rl"
    source.publishing = False  # starve the slot
    modes = [controller.step(state, 0.05 * k).mode for k in range(1, 8)]
    assert "teacher" in modes
    # Within one control step past the timeout the teacher is active.
    assert modes[4] == "teacher"  # t=0.25 > timeout 0.2


def test_teacher_eval_never_triggers_fallback_counting(tmp_path):
    track = small_oval()
    controller = PurePursuitAdapter(track, TeacherSource())
    report = run_laps(controller, track, SIM, laps=1)
    assert report.teacher_fraction == 1.0
    fixed = build_controller({"type": "fixed"}, track, SIM)
    report2 = run_laps(fixed, track, SIM, laps=1)
    assert report2.teacher_steps == 0


def test_v_cmd_respects_unscaled_profile():
    track = small_oval(v_cap=6.0)
    controller = PurePursuitAdapter(track, TeacherSource())
    from pursuitlab.vehicle import VehicleState, control_step
    state = VehicleState(float(track.x[0]), float(track.y[0]), 0.0, 3.0)
    prev_delta = 0.0
    vmax = float(track.v_max.max())
    for k in range(200):
        output = controller.step(state, k * SIM.dt_control)
        assert output.command.v_cmd <= vmax + 1e-12
        state, prev_delta = control_step(state, output.command, prev_delta, SIM)


def test_teacher_completes_ten_laps_at_unit_multiplier():
    track = rl.scale_speeds(
        rl.synthesize_track("oval", straight=10.0, radius=3.0, spacing=0.25,
                            v_cap=8.0, a_lat_max=3.0), 1.0)
    controller = PurePursuitAdapter(track, TeacherSource())
    report = run_laps(controller, track, SIM, laps=10)
    assert report.completed == 10
