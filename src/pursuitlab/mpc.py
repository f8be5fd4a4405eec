"""Linear time-varying kinematic MPC raceline tracker.

Each control step: sample a speed-proportional reference horizon from the
raceline, linearize the kinematic bicycle about it (forward Euler, with
curvature-feedforward reference steering), stack the tracking/effort/rate
objective into one dense QP with actuator and rate constraints, and solve
it. The solve condenses the states out through the dynamics rows and runs
the primal active-set solver on the 16 controls (for the default horizon),
warm-started from the previous step's solution and active set; when that
fails (singular KKT matrix, infeasible start, iteration cap, or residuals
on the full QP above ``tol``) warm-started ADMM solves the full QP instead.
The first optimized acceleration becomes a speed command that the
simulator's P speed loop turns back into that acceleration; if no solver
converges the previous command is held.

MPC state order is (x, y, v, psi) and control order is (a, delta).
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import raceline as rl
from .files import atomic_open
from .qp import QPProblem, active_set_solve, admm_solve, condense, residuals
from .vehicle import Command, ControllerOutput, SimConfig, VehicleState, wrap_angle

NX = 4
NU = 2


@dataclass(frozen=True)
class MPCConfig:
    horizon: int = 8
    dt: float = 0.1
    state_weights: tuple = (13.5, 13.5, 5.5, 13.0)
    terminal_weights: tuple = (13.5, 13.5, 5.5, 13.0)
    control_weights: tuple = (0.01, 5.0)
    control_rate_weights: tuple = (0.01, 5.0)
    delta_max: float = 0.4189
    a_max: float = 3.0
    delta_rate_max: float = math.pi  # 180 deg/s
    wheelbase: float = 0.33
    speed_gain: float = SimConfig.speed_gain  # the simulator's P speed-loop gain [1/s]
    v_floor: float = 0.5
    rho: float = 0.1
    tol: float = 1e-6
    max_iter: int = 4000

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.dt <= 0.0:
            raise ValueError("dt must be > 0")
        if self.speed_gain <= 0.0:
            raise ValueError("speed_gain must be > 0")
        for w in (*self.state_weights, *self.terminal_weights,
                  *self.control_weights, *self.control_rate_weights):
            if w < 0.0:
                raise ValueError("weights must be >= 0")


@dataclass
class HorizonReference:
    """Reference (x, y, v, psi) tuples, one per horizon knot, psi unwrapped."""

    states: np.ndarray  # (horizon+1, 4)
    indices: np.ndarray  # raceline waypoint index per knot

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.indices = np.asarray(self.indices, dtype=int)


def build_reference(raceline: rl.Raceline, state: VehicleState,
                    config: MPCConfig) -> HorizonReference:
    """Sample the horizon by advancing waypoints proportional to speed."""
    i0 = rl.nearest_index(raceline, state.position)
    v_ref = max(state.v, config.v_floor)
    advance = max(int(round(v_ref * config.dt / raceline.mean_spacing)), 1)
    indices = (i0 + advance * np.arange(config.horizon + 1)) % raceline.n

    headings = np.array([rl.tangent_heading(raceline, int(i)) for i in indices])
    psi = np.unwrap(headings)
    states = np.column_stack([
        raceline.x[indices],
        raceline.y[indices],
        raceline.v_max[indices],
        psi,
    ])
    return HorizonReference(states, indices)


def linearize(ref_state, ref_control, wheelbase: float, dt: float):
    """Discrete affine model about a reference point (forward Euler).

    Returns (A, B, c) with x_{t+1} = A x_t + B u_t + c exact at the
    reference: A ref_x + B ref_u + c = ref_x + dt f(ref).
    """
    _, _, v, psi = ref_state
    a_ref, delta_ref = ref_control
    if abs(delta_ref) >= math.pi / 2.0:
        raise ValueError("reference steering must satisfy |delta| < pi/2")

    cos_psi = math.cos(psi)
    sin_psi = math.sin(psi)
    tan_delta = math.tan(delta_ref)

    jac_x = np.zeros((NX, NX))
    jac_x[0, 2] = cos_psi
    jac_x[0, 3] = -v * sin_psi
    jac_x[1, 2] = sin_psi
    jac_x[1, 3] = v * cos_psi
    jac_x[3, 2] = tan_delta / wheelbase

    jac_u = np.zeros((NX, NU))
    jac_u[2, 0] = 1.0
    jac_u[3, 1] = v / (wheelbase * math.cos(delta_ref) ** 2)

    f_ref = np.array([
        v * cos_psi,
        v * sin_psi,
        a_ref,
        v / wheelbase * tan_delta,
    ])

    a_mat = np.eye(NX) + dt * jac_x
    b_mat = dt * jac_u
    c_vec = dt * (f_ref - jac_x @ np.asarray(ref_state, dtype=float)
                  - jac_u @ np.asarray(ref_control, dtype=float))
    return a_mat, b_mat, c_vec


def reference_controls(raceline: rl.Raceline, reference: HorizonReference,
                       config: MPCConfig) -> np.ndarray:
    """Zero acceleration plus curvature-feedforward steering per knot."""
    kappa = raceline.kappa[reference.indices[:-1]]
    delta_ff = np.arctan(config.wheelbase * kappa)
    controls = np.zeros((config.horizon, NU))
    controls[:, 1] = delta_ff
    return controls


def assemble_qp(reference: HorizonReference, linearizations, state: VehicleState,
                config: MPCConfig) -> QPProblem:
    """Stack states and controls into one dense box-constrained QP.

    Decision vector: [x_0 .. x_T, u_0 .. u_{T-1}]. Equality rows (l == u)
    pin x_0 to the current state and encode the affine dynamics; inequality
    rows bound each control and each consecutive steering difference (two
    one-sided rows per pair).
    """
    horizon = config.horizon
    if len(linearizations) != horizon:
        raise ValueError("need one linearization per horizon step")
    if reference.states.shape != (horizon + 1, NX):
        raise ValueError("reference length must be horizon + 1")

    n_states = NX * (horizon + 1)
    n = n_states + NU * horizon

    # Cost: 0.5 z' P z + q' z  matching the sum of squared weighted errors.
    w_state = np.concatenate([np.tile(config.state_weights, horizon),
                              config.terminal_weights])
    p_mat = np.diag(2.0 * np.concatenate(
        [w_state, np.tile(config.control_weights, horizon)]))
    # Knot differences u_{t+1} - u_t, penalized by the rate weights.
    diff = np.eye(horizon - 1, horizon, 1) - np.eye(horizon - 1, horizon)
    p_mat[n_states:, n_states:] += np.kron(
        diff.T @ diff, np.diag(2.0 * np.asarray(config.control_rate_weights)))
    q_vec = np.zeros(n)
    q_vec[:n_states] = -2.0 * w_state * reference.states.ravel()

    # Current-state psi expressed in the reference's unwrap branch.
    psi0 = reference.states[0, 3] + wrap_angle(state.theta - reference.states[0, 3])
    x_init = np.array([state.x, state.y, state.v, psi0])

    m_box = NU * horizon
    m = n_states + m_box + 2 * (horizon - 1)
    a_mat = np.zeros((m, n))
    lower = np.empty(m)
    upper = np.empty(m)

    a_mat[:n_states, :n_states] = np.eye(n_states)
    lower[:NX] = upper[:NX] = x_init
    for t, (a_t, b_t, c_t) in enumerate(linearizations):
        rows = slice(NX * (t + 1), NX * (t + 2))
        a_mat[rows, NX * t:NX * (t + 1)] = -a_t
        a_mat[rows, n_states + NU * t:n_states + NU * (t + 1)] = -b_t
        lower[rows] = upper[rows] = c_t

    box = slice(n_states, n_states + m_box)
    a_mat[box, n_states:] = np.eye(m_box)
    upper[box] = np.tile((config.a_max, config.delta_max), horizon)
    lower[box] = -upper[box]

    # Two one-sided rows per consecutive steering pair: +-(d_{t+1} - d_t).
    rate = slice(n_states + m_box, m)
    a_mat[rate, n_states + 1::NU] = np.kron(diff, [[1.0], [-1.0]])
    lower[rate] = -np.inf
    upper[rate] = config.delta_rate_max * config.dt
    return QPProblem(p_mat, q_vec, a_mat, lower, upper)


@dataclass
class MPCStepInfo:
    iterations: int = 0  # of the solver that produced the result
    primal_residual: float = float("nan")
    dual_residual: float = float("nan")
    converged: bool = False
    reference_head: tuple = (float("nan"),) * NX
    solver: str = ""  # "active_set", or "admm" after a fallback
    # Full-QP primal/dual solution, the next step's warm start when converged.
    solution_x: np.ndarray | None = field(default=None, repr=False, compare=False)
    solution_y: np.ndarray | None = field(default=None, repr=False, compare=False)


class MPCTracker:
    """Stateful wrapper: warm starts between steps and holds on failure.

    ``step`` returns the lap runner's :class:`ControllerOutput`, and
    ``last_info`` holds the solver health of the latest step.

    ``log_path`` optionally receives one CSV row per step (reference head,
    applied control, solver, its iterations and residuals) for debugging;
    the file appears at :meth:`close`.
    """

    def __init__(self, raceline: rl.Raceline, config: MPCConfig = MPCConfig(),
                 log_path=None):
        self.raceline = raceline
        self.config = config
        self._log = contextlib.ExitStack()
        self._log_writer = None
        if log_path is not None:
            self._log_writer = csv.writer(self._log.enter_context(atomic_open(log_path)))
            self._log_writer.writerow(
                ["time", "ref_x", "ref_y", "ref_v", "ref_psi", "accel",
                 "delta", "solver", "iterations", "primal_residual",
                 "dual_residual", "converged"])
        self.reset()

    def reset(self):
        self.prev_command = Command(0.0, 0.0)
        self._warm_x = None
        self._warm_y = None
        self.last_info = MPCStepInfo()

    def close(self):
        """Publish the log file, if any; a second call does nothing."""
        self._log.close()

    def step(self, state: VehicleState, now: float = 0.0) -> ControllerOutput:
        cmd, info = mpc_step(self.raceline, state, self.prev_command, self.config,
                             warm=(self._warm_x, self._warm_y))
        self.last_info = info
        if info.converged:
            self._warm_x = info.solution_x
            self._warm_y = info.solution_y
        self.prev_command = cmd
        if self._log_writer is not None:
            accel = (cmd.v_cmd - state.v) * self.config.speed_gain
            self._log_writer.writerow(
                [f"{now:.6f}", *(f"{r:.6f}" for r in info.reference_head),
                 f"{accel:.6f}", f"{cmd.delta:.6f}", info.solver, info.iterations,
                 f"{info.primal_residual:.3e}", f"{info.dual_residual:.3e}",
                 int(info.converged)])
        return ControllerOutput(cmd, None, "mpc")


def solve_qp(qp: QPProblem, config: MPCConfig, warm=(None, None)) -> MPCStepInfo:
    """Solve the MPC QP from ``assemble_qp``; returns the solver health.

    The states are condensed out and the active-set solver runs on the
    controls, warm-started from ``warm`` (the previous full solution): its
    controls are the start point, and its carried, still-tight inequality
    rows the working set. The result stands if its residuals on the full
    QP are below ``config.tol``; otherwise warm-started ADMM solves the
    full QP.
    """
    n_states = NX * (config.horizon + 1)
    try:
        condensed = condense(qp, n_states)
        u0, working = condensed.warm_start(*warm, tol=config.tol)
        result = active_set_solve(condensed.H, condensed.g, condensed.C, condensed.h,
                                  u0, working, max_iter=config.max_iter, tol=config.tol)
    except np.linalg.LinAlgError:
        result = None
    if result is not None and result.converged:
        x, y = condensed.expand(result.x, result.multipliers)
        primal, dual = residuals(qp, x, y)
        if primal < config.tol and dual < config.tol:
            return MPCStepInfo(result.iterations, primal, dual, True,
                               solver="active_set", solution_x=x, solution_y=y)

    fallback = admm_solve(qp, tol_primal=config.tol, tol_dual=config.tol,
                          max_iter=config.max_iter, rho=config.rho,
                          x0=warm[0], y0=warm[1])
    return MPCStepInfo(fallback.iterations, fallback.primal_residual,
                       fallback.dual_residual, fallback.converged, solver="admm",
                       solution_x=fallback.x, solution_y=fallback.y)


def mpc_qp(raceline: rl.Raceline, state: VehicleState, config: MPCConfig):
    """The step's reference horizon and its QP."""
    reference = build_reference(raceline, state, config)
    controls = reference_controls(raceline, reference, config)
    linearizations = [
        linearize(reference.states[t], controls[t], config.wheelbase, config.dt)
        for t in range(config.horizon)
    ]
    return reference, assemble_qp(reference, linearizations, state, config)


def mpc_step(raceline: rl.Raceline, state: VehicleState, prev_command: Command,
             config: MPCConfig, warm=(None, None)):
    """One MPC solve; returns (Command, MPCStepInfo).

    The first optimized control (a0, delta0) becomes a Command with
    ``v_cmd = v + a0 / config.speed_gain``, so the simulator's P speed loop
    (``speed_gain * (v_cmd - v)``) applies a0 over the next control period.
    On non-convergence the previous command is returned unchanged.
    """
    reference, qp = mpc_qp(raceline, state, config)
    info = solve_qp(qp, config, warm)
    info.reference_head = tuple(reference.states[0])
    if not info.converged:
        return prev_command, info

    u0 = info.solution_x[NX * (config.horizon + 1): NX * (config.horizon + 1) + NU]
    a0, delta0 = float(u0[0]), float(u0[1])
    return Command(delta0, state.v + a0 / config.speed_gain), info
