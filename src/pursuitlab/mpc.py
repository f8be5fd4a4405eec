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

What is built once, and what per step. The parts of the QP that no step
changes form a read-only :class:`QPTemplate`, built once per frozen
:class:`MPCConfig` (:func:`qp_template`): the cost matrix ``P``, the factor
``-2 w`` of ``q`` on the reference states, the identity, box and rate rows
of ``A`` with their bounds, and the scatter indices of the dynamics
blocks. Once per raceline and wheelbase, a table holds each waypoint's
(x, y, v_max) and feedforward steering ``arctan(L kappa)``; the raceline
holds each waypoint's tangent heading. A step gathers its horizon from
those tables (:func:`build_reference`), computes the A/B/c entries of every
knot on floats in one call (:func:`linearize`), and writes them, the
current state and the reference into copies of the template's ``A``,
``l`` and ``u`` and a fresh ``q`` (:func:`assemble_qp`). The arrays are
byte for byte those of building each knot's matrices with numpy.

MPC state order is (x, y, v, psi) and control order is (a, delta).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import raceline as rl
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
    delta_max: float = SimConfig.delta_max
    a_max: float = SimConfig.a_max
    delta_rate_max: float = SimConfig.delta_rate_max
    wheelbase: float = SimConfig.wheelbase
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
    """Reference (x, y, v, psi) tuples, one per horizon knot, psi unwrapped,
    and the reference (a, delta) controls of every knot but the last."""

    states: np.ndarray  # (horizon+1, 4)
    indices: np.ndarray  # raceline waypoint index per knot
    controls: np.ndarray  # (horizon, 2): zero acceleration, feedforward steering

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.indices = np.asarray(self.indices, dtype=int)
        self.controls = np.asarray(self.controls, dtype=float)


@dataclass(frozen=True)
class QPTemplate:
    """The step-invariant part of one config's QP; every array is read-only.

    ``A``, ``l`` and ``u`` hold the identity, box and rate rows and their
    bounds, with zero dynamics blocks and zero equality bounds. The
    dynamics blocks go to ``A[dynamics_rows, a_cols]`` (-A_t) and
    ``A[dynamics_rows, b_cols]`` (-B_t), index arrays that broadcast to
    (horizon, 4, 4) and (horizon, 4, 2).
    """

    P: np.ndarray
    state_cost: np.ndarray  # -2 w_state: q's factor on the reference states
    A: np.ndarray
    l: np.ndarray
    u: np.ndarray
    dynamics_rows: np.ndarray
    a_cols: np.ndarray
    b_cols: np.ndarray


@functools.lru_cache(maxsize=32)
def qp_template(config: MPCConfig) -> QPTemplate:
    """The QP data shared by every step under ``config``, built once per config.

    Configs that compare equal share one template; they can differ only in
    the sign of a zero weight.
    """
    horizon = config.horizon
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

    m_box = NU * horizon
    m = n_states + m_box + 2 * (horizon - 1)
    a_mat = np.zeros((m, n))
    lower = np.zeros(m)
    upper = np.zeros(m)
    a_mat[:n_states, :n_states] = np.eye(n_states)

    box = slice(n_states, n_states + m_box)
    a_mat[box, n_states:] = np.eye(m_box)
    upper[box] = np.tile((config.a_max, config.delta_max), horizon)
    lower[box] = -upper[box]

    # Two one-sided rows per consecutive steering pair: +-(d_{t+1} - d_t).
    rate = slice(n_states + m_box, m)
    a_mat[rate, n_states + 1::NU] = np.kron(diff, [[1.0], [-1.0]])
    lower[rate] = -np.inf
    upper[rate] = config.delta_rate_max * config.dt

    # Knot t's dynamics rows x_{t+1} - A_t x_t - B_t u_t = c_t.
    knots = np.arange(horizon)[:, None, None]
    template = QPTemplate(
        p_mat, -2.0 * w_state, a_mat, lower, upper,
        dynamics_rows=NX * (knots + 1) + np.arange(NX)[:, None],
        a_cols=NX * knots + np.arange(NX),
        b_cols=n_states + NU * knots + np.arange(NU))
    for array in vars(template).values():
        array.setflags(write=False)
    return template


@functools.lru_cache(maxsize=8)
def _waypoint_table(raceline: rl.Raceline, wheelbase: float):
    """Per-waypoint (x, y, v_max) rows and feedforward steering arctan(L kappa)."""
    xyv = np.column_stack([raceline.x, raceline.y, raceline.v_max])
    steering = np.arctan(wheelbase * raceline.kappa)
    xyv.setflags(write=False)
    steering.setflags(write=False)
    return xyv, steering


def _unwrap(angles: list) -> list:
    """``np.unwrap(angles).tolist()``, operation for operation on floats."""
    unwrapped = [angles[0]]
    correction = 0.0  # running sum of the 2 pi jumps removed so far
    for previous, angle in zip(angles, angles[1:]):
        jump = angle - previous
        if not abs(jump) < math.pi:
            wrapped = (jump + math.pi) % math.tau - math.pi
            if wrapped == -math.pi and jump > 0.0:
                wrapped = math.pi
            correction += wrapped - jump
        unwrapped.append(angle + correction)
    return unwrapped


def build_reference(raceline: rl.Raceline, state: VehicleState,
                    config: MPCConfig) -> HorizonReference:
    """Sample the horizon by advancing waypoints proportional to speed."""
    xyv, steering = _waypoint_table(raceline, config.wheelbase)
    i0 = rl.nearest_index(raceline, state.position)
    v_ref = max(state.v, config.v_floor)
    advance = max(int(round(v_ref * config.dt / raceline.mean_spacing)), 1)
    indices = (i0 + advance * np.arange(config.horizon + 1)) % raceline.n

    states = np.empty((config.horizon + 1, NX))
    states[:, :3] = xyv[indices]
    states[:, 3] = _unwrap([rl.tangent_heading(raceline, i) for i in indices.tolist()])
    controls = np.zeros((config.horizon, NU))
    controls[:, 1] = steering[indices[:-1]]
    return HorizonReference(states, indices, controls)


def linearize(states, controls, wheelbase: float, dt: float):
    """Discrete affine models about reference knots (forward Euler).

    ``states`` holds (x, y, v, psi) and ``controls`` (a, delta) per knot;
    the knots are the ``len(controls)`` first states. Returns stacked
    (A, B, c) of shapes (knots, 4, 4), (knots, 4, 2) and (knots, 4), with
    x_{t+1} = A_t x_t + B_t u_t + c_t exact at knot t:
    A_t ref_x + B_t ref_u + c_t = ref_x + dt f(ref).

    The entries are computed on floats in the order of the matrix form
    A = I + dt J_x, B = dt J_u, c = dt (f - J_x ref_x - J_u ref_u). Each
    ``+ 0.0`` is the contribution of an identity or a zero Jacobian entry,
    which turns a -0.0 into 0.0 as numpy's sums do.
    """
    a_entries, b_entries, c_entries = [], [], []
    for (_, _, v, psi), (accel, delta) in zip(np.asarray(states, dtype=float).tolist(),
                                              np.asarray(controls, dtype=float).tolist()):
        if abs(delta) >= math.pi / 2.0:
            raise ValueError("reference steering must satisfy |delta| < pi/2")
        cos_psi = math.cos(psi)
        sin_psi = math.sin(psi)
        tan_delta = math.tan(delta)
        # The nonzero Jacobian entries besides d(v')/da = 1.
        dx_dpsi = -v * sin_psi
        dy_dpsi = v * cos_psi
        dpsi_dv = tan_delta / wheelbase
        dpsi_ddelta = v / (wheelbase * math.cos(delta) ** 2)

        a_entries += (1.0, 0.0, dt * cos_psi + 0.0, dt * dx_dpsi + 0.0,
                      0.0, 1.0, dt * sin_psi + 0.0, dt * dy_dpsi + 0.0,
                      0.0, 0.0, 1.0, 0.0,
                      0.0, 0.0, dt * dpsi_dv + 0.0, 1.0)
        b_entries += (0.0, 0.0, 0.0, 0.0, dt, 0.0, 0.0, dt * dpsi_ddelta)
        c_entries += (
            dt * (v * cos_psi - (cos_psi * v + dx_dpsi * psi + 0.0)),
            dt * (v * sin_psi - (sin_psi * v + dy_dpsi * psi + 0.0)),
            dt * (accel - (accel + 0.0)),
            dt * (v / wheelbase * tan_delta - (dpsi_dv * v + 0.0)
                  - (dpsi_ddelta * delta + 0.0)),
        )
    return (np.array(a_entries).reshape(-1, NX, NX),
            np.array(b_entries).reshape(-1, NX, NU),
            np.array(c_entries).reshape(-1, NX))


def assemble_qp(reference: HorizonReference, linearization, state: VehicleState,
                config: MPCConfig) -> QPProblem:
    """Stack states and controls into one dense box-constrained QP.

    Decision vector: [x_0 .. x_T, u_0 .. u_{T-1}]. Equality rows (l == u)
    pin x_0 to the current state and encode the affine dynamics
    ``linearization`` = stacked (A, B, c) from :func:`linearize`; inequality
    rows bound each control and each consecutive steering difference (two
    one-sided rows per pair). ``P`` is the config's read-only template
    array; ``q``, ``A``, ``l`` and ``u`` are the step's own.
    """
    horizon = config.horizon
    a_blocks, b_blocks, offsets = linearization
    if not (len(a_blocks) == len(b_blocks) == len(offsets) == horizon):
        raise ValueError("need one linearization per horizon step")
    if reference.states.shape != (horizon + 1, NX):
        raise ValueError("reference length must be horizon + 1")
    template = qp_template(config)
    n_states = NX * (horizon + 1)

    q_vec = np.zeros(template.A.shape[1])
    q_vec[:n_states] = template.state_cost * reference.states.ravel()

    # Current-state psi expressed in the reference's unwrap branch.
    psi_ref = float(reference.states[0, 3])
    psi0 = psi_ref + wrap_angle(state.theta - psi_ref)

    a_mat = template.A.copy()
    a_mat[template.dynamics_rows, template.a_cols] = -a_blocks
    a_mat[template.dynamics_rows, template.b_cols] = -b_blocks
    lower = template.l.copy()
    upper = template.u.copy()
    lower[:NX] = upper[:NX] = (state.x, state.y, state.v, psi0)
    lower[NX:n_states] = upper[NX:n_states] = offsets.ravel()
    return QPProblem(template.P, q_vec, a_mat, lower, upper)


@dataclass
class MPCStepInfo:
    iterations: int = 0  # of the solver that produced the result
    primal_residual: float = float("nan")
    dual_residual: float = float("nan")
    converged: bool = False
    solver: str = ""  # "active_set", or "admm" after a fallback
    # Full-QP primal/dual solution, the next step's warm start when converged.
    solution_x: np.ndarray | None = field(default=None, repr=False, compare=False)
    solution_y: np.ndarray | None = field(default=None, repr=False, compare=False)


class MPCTracker:
    """Stateful wrapper: warm starts between steps and holds on failure.

    ``step`` returns the lap runner's :class:`ControllerOutput`, whose
    ``solver`` is the step's :class:`MPCStepInfo`; ``last_info`` holds the
    same for the latest step.
    """

    def __init__(self, raceline: rl.Raceline, config: MPCConfig = MPCConfig()):
        self.raceline = raceline
        self.config = config
        # Build the step-invariant tables now rather than in the first step.
        qp_template(config)
        _waypoint_table(raceline, config.wheelbase)
        self.reset()

    def reset(self):
        self.prev_command = Command(0.0, 0.0)
        self._warm_x = None
        self._warm_y = None
        self.last_info = MPCStepInfo()

    def step(self, state: VehicleState, now: float = 0.0) -> ControllerOutput:
        cmd, info = mpc_step(self.raceline, state, self.prev_command, self.config,
                             warm=(self._warm_x, self._warm_y))
        self.last_info = info
        if info.converged:
            self._warm_x = info.solution_x
            self._warm_y = info.solution_y
        self.prev_command = cmd
        return ControllerOutput(cmd, None, "mpc", info)


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
    linearization = linearize(reference.states, reference.controls,
                              config.wheelbase, config.dt)
    return reference, assemble_qp(reference, linearization, state, config)


def mpc_step(raceline: rl.Raceline, state: VehicleState, prev_command: Command,
             config: MPCConfig, warm=(None, None)):
    """One MPC solve; returns (Command, MPCStepInfo).

    The first optimized control (a0, delta0) becomes a Command with
    ``v_cmd = v + a0 / config.speed_gain``, so the simulator's P speed loop
    (``speed_gain * (v_cmd - v)``) applies a0 over the next control period.
    On non-convergence the previous command is returned unchanged.
    """
    _, qp = mpc_qp(raceline, state, config)
    info = solve_qp(qp, config, warm)
    if not info.converged:
        return prev_command, info

    u0 = info.solution_x[NX * (config.horizon + 1): NX * (config.horizon + 1) + NU]
    a0, delta0 = float(u0[0]), float(u0[1])
    return Command(delta0, state.v + a0 / config.speed_gain), info
