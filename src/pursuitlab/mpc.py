"""Linear time-varying kinematic MPC raceline tracker.

Each control step: sample a speed-proportional reference horizon from the
raceline, linearize the kinematic bicycle about it (forward Euler, with
curvature-feedforward reference steering), and pose the tracking/effort/rate
objective as one dense QP over the controls alone, 16 of them for the
default horizon: the states follow from the current state and the controls
through the linearized dynamics. The QP's rows are the actuator and rate
limits. The primal active-set solver solves it, warm-started from the
previous step's controls and active set; when that fails (singular KKT
matrix, infeasible start, iteration cap, or residuals above ``tol``)
warm-started ADMM solves the same QP. The first optimized acceleration
becomes a speed command that the simulator's P speed loop turns back into
that acceleration; if no solver converges the previous command is held.

The MPC plans for the plant that the simulator runs: ``MPCConfig.plant``
is a :class:`SimConfig`, whose wheelbase, actuator and rate limits and P
speed-loop gain the QP and the command law read.

What is built once, and what per step. The parts of the QP that no step
changes form a read-only :class:`QPTemplate`, built once per frozen
:class:`MPCConfig` (:func:`qp_template`): the effort and rate cost, the
state weights, and the box and rate rows as one-sided rows ``C u <= h``.
Both solvers read those rows: the QP poses them to ADMM with ``l = -inf``,
so the active-set multipliers are ADMM's ``y``. Once per raceline and
wheelbase, a table holds each waypoint's (x, y, v_max) and feedforward
steering ``arctan(L kappa)``; the raceline holds each waypoint's tangent
heading. A step gathers its horizon from those tables
(:func:`build_reference`), computes the A/B/c entries of every knot on
floats in one call (:func:`linearize`), and condenses them into the QP's
cost by a forward recursion over the knots (:func:`assemble_qp`).

MPC state order is (x, y, v, psi) and control order is (a, delta).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import raceline as rl
from .qp import QPProblem, active_set_solve, admm_solve, residuals
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
    v_floor: float = 0.5
    rho: float = 0.1
    tol: float = 1e-6
    max_iter: int = 4000
    plant: SimConfig = SimConfig()  # validated by SimConfig itself

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not self.dt > 0.0:
            raise ValueError("dt must be > 0")
        if not self.tol > 0.0:
            raise ValueError("tol must be > 0")
        if not self.rho > 0.0:
            raise ValueError("rho must be > 0")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be >= 1")
        for w in (*self.state_weights, *self.terminal_weights,
                  *self.control_weights, *self.control_rate_weights):
            if not w >= 0.0:
                raise ValueError("weights must be >= 0")


@dataclass
class HorizonReference:
    """Reference (x, y, v, psi) tuples, one per horizon knot, psi unwrapped,
    and the reference (a, delta) controls of every knot but the last."""

    states: np.ndarray  # (horizon+1, 4)
    indices: np.ndarray  # raceline waypoint index per knot
    controls: np.ndarray  # (horizon, 2): zero acceleration, feedforward steering


@dataclass(frozen=True)
class QPTemplate:
    """The step-invariant part of one config's QP; every array is read-only.

    ``P`` is the control effort and rate cost, to which a step adds its
    tracking cost, and ``state_weights`` the weight of each state of the
    horizon, knot by knot. ``C u <= h`` are the box and rate rows on the
    controls, one row per finite bound: the upper box rows, two rows per
    consecutive steering pair, then the lower box rows.
    """

    P: np.ndarray
    state_weights: np.ndarray
    C: np.ndarray
    h: np.ndarray


@functools.lru_cache(maxsize=32)
def qp_template(config: MPCConfig) -> QPTemplate:
    """The QP data shared by every step under ``config``, built once per config.

    Configs that compare equal share one template; they can differ only in
    the sign of a zero weight.
    """
    horizon = config.horizon
    plant = config.plant
    n = NU * horizon
    # Knot differences u_{t+1} - u_t, penalized by the rate weights.
    diff = np.eye(horizon - 1, horizon, 1) - np.eye(horizon - 1, horizon)
    p_mat = np.diag(2.0 * np.tile(config.control_weights, horizon)) + np.kron(
        diff.T @ diff, np.diag(2.0 * np.asarray(config.control_rate_weights)))

    # Upper box rows on every control, +-(d_{t+1} - d_t) for each
    # consecutive steering pair, then the lower box rows; + 0.0 turns the
    # -0.0 entries that negation leaves in the rate and lower rows into 0.0.
    rows = np.vstack([np.eye(n), np.zeros((2 * (horizon - 1), n))])
    rows[n:, 1::NU] = np.kron(diff, [[1.0], [-1.0]])
    bound = np.concatenate([np.tile((plant.a_max, plant.delta_max), horizon),
                            np.full(2 * (horizon - 1), plant.delta_rate_max * config.dt)])
    state_weights = np.array([*config.state_weights] * horizon + [*config.terminal_weights],
                             dtype=float)
    template = QPTemplate(p_mat, state_weights, np.vstack([rows, -rows[:n]]) + 0.0,
                          np.concatenate([bound, bound[:n]]))
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


def build_reference(raceline: rl.Raceline, state: VehicleState, index: int,
                    config: MPCConfig) -> HorizonReference:
    """Sample the horizon by advancing waypoints proportional to speed.

    The horizon starts at ``index``, the waypoint nearest the state.
    """
    xyv, steering = _waypoint_table(raceline, config.plant.wheelbase)
    v_ref = max(state.v, config.v_floor)
    advance = max(int(round(v_ref * config.dt / raceline.mean_spacing)), 1)
    indices = (index + advance * np.arange(config.horizon + 1)) % raceline.n

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
    """The step's QP over the controls u = [u_0 .. u_{T-1}].

    The states follow from the current state and ``linearization`` =
    stacked (A, B, c) from :func:`linearize` by the forward recursion
    x_k = S_k u + o_k, with S_0 = 0, o_0 the current state,
    S_{k+1} = A_k S_k + B_k E_k (E_k picks u_k out of u) and
    o_{k+1} = A_k o_k + c_k. The tracking cost sum_k (x_k - r_k)' W_k (x_k - r_k)
    then adds H = 2 sum_k S_k' W_k S_k to the template's effort and rate
    cost, and g = 2 sum_k S_k' W_k (o_k - r_k). The rows ``A = C`` and the
    bounds ``u = h`` are the template's read-only arrays, with ``l = -inf``;
    ``P``, ``q`` and ``l`` are the step's own.
    """
    horizon = config.horizon
    a_blocks, b_blocks, offsets = linearization
    if not (len(a_blocks) == len(b_blocks) == len(offsets) == horizon):
        raise ValueError("need one linearization per horizon step")
    if reference.states.shape != (horizon + 1, NX):
        raise ValueError("reference length must be horizon + 1")
    template = qp_template(config)

    lift = np.zeros((horizon + 1, NX, NU * horizon))
    offset = np.empty((horizon + 1, NX))
    # Current-state psi expressed in the reference's unwrap branch.
    psi_ref = float(reference.states[0, 3])
    offset[0] = (state.x, state.y, state.v, psi_ref + wrap_angle(state.theta - psi_ref))
    for k in range(horizon):
        lift[k + 1] = a_blocks[k] @ lift[k]
        lift[k + 1, :, NU * k:NU * (k + 1)] = b_blocks[k]
        offset[k + 1] = a_blocks[k] @ offset[k] + offsets[k]
    lift = lift.reshape(-1, NU * horizon)
    weighted = template.state_weights[:, None] * lift
    tracking = lift.T @ weighted
    return QPProblem(tracking + tracking.T + template.P,
                     2.0 * (weighted.T @ (offset.ravel() - reference.states.ravel())),
                     template.C, np.full_like(template.h, -np.inf), template.h)


@dataclass
class MPCStepInfo:
    iterations: int = 0  # of the solver that produced the result
    primal_residual: float = float("nan")
    dual_residual: float = float("nan")
    converged: bool = False
    solver: str = ""  # "active_set", or "admm" after a fallback
    # Of the active-set solver, which runs first on every step; 0 if it raised.
    kkt_solves: int = 0
    # The QP's controls and row multipliers, the next step's warm start
    # when converged.
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
        _waypoint_table(raceline, config.plant.wheelbase)
        self.reset()

    def reset(self):
        self.index = None  # the last step's waypoint, the next query's hint
        self.prev_command = Command(0.0, 0.0)
        self._warm_x = None
        self._warm_y = None
        self.last_info = MPCStepInfo()

    def step(self, state: VehicleState, now: float = 0.0) -> ControllerOutput:
        self.index = rl.nearest_index(self.raceline, state.position, near=self.index)
        cmd, info = mpc_step(self.raceline, state, self.index, self.prev_command,
                             self.config, warm=(self._warm_x, self._warm_y))
        self.last_info = info
        if info.converged:
            self._warm_x = info.solution_x
            self._warm_y = info.solution_y
        self.prev_command = cmd
        return ControllerOutput(cmd, None, "mpc", info)


def solve_qp(qp: QPProblem, config: MPCConfig, warm=(None, None)) -> MPCStepInfo:
    """Solve the MPC QP from ``assemble_qp``; returns the solver health.

    The QP's rows are one-sided (``l = -inf``), so both solvers take them as
    they are and share their multipliers. The active-set solver runs on
    ``A x <= u``, warm-started from ``warm`` (the previous step's controls
    and row multipliers): the controls are the start point, and the rows
    that carry a multiplier and are still tight the working set. The result
    stands if its residuals on ``qp`` are below ``config.tol``; otherwise
    warm-started ADMM solves ``qp``.
    """
    x0, y0 = warm
    u0, working = np.zeros(qp.n), []
    if x0 is not None:
        tight = qp.u - qp.A @ x0 <= config.tol
        u0, working = x0, np.flatnonzero((y0 > 0.0) & tight).tolist()
    try:
        result = active_set_solve(qp.P, qp.q, qp.A, qp.u, u0, working,
                                  max_iter=config.max_iter, tol=config.tol)
    except np.linalg.LinAlgError:
        result = None
    kkt_solves = 0 if result is None else result.iterations
    if result is not None and result.converged:
        primal, dual = residuals(qp, result.x, result.multipliers)
        if primal < config.tol and dual < config.tol:
            return MPCStepInfo(result.iterations, primal, dual, True, solver="active_set",
                               kkt_solves=kkt_solves, solution_x=result.x,
                               solution_y=result.multipliers)

    fallback = admm_solve(qp, tol_primal=config.tol, tol_dual=config.tol,
                          max_iter=config.max_iter, rho=config.rho, x0=x0, y0=y0)
    return MPCStepInfo(fallback.iterations, fallback.primal_residual,
                       fallback.dual_residual, fallback.converged, solver="admm",
                       kkt_solves=kkt_solves, solution_x=fallback.x, solution_y=fallback.y)


def mpc_qp(raceline: rl.Raceline, state: VehicleState, index: int,
           config: MPCConfig) -> QPProblem:
    """The step's QP; ``index`` as in :func:`build_reference`."""
    reference = build_reference(raceline, state, index, config)
    linearization = linearize(reference.states, reference.controls,
                              config.plant.wheelbase, config.dt)
    return assemble_qp(reference, linearization, state, config)


def mpc_step(raceline: rl.Raceline, state: VehicleState, index: int,
             prev_command: Command, config: MPCConfig, warm=(None, None)):
    """One MPC solve from ``state``, whose nearest waypoint is ``index``;
    returns (Command, MPCStepInfo).

    The first optimized control (a0, delta0) becomes a Command with
    ``v_cmd = v + a0 / speed_gain`` (of ``config.plant``), so the simulator's
    P speed loop (``speed_gain * (v_cmd - v)``) applies a0 over the next
    control period.
    On non-convergence the previous command is returned unchanged.
    """
    info = solve_qp(mpc_qp(raceline, state, index, config), config, warm)
    if not info.converged:
        return prev_command, info

    a0, delta0 = info.solution_x[:NU].tolist()
    return Command(delta0, state.v + a0 / config.plant.speed_gain), info
