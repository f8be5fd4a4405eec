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
so the active-set multipliers are ADMM's ``y``. A horizon depends on the
state only through its start waypoint and its advance, the waypoints it
steps per knot, so its state-free half is condensed once per (start
waypoint, advance) and kept in a memo per raceline and config
(:func:`mpc_qp`). A memo miss builds the horizon in numpy: the knots'
waypoints and unwrapped tangent headings (:func:`build_reference`), the
A/B/c of every knot at once (:func:`linearize`), and, by one forward
recursion over the knots, the lift of the controls onto the states, the
QP's Hessian and the step's gradient as an affine map of the state
(:func:`assemble_qp`), which also builds and validates the horizon's
:class:`QPProblem` once. The gradient is affine in the state because the
states are: x_k = S_k u + Phi_k s + psi_k. A lap revisits its horizons,
so most steps find theirs in the memo. Each step then forms its gradient
as ``G s + g0``, one 4-column matrix-vector product, and poses its QP as
a shallow copy of the horizon's that carries it; the Hessian, rows and
bounds are the horizon's read-only arrays, not copied or checked again
(:meth:`CondensedHorizon.qp`).

MPC state order is (x, y, v, psi) and control order is (a, delta).
"""

from __future__ import annotations

import copy
import functools
import math
import numbers
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
        for name in ("horizon", "max_iter"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        # Written as `not x > 0` so that a NaN fails too; an infinite dt or
        # v_floor overflows the first step's advance.
        for name in ("dt", "tol", "rho"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be > 0")
            if value == math.inf:
                raise ValueError(f"{name} must be finite")
        if not 0.0 <= self.v_floor < math.inf:
            raise ValueError("v_floor must be finite and >= 0")
        for w in (*self.state_weights, *self.terminal_weights,
                  *self.control_weights, *self.control_rate_weights):
            if not w >= 0.0:
                raise ValueError("weights must be >= 0")
            if w == math.inf:
                raise ValueError("weights must be finite")


@dataclass
class HorizonReference:
    """Reference (x, y, v, psi) tuples, one per horizon knot, psi unwrapped,
    and the reference (a, delta) controls of every knot but the last."""

    states: np.ndarray  # (horizon+1, 4)
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


def _advance(raceline: rl.Raceline, state: VehicleState, config: MPCConfig) -> int:
    """Waypoints between consecutive knots: the distance covered in ``dt``
    at the state's speed, floored at ``v_floor``, and at least one."""
    v_ref = max(state.v, config.v_floor)
    return max(int(round(v_ref * config.dt / raceline.mean_spacing)), 1)


def build_reference(raceline: rl.Raceline, state: VehicleState, index: int,
                    config: MPCConfig) -> HorizonReference:
    """Sample the horizon by advancing waypoints proportional to speed.

    The horizon starts at ``index``, the waypoint nearest the state.
    """
    advance = _advance(raceline, state, config)
    indices = (index + advance * np.arange(config.horizon + 1)) % raceline.n
    headings = np.unwrap([rl.tangent_heading(raceline, i) for i in indices.tolist()])
    states = np.column_stack([raceline.x[indices], raceline.y[indices],
                              raceline.v_max[indices], headings])
    controls = np.zeros((config.horizon, NU))
    controls[:, 1] = np.arctan(config.plant.wheelbase * raceline.kappa[indices[:-1]])
    return HorizonReference(states, controls)


def linearize(states, controls, wheelbase: float, dt: float):
    """Discrete affine models about reference knots (forward Euler).

    ``states`` holds (x, y, v, psi) and ``controls`` (a, delta) per knot;
    the knots are the ``len(controls)`` first states. Returns stacked
    (A, B, c) of shapes (knots, 4, 4), (knots, 4, 2) and (knots, 4), with
    x_{t+1} = A_t x_t + B_t u_t + c_t exact at knot t:
    A_t ref_x + B_t ref_u + c_t = ref_x + dt f(ref), where
    A = I + dt J_x, B = dt J_u and c = dt (f - J_x ref_x - J_u ref_u).

    The trigonometry is taken on floats, with ``math`` and ``** 2``:
    numpy's ``tan`` and square round some inputs differently, and the
    entries must keep the bytes of the per-knot form.
    """
    controls = np.asarray(controls, dtype=float)
    states = np.asarray(states, dtype=float)[:len(controls)]
    v, psi = states[:, 2], states[:, 3]
    accel, delta = controls.T
    if np.any(np.abs(delta) >= math.pi / 2.0):
        raise ValueError("reference steering must satisfy |delta| < pi/2")
    cos_psi, sin_psi, tan_delta, cos2_delta = np.array(
        [(math.cos(p), math.sin(p), math.tan(d), math.cos(d) ** 2)
         for p, d in zip(psi.tolist(), delta.tolist())]).reshape(-1, 4).T
    jac_x = np.zeros((len(controls), NX, NX))
    jac_x[:, 0, 2] = cos_psi
    jac_x[:, 0, 3] = -v * sin_psi
    jac_x[:, 1, 2] = sin_psi
    jac_x[:, 1, 3] = v * cos_psi
    jac_x[:, 3, 2] = tan_delta / wheelbase
    jac_u = np.zeros((len(controls), NX, NU))
    jac_u[:, 2, 0] = 1.0
    jac_u[:, 3, 1] = v / (wheelbase * cos2_delta)
    f = np.column_stack([v * cos_psi, v * sin_psi, accel, v / wheelbase * tan_delta])
    return (np.eye(NX) + dt * jac_x, dt * jac_u,
            dt * (f - (jac_x @ states[:, :, None])[:, :, 0]
                  - (jac_u @ controls[:, :, None])[:, :, 0]))


@dataclass(frozen=True)
class CondensedHorizon:
    """The state-free half of one horizon's QP; every array is read-only.

    The step's gradient is affine in its state s = (x, y, v, psi):
    q = G s + g0 (:meth:`qp`), with ``G`` the gradient map and ``g0`` the
    gradient offset that :func:`assemble_qp` condensed from the knots'
    A and c. ``psi_ref`` is the reference heading of knot 0, whose unwrap
    branch the state's heading is taken in. ``problem`` is the horizon's
    QP, validated once, with a zero gradient: ``P`` the whole Hessian (the
    tracking cost plus the template's effort and rate cost), the rows
    ``A = C`` and bounds ``u = h`` of the template and ``l = -inf``. Each
    step's QP shares those arrays and carries its own gradient.
    """

    psi_ref: float
    G: np.ndarray  # (2 horizon, 4)
    g0: np.ndarray  # (2 horizon,)
    problem: QPProblem

    def qp(self, state: VehicleState) -> QPProblem:
        """The QP from ``state``: a shallow copy of ``problem`` with
        ``q = G s + g0``, the step's own array, where s is the state with its
        heading in the reference's unwrap branch. ``P``, ``A``, ``l`` and
        ``u`` are the horizon's read-only arrays, checked once when the
        horizon was condensed.
        """
        psi_ref = self.psi_ref
        step = copy.copy(self.problem)
        step.q = self.G.dot((state.x, state.y, state.v,
                             psi_ref + wrap_angle(state.theta - psi_ref))) + self.g0
        return step


def assemble_qp(reference: HorizonReference, linearization,
                config: MPCConfig) -> CondensedHorizon:
    """Condense the horizon's QP over the controls u = [u_0 .. u_{T-1}].

    The states follow from the state s and ``linearization`` = stacked
    (A, B, c) from :func:`linearize` by one forward recursion,
    x_k = S_k u + Phi_k s + psi_k, with S_0 = 0, S_{k+1} = A_k S_k + B_k E_k
    (E_k picks u_k out of u), Phi_0 = I, Phi_{k+1} = A_k Phi_k, psi_0 = 0
    and psi_{k+1} = A_k psi_k + c_k. The tracking cost
    sum_k (x_k - r_k)' W_k (x_k - r_k) then adds H = 2 sum_k S_k' W_k S_k
    to the template's effort and rate cost, and the gradient
    2 sum_k S_k' W_k (Phi_k s + psi_k - r_k) = G s + g0, with
    G = 2 sum_k S_k' W_k Phi_k and g0 = 2 sum_k S_k' W_k (psi_k - r_k);
    no state enters H, G or g0. H, the template's rows and bounds and
    ``l = -inf`` form the horizon's :class:`QPProblem`, validated here once
    for all of its steps.
    """
    horizon = config.horizon
    a_blocks, b_blocks, c_blocks = linearization
    if not (len(a_blocks) == len(b_blocks) == len(c_blocks) == horizon):
        raise ValueError("need one linearization per horizon step")
    if reference.states.shape != (horizon + 1, NX):
        raise ValueError("reference length must be horizon + 1")
    template = qp_template(config)

    lift = np.zeros((horizon + 1, NX, NU * horizon))
    # [Phi_k | psi_k] per knot: without controls the states are Phi_k s + psi_k.
    free = np.zeros((horizon + 1, NX, NX + 1))
    free[0, :, :NX] = np.eye(NX)
    for k in range(horizon):
        lift[k + 1] = a_blocks[k] @ lift[k]
        lift[k + 1, :, NU * k:NU * (k + 1)] = b_blocks[k]
        free[k + 1] = a_blocks[k] @ free[k]
        free[k + 1, :, NX] += c_blocks[k]
    lift = lift.reshape(-1, NU * horizon)
    weighted = template.state_weights[:, None] * lift
    tracking = lift.T @ weighted
    problem = QPProblem(tracking + tracking.T + template.P, np.zeros(NU * horizon),
                        template.C, np.full_like(template.h, -np.inf), template.h)
    free = free.reshape(-1, NX + 1)
    free[:, NX] -= np.asarray(reference.states, dtype=float).ravel()  # psi_k - r_k
    gradient = 2.0 * (weighted.T @ free)
    condensed = CondensedHorizon(float(reference.states[0, 3]),
                                 np.ascontiguousarray(gradient[:, :NX]),
                                 np.ascontiguousarray(gradient[:, NX]), problem)
    for array in (condensed.G, condensed.g0, problem.P, problem.q, problem.l):
        array.setflags(write=False)
    return condensed


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
        # Build the step-invariant template now rather than in the first step.
        qp_template(config)
        self.reset()

    def reset(self):
        self.index = None  # the last step's waypoint, the next query's hint
        self.prev_command = Command(0.0, 0.0)
        # The last converged step's info, whose solution warm-starts the next.
        self.last_info = self._warm = MPCStepInfo()

    def step(self, state: VehicleState, now: float = 0.0) -> ControllerOutput:
        self.index = rl.nearest_index(self.raceline, state.position, near=self.index)
        cmd, info = mpc_step(self.raceline, state, self.index, self.prev_command,
                             self.config,
                             warm=(self._warm.solution_x, self._warm.solution_y))
        self.last_info = info
        if info.converged:
            self._warm = info
        self.prev_command = cmd
        return ControllerOutput(cmd, None, "mpc", info)


def solve_qp(qp: QPProblem, config: MPCConfig, warm=(None, None)) -> MPCStepInfo:
    """Solve the MPC QP from ``assemble_qp``; returns the solver health.

    The QP's rows are one-sided (``l = -inf``), so both solvers take them as
    they are and share their multipliers. The active-set solver runs on
    ``A x <= u``, warm-started from ``warm`` (the previous step's controls
    and row multipliers): the controls are the start point, and the rows
    that carry a multiplier and are still tight the working set. The result
    stands if its residuals on ``qp`` (:func:`residuals`: the largest bound
    violation and stationarity error) are below ``config.tol``; otherwise
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


@functools.lru_cache(maxsize=8)
def _horizon_memo(raceline: rl.Raceline, config: MPCConfig) -> dict:
    """(start waypoint, advance) -> :class:`CondensedHorizon` for one
    raceline and config; :func:`_condensed_horizon` fills it."""
    return {}


def _condensed_horizon(raceline: rl.Raceline, state: VehicleState, index: int,
                       config: MPCConfig) -> CondensedHorizon:
    """The memo's entry for the state's horizon, condensed on first use."""
    memo = _horizon_memo(raceline, config)
    key = (index, _advance(raceline, state, config))
    condensed = memo.get(key)
    if condensed is None:
        reference = build_reference(raceline, state, index, config)
        condensed = memo[key] = assemble_qp(
            reference, linearize(reference.states, reference.controls,
                                 config.plant.wheelbase, config.dt), config)
    return condensed


def mpc_qp(raceline: rl.Raceline, state: VehicleState, index: int,
           config: MPCConfig) -> QPProblem:
    """The step's QP; ``index`` as in :func:`build_reference`.

    Equal to ``assemble_qp(reference, linearize(...), config).qp(state)``
    of the state's :func:`build_reference`, byte for byte, with the
    state-free half memoized per (raceline, config, index, advance).
    """
    return _condensed_horizon(raceline, state, index, config).qp(state)


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
