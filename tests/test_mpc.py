import csv
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pursuitlab import mpc, qp as qp_module, raceline as rl
from pursuitlab.evaluation import run_laps
from pursuitlab.mpc import (HorizonReference, MPCConfig, MPCTracker, NU, NX,
                            assemble_qp, build_reference, linearize, mpc_qp,
                            mpc_step, qp_template)
from pursuitlab.qp import QPProblem, admm_solve, residuals
from pursuitlab.vehicle import (Command, SimConfig, VehicleState, control_step,
                                speed_controller, wrap_angle)
from test_qp import assert_matches_the_reference, reference_active_set_solve


def uniform_speed_oval(straight=30.0, radius=3.0, v=2.5):
    # v_cap below the arc limit keeps the whole profile constant.
    return rl.synthesize_track("oval", straight=straight, radius=radius,
                               spacing=0.25, v_cap=v, a_lat_max=3.0)


def heldout_rect():
    """The held-out rounded rectangle of configs/heldout_rect.yaml, at x1.0."""
    return rl.synthesize_track("rounded_rectangle", length_x=14.0, length_y=5.0,
                               radius=2.0, spacing=0.25, v_cap=12.0, a_lat_max=3.0)


# ----------------------------------------------------------------------
# Reference construction
# ----------------------------------------------------------------------

def assert_knots_at_waypoints(ref, track, index, advance):
    """Knot k of ``ref`` sits on waypoint (index + k advance) mod n."""
    waypoints = (index + advance * np.arange(len(ref.states))) % track.n
    np.testing.assert_array_equal(ref.states[:, :2],
                                  np.column_stack([track.x[waypoints], track.y[waypoints]]))


def test_reference_advances_with_speed_floor():
    track = uniform_speed_oval()
    config = MPCConfig()
    state = VehicleState(float(track.x[0]), float(track.y[0]), 0.0, 0.0)
    index = rl.nearest_index(track, state.position)
    ref = build_reference(track, state, index, config)
    assert ref.states.shape == (config.horizon + 1, NX)
    # Standing still, the horizon still advances one waypoint per knot.
    assert_knots_at_waypoints(ref, track, index, 1)


def test_reference_advance_is_speed_proportional():
    track = uniform_speed_oval()
    config = MPCConfig()
    state = VehicleState(float(track.x[0]), float(track.y[0]), 0.0, 5.0)
    index = rl.nearest_index(track, state.position)
    ref = build_reference(track, state, index, config)
    expected = int(round(5.0 * config.dt / track.mean_spacing))  # 2
    assert expected == 2
    assert_knots_at_waypoints(ref, track, index, expected)


def test_reference_heading_constant_on_straight():
    track = uniform_speed_oval(straight=40.0)
    config = MPCConfig()
    state = VehicleState(1.0, 0.0, 0.0, 2.5)
    ref = build_reference(track, state, rl.nearest_index(track, state.position), config)
    np.testing.assert_allclose(ref.states[:, 3], ref.states[0, 3], atol=1e-12)


def test_reference_heading_is_unwrapped_through_turns():
    track = uniform_speed_oval(straight=5.0)
    config = MPCConfig(horizon=40)
    i = int(np.argmax(track.kappa != 0.0))  # just inside the first arc
    state = VehicleState(float(track.x[i]), float(track.y[i]), 0.0, 8.0)
    ref = build_reference(track, state, rl.nearest_index(track, state.position), config)
    psi = ref.states[:, 3]
    assert np.all(np.abs(np.diff(psi)) < math.pi / 2)


# ----------------------------------------------------------------------
# Linearization
# ----------------------------------------------------------------------

def kinematics(state, control, wheelbase):
    x, y, v, psi = state
    a, delta = control
    return np.array([v * math.cos(psi), v * math.sin(psi), a,
                     v / wheelbase * math.tan(delta)])


def one_knot(ref_state, ref_control, wheelbase, dt):
    """(A, B, c) of a one-knot horizon."""
    a_mat, b_mat, c_vec = linearize([ref_state], [ref_control], wheelbase, dt)
    return a_mat[0], b_mat[0], c_vec[0]


def test_linearize_at_rest():
    a_mat, b_mat, c_vec = one_knot((0.0, 0.0, 0.0, 0.0), (0.0, 0.0), 0.33, 0.1)
    # Acceleration feeds speed; steering cannot turn a stationary vehicle.
    assert b_mat[2, 0] == pytest.approx(0.1)
    assert b_mat[3, 1] == 0.0
    np.testing.assert_allclose(b_mat[[0, 1, 3], 0], 0.0, atol=1e-15)
    np.testing.assert_allclose(b_mat[:3, 1], 0.0, atol=1e-15)
    # Hand Jacobian at v=0, psi=0: only the x row couples (to v, cos(psi)=1).
    expected_a = np.eye(NX)
    expected_a[0, 2] = 0.1
    np.testing.assert_allclose(a_mat, expected_a, atol=1e-12)
    np.testing.assert_allclose(c_vec, 0.0, atol=1e-12)


def test_linearize_heading_coupling():
    a_mat, _, _ = one_knot((0.0, 0.0, 1.0, 0.0), (0.0, 0.0), 0.33, 0.1)
    assert a_mat[1, 3] == pytest.approx(0.1 * 1.0)  # dy/dpsi = v cos(psi) dt
    assert a_mat[0, 3] == pytest.approx(0.0, abs=1e-15)


def test_linearize_affine_consistency():
    rng = np.random.default_rng(0)
    for _ in range(50):
        ref_x = rng.uniform(-5, 5, size=NX)
        ref_u = np.array([rng.uniform(-3, 3), rng.uniform(-0.4, 0.4)])
        a_mat, b_mat, c_vec = one_knot(ref_x, ref_u, 0.33, 0.1)
        lhs = a_mat @ ref_x + b_mat @ ref_u + c_vec
        rhs = ref_x + 0.1 * kinematics(ref_x, ref_u, 0.33)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_linearize_matches_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(20):
        ref_x = rng.uniform(-2, 2, size=NX)
        ref_u = np.array([rng.uniform(-2, 2), rng.uniform(-0.3, 0.3)])
        a_mat, b_mat, _ = one_knot(ref_x, ref_u, 0.33, 0.1)
        for j in range(NX):
            dx = np.zeros(NX)
            dx[j] = h
            fd = (kinematics(ref_x + dx, ref_u, 0.33)
                  - kinematics(ref_x - dx, ref_u, 0.33)) / (2 * h)
            np.testing.assert_allclose((a_mat[:, j] - np.eye(NX)[:, j]) / 0.1,
                                       fd, atol=1e-6)
        for j in range(NU):
            du = np.zeros(NU)
            du[j] = h
            fd = (kinematics(ref_x, ref_u + du, 0.33)
                  - kinematics(ref_x, ref_u - du, 0.33)) / (2 * h)
            np.testing.assert_allclose(b_mat[:, j] / 0.1, fd, atol=1e-6)


def test_linearize_rejects_steep_reference_steering():
    with pytest.raises(ValueError):
        one_knot((0, 0, 1.0, 0.0), (0.0, math.pi / 2), 0.33, 0.1)
    # Any knot of a horizon.
    with pytest.raises(ValueError):
        linearize(np.zeros((3, NX)), [(0.0, 0.1), (0.0, -math.pi / 2)], 0.33, 0.1)


# ----------------------------------------------------------------------
# QP assembly
# ----------------------------------------------------------------------

def one_step_problem(track, state, config):
    ref = build_reference(track, state, rl.nearest_index(track, state.position), config)
    return ref, linearize(ref.states, ref.controls, config.plant.wheelbase, config.dt)


def test_assemble_decision_dimension_horizon_one():
    track = uniform_speed_oval()
    config = MPCConfig(horizon=1)
    state = VehicleState(float(track.x[0]), float(track.y[0]), 0.0, 2.5)
    ref, lins = one_step_problem(track, state, config)
    qp = assemble_qp(ref, lins, config).qp(state)
    assert qp.n == NU * 1  # the controls alone


def test_assemble_rate_row_count():
    track = uniform_speed_oval()
    config = MPCConfig(horizon=8)
    state = VehicleState(float(track.x[0]), float(track.y[0]), 0.0, 2.5)
    ref, lins = one_step_problem(track, state, config)
    qp = assemble_qp(ref, lins, config).qp(state)
    m_box = 2 * NU * config.horizon  # an upper and a lower row per control
    assert qp.m - m_box == 2 * (config.horizon - 1)


def test_assemble_zero_state_weights_give_zero_controls():
    track = uniform_speed_oval()
    config = MPCConfig(state_weights=(0, 0, 0, 0), terminal_weights=(0, 0, 0, 0))
    state = VehicleState(float(track.x[2]), float(track.y[2]), 0.0, 2.5)
    ref, lins = one_step_problem(track, state, config)
    qp = assemble_qp(ref, lins, config).qp(state)
    result = admm_solve(qp)
    assert result.converged
    np.testing.assert_allclose(result.x, 0.0, atol=1e-5)


def test_assemble_rejects_wrong_linearization_count():
    track = uniform_speed_oval()
    config = MPCConfig()
    state = VehicleState(float(track.x[0]), float(track.y[0]), 0.0, 2.5)
    ref, lins = one_step_problem(track, state, config)
    with pytest.raises(ValueError):
        assemble_qp(ref, tuple(blocks[:-1] for blocks in lins), config)


weights = st.tuples(*[st.floats(0.0, 50.0)] * NX)
control_weights = st.tuples(*[st.floats(0.0, 50.0)] * NU)


def rollout_cost(controls, start, lins, ref_states, config):
    """The MPC objective written out from its definition: the states rolled
    forward from ``start`` through the knots' (A, B, c)."""
    us = controls.reshape(-1, NU)
    xs = [start]
    for (a_t, b_t, c_t), u_t in zip(lins, us):
        xs.append(a_t @ xs[-1] + b_t @ u_t + c_t)
    w = np.array([config.state_weights] * len(us) + [config.terminal_weights])
    return (np.sum(w * (np.array(xs) - ref_states) ** 2)
            + np.sum(np.array(config.control_weights) * us ** 2)
            + np.sum(np.array(config.control_rate_weights) * np.diff(us, axis=0) ** 2))


@settings(max_examples=60, deadline=None)
@given(horizon=st.integers(1, 10), state_w=weights, terminal_w=weights,
       control_w=control_weights, rate_w=control_weights,
       seed=st.integers(0, 2**32 - 1))
@example(horizon=1, state_w=(5e-324, 0.0, 0.0, 0.0), terminal_w=(0.0,) * NX,
         control_w=(0.0,) * NU, rate_w=(0.0,) * NU, seed=0)
def test_assemble_qp_matches_the_mpc_cost_and_constraints(
        horizon, state_w, terminal_w, control_w, rate_w, seed):
    """Oracle: the MPC objective of random controls u, rolled out from the
    current state, less that of zero controls, is 0.5 u'Hu + g'u; the rows
    are the controls' upper boxes, steering differences and lower boxes,
    written out."""
    rng = np.random.default_rng(seed)
    config = MPCConfig(horizon=horizon, state_weights=state_w,
                       terminal_weights=terminal_w, control_weights=control_w,
                       control_rate_weights=rate_w)
    ref = HorizonReference(rng.uniform(-5.0, 5.0, (horizon + 1, NX)),
                           np.zeros((horizon, NU)))
    lins = [(rng.standard_normal((NX, NX)), rng.standard_normal((NX, NU)),
             rng.standard_normal(NX)) for _ in range(horizon)]
    state = VehicleState(*rng.uniform(-5.0, 5.0, 4))
    qp = assemble_qp(ref, tuple(np.array(blocks) for blocks in zip(*lins)),
                     config).qp(state)

    u = rng.uniform(-5.0, 5.0, qp.n)
    psi0 = ref.states[0, 3] + wrap_angle(state.theta - ref.states[0, 3])
    start = np.array([state.x, state.y, state.v, psi0])
    with_u = rollout_cost(u, start, lins, ref.states, config)
    without = rollout_cost(np.zeros(qp.n), start, lins, ref.states, config)
    quadratic = 0.5 * u @ qp.P @ u + qp.q @ u
    scale = 0.5 * np.abs(u) @ np.abs(qp.P) @ np.abs(u) + np.abs(qp.q) @ np.abs(u)
    # The floor keeps the bound above 0 when every weight is 0 or subnormal.
    assert (abs(quadratic - (with_u - without))
            <= 1e-9 * max(with_u, without, scale) + 4 * np.finfo(float).tiny)

    n = NU * horizon
    au = qp.A @ u
    np.testing.assert_array_equal(au[:n], u)
    rate = np.diff(u.reshape(horizon, NU)[:, 1])
    np.testing.assert_array_equal(au[n:-n], np.column_stack([rate, -rate]).ravel())
    np.testing.assert_array_equal(au[-n:], -u)
    assert np.all(qp.l == -np.inf)


# ----------------------------------------------------------------------
# Per-knot oracle: the QP over states and controls, built knot by knot
# with numpy, whose states the tracker's QP over the controls eliminates.
# ----------------------------------------------------------------------

def oracle_reference(raceline, state, config):
    i0 = rl.nearest_index(raceline, state.position)
    v_ref = max(state.v, config.v_floor)
    advance = max(int(round(v_ref * config.dt / raceline.mean_spacing)), 1)
    indices = (i0 + advance * np.arange(config.horizon + 1)) % raceline.n
    seg_dx = np.roll(raceline.x, -1) - raceline.x
    seg_dy = np.roll(raceline.y, -1) - raceline.y
    headings = np.array([math.atan2(seg_dy[i], seg_dx[i]) for i in indices])
    states = np.column_stack([raceline.x[indices], raceline.y[indices],
                              raceline.v_max[indices], np.unwrap(headings)])
    controls = np.zeros((config.horizon, NU))
    controls[:, 1] = np.arctan(config.plant.wheelbase * raceline.kappa[indices[:-1]])
    return states, controls


def oracle_linearize(ref_state, ref_control, wheelbase, dt):
    _, _, v, psi = ref_state
    a_ref, delta_ref = ref_control
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
    f_ref = np.array([v * cos_psi, v * sin_psi, a_ref, v / wheelbase * tan_delta])
    return (np.eye(NX) + dt * jac_x, dt * jac_u,
            dt * (f_ref - jac_x @ np.asarray(ref_state, dtype=float)
                  - jac_u @ np.asarray(ref_control, dtype=float)))


def oracle_qp(raceline, state, config):
    """(reference states, QPProblem) of one step, knot by knot."""
    states, controls = oracle_reference(raceline, state, config)
    horizon = config.horizon
    n_states = NX * (horizon + 1)
    n = n_states + NU * horizon
    w_state = np.concatenate([np.tile(config.state_weights, horizon),
                              config.terminal_weights])
    p_mat = np.diag(2.0 * np.concatenate(
        [w_state, np.tile(config.control_weights, horizon)]))
    diff = np.eye(horizon - 1, horizon, 1) - np.eye(horizon - 1, horizon)
    p_mat[n_states:, n_states:] += np.kron(
        diff.T @ diff, np.diag(2.0 * np.asarray(config.control_rate_weights)))
    q_vec = np.zeros(n)
    q_vec[:n_states] = -2.0 * w_state * states.ravel()

    psi0 = states[0, 3] + wrap_angle(state.theta - states[0, 3])
    m_box = NU * horizon
    m = n_states + m_box + 2 * (horizon - 1)
    a_mat = np.zeros((m, n))
    lower = np.empty(m)
    upper = np.empty(m)
    a_mat[:n_states, :n_states] = np.eye(n_states)
    lower[:NX] = upper[:NX] = np.array([state.x, state.y, state.v, psi0])
    for t in range(horizon):
        a_t, b_t, c_t = oracle_linearize(states[t], controls[t], config.plant.wheelbase,
                                         config.dt)
        rows = slice(NX * (t + 1), NX * (t + 2))
        a_mat[rows, NX * t:NX * (t + 1)] = -a_t
        a_mat[rows, n_states + NU * t:n_states + NU * (t + 1)] = -b_t
        lower[rows] = upper[rows] = c_t
    box = slice(n_states, n_states + m_box)
    a_mat[box, n_states:] = np.eye(m_box)
    upper[box] = np.tile((config.plant.a_max, config.plant.delta_max), horizon)
    lower[box] = -upper[box]
    rate = slice(n_states + m_box, m)
    a_mat[rate, n_states + 1::NU] = np.kron(diff, [[1.0], [-1.0]])
    lower[rate] = -np.inf
    upper[rate] = config.plant.delta_rate_max * config.dt
    return states, QPProblem(p_mat, q_vec, a_mat, lower, upper)


def qp_bytes(qp):
    return {name: getattr(qp, name).tobytes() for name in ("P", "q", "A", "l", "u")}


def oracle_rollout(full, controls, pinned):
    """The oracle's decision vector at ``controls``: the states rolled forward
    through its dynamics rows, with ``pinned`` in place of their bounds
    (``full.u`` for the pinned current state and the knots' offsets)."""
    n_states = full.n - len(controls)
    z = np.concatenate([np.zeros(n_states), controls])
    for t in range(n_states // NX):
        # Rows of knot t read x_t - A_{t-1} x_{t-1} - B_{t-1} u_{t-1} (x_0 alone
        # for t = 0), and x_t is still zero in z.
        rows = slice(NX * t, NX * (t + 1))
        z[rows] = pinned[rows] - full.A[rows] @ z
    return z


def oracle_control_rows(full, n):
    """The oracle's rows on its ``n`` controls, ``l <= A u <= u``, restated
    one-sided as ``C u <= h``: +row for each finite upper bound, then -row
    for each finite lower bound, with 0.0 for -0.0 in ``C``."""
    n_states = full.n - n
    assert not full.A[n_states:, :n_states].any()
    rows, lower, upper = full.A[n_states:, n_states:], full.l[n_states:], full.u[n_states:]
    finite_upper, finite_lower = np.isfinite(upper), np.isfinite(lower)
    return (np.vstack([rows[finite_upper], -rows[finite_lower]]) + 0.0,
            np.concatenate([upper[finite_upper], -lower[finite_lower]]))


def assert_eliminates_the_oracle_states(qp, full, rng):
    """``qp`` is ``full`` with its states eliminated: for random controls u,
    the oracle's objective less that at zero controls is 0.5 u'Hu + g'u to
    1e-10 relative, and the rows are the oracle's control rows restated
    one-sided, byte for byte, with no lower bounds."""
    c_mat, h = oracle_control_rows(full, qp.n)
    assert qp.A.tobytes() == c_mat.tobytes()
    assert qp.u.tobytes() == h.tobytes()
    assert np.all(qp.l == -np.inf)
    slope = full.P @ oracle_rollout(full, np.zeros(qp.n), full.u) + full.q
    for _ in range(3):
        u = rng.uniform(-1.0, 1.0, qp.n)
        # The rollout at u less that at zero controls, and the objective's
        # change along it written without cancelling terms.
        step = oracle_rollout(full, u, np.zeros(full.m))
        change = 0.5 * step @ full.P @ step + slope @ step
        size = np.abs(step)
        scale = 0.5 * size @ np.abs(full.P) @ size + np.abs(slope) @ size
        assert (abs(0.5 * u @ qp.P @ u + qp.q @ u - change)
                <= 1e-10 * scale + 4 * np.finfo(float).tiny)


@functools.lru_cache(maxsize=None)
def synthesized(kind, size, radius, v_cap):
    if kind == "heldout":
        return heldout_rect()
    if kind == "rounded_rectangle":
        return rl.synthesize_track(kind, length_x=size, length_y=0.5 * size,
                                   radius=radius, v_cap=v_cap)
    oval = rl.synthesize_track("oval", straight=size, radius=radius, v_cap=v_cap)
    if kind == "oval":
        return oval
    # Mirrored: a clockwise loop whose straights have curvature -0.0.
    return rl.Raceline(oval.x, -oval.y, -oval.kappa, oval.v_base, oval.half_width)


@settings(max_examples=80, deadline=None)
@given(horizon=st.integers(1, 10), state_w=weights, terminal_w=weights,
       control_w=control_weights, rate_w=control_weights,
       dt=st.sampled_from([0.05, 0.1, 0.2]),
       kind=st.sampled_from(["heldout", "oval", "rounded_rectangle", "mirrored_oval"]),
       size=st.floats(2.0, 20.0), radius=st.floats(1.0, 5.0),
       v_cap=st.floats(1.0, 12.0), where=st.floats(0.0, 1.0),
       offset=st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
       heading_error=st.floats(-7.0, 7.0), speed=st.floats(0.0, 14.0))
@example(horizon=8, state_w=(13.5, 13.5, 5.5, 13.0), terminal_w=(13.5, 13.5, 5.5, 13.0),
         control_w=(0.01, 5.0), rate_w=(0.01, 5.0), dt=0.1, kind="heldout", size=2.0,
         radius=1.0, v_cap=1.0, where=0.0, offset=(0.0, 0.0), heading_error=0.0,
         speed=6.0)
def test_qp_chain_matches_the_per_knot_oracle_bytes(
        horizon, state_w, terminal_w, control_w, rate_w, dt, kind, size, radius,
        v_cap, where, offset, heading_error, speed):
    """build_reference -> linearize -> assemble_qp gives the oracle's
    reference states and controls byte for byte, signs of zero included, and
    the oracle's QP with its states eliminated."""
    track = synthesized(kind, size, radius, v_cap)
    config = MPCConfig(horizon=horizon, dt=dt, state_weights=state_w,
                       terminal_weights=terminal_w, control_weights=control_w,
                       control_rate_weights=rate_w)
    i = int(where * track.n) % track.n
    state = VehicleState(float(track.x[i]) + offset[0], float(track.y[i]) + offset[1],
                         rl.tangent_heading(track, i) + heading_error, speed)
    reference = build_reference(track, state, rl.nearest_index(track, state.position), config)
    qp = assemble_qp(reference, linearize(reference.states, reference.controls,
                                          config.plant.wheelbase, config.dt), config).qp(state)
    states, controls = oracle_reference(track, state, config)
    assert reference.states.tobytes() == states.tobytes()
    assert reference.controls.tobytes() == controls.tobytes()
    assert_eliminates_the_oracle_states(qp, oracle_qp(track, state, config)[1],
                                        np.random.default_rng(0))


JUST_UNDER_QUARTER_TURN = math.nextafter(math.pi / 2.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(knots=st.lists(st.tuples(
           st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
           st.one_of(st.floats(0.0, 15.0), st.sampled_from([0.0, -0.0])),
           st.one_of(st.floats(-4.0 * math.pi, 4.0 * math.pi),
                     st.sampled_from([math.pi, -math.pi, 3.0 * math.pi])),
           st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, -0.0])),
           st.one_of(st.floats(-1.5, 1.5),
                     st.sampled_from([0.0, -0.0, JUST_UNDER_QUARTER_TURN,
                                      -JUST_UNDER_QUARTER_TURN]))),
       min_size=1, max_size=10),
       wheelbase=st.floats(0.1, 2.0), dt=st.sampled_from([0.05, 0.1, 0.2]))
def test_linearize_matches_the_per_knot_oracle_bytes(knots, wheelbase, dt):
    """All knots at once give each knot's oracle (A, B, c) byte for byte,
    signs of zero included, for headings past +-pi, zero speeds and
    steering, and steering just short of a quarter turn."""
    states = np.array([knot[:NX] for knot in knots] + [(1.0, 2.0, 3.0, 4.0)])
    controls = np.array([knot[NX:] for knot in knots])
    a_blocks, b_blocks, c_blocks = linearize(states, controls, wheelbase, dt)
    assert (a_blocks.shape, b_blocks.shape, c_blocks.shape) == (
        (len(knots), NX, NX), (len(knots), NX, NU), (len(knots), NX))
    for t in range(len(knots)):
        expected = oracle_linearize(states[t], controls[t], wheelbase, dt)
        for got, want in zip((a_blocks[t], b_blocks[t], c_blocks[t]), expected):
            assert got.tobytes() == want.tobytes()


def rolled_gradient(reference_states, linearization, state, config):
    """The step's gradient as each step once formed it, and its scale: the
    state rolled through the knots, o_0 = s and o_{k+1} = A_k o_k + c_k,
    then 2 weighted'(o - r) with weighted = W S, the lift S from the
    recursion S_{k+1} = A_k S_k + B_k E_k. The scale is the same sum taken
    over absolute values, at its largest entry."""
    a_blocks, b_blocks, c_blocks = linearization
    horizon = config.horizon
    lift = np.zeros((horizon + 1, NX, NU * horizon))
    for k in range(horizon):
        lift[k + 1] = a_blocks[k] @ lift[k]
        lift[k + 1, :, NU * k:NU * (k + 1)] = b_blocks[k]
    weighted = qp_template(config).state_weights[:, None] * lift.reshape(-1, NU * horizon)
    offset = np.empty_like(reference_states)
    psi_ref = float(reference_states[0, 3])
    offset[0] = (state.x, state.y, state.v, psi_ref + wrap_angle(state.theta - psi_ref))
    for k in range(horizon):
        offset[k + 1] = a_blocks[k] @ offset[k] + c_blocks[k]
    gap = offset.ravel() - reference_states.ravel()
    size = np.abs(offset.ravel()) + np.abs(reference_states.ravel())
    return 2.0 * (weighted.T @ gap), 2.0 * (np.abs(weighted).T @ size).max()


@settings(max_examples=80, deadline=None)
@given(horizon=st.integers(1, 10), state_w=weights, terminal_w=weights,
       dt=st.sampled_from([0.05, 0.1, 0.2]),
       kind=st.sampled_from(["heldout", "oval", "rounded_rectangle", "mirrored_oval"]),
       size=st.floats(2.0, 20.0), radius=st.floats(1.0, 5.0),
       v_cap=st.floats(1.0, 12.0), where=st.floats(0.0, 1.0),
       offset=st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
       heading=st.floats(-math.pi, math.pi), speed=st.floats(0.0, 14.0))
@example(horizon=8, state_w=(13.5, 13.5, 5.5, 13.0), terminal_w=(13.5, 13.5, 5.5, 13.0),
         dt=0.1, kind="heldout", size=2.0, radius=1.0, v_cap=1.0, where=0.5,
         offset=(0.0, 0.0), heading=math.pi, speed=6.0)
def test_affine_gradient_matches_the_rolled_out_state(
        horizon, state_w, terminal_w, dt, kind, size, radius, v_cap, where, offset,
        heading, speed):
    """q = G s + g0 of the condensed horizon is the gradient that rolling
    the state through the knots gives, to 1e-12 of the gradient's scale,
    for any heading, so on either side of the reference's unwrap branch."""
    track = synthesized(kind, size, radius, v_cap)
    config = MPCConfig(horizon=horizon, dt=dt, state_weights=state_w,
                       terminal_weights=terminal_w)
    i = int(where * track.n) % track.n
    state = VehicleState(float(track.x[i]) + offset[0], float(track.y[i]) + offset[1],
                         heading, speed)
    reference = build_reference(track, state, rl.nearest_index(track, state.position), config)
    linearization = linearize(reference.states, reference.controls,
                              config.plant.wheelbase, config.dt)
    qp = assemble_qp(reference, linearization, config).qp(state)
    expected, scale = rolled_gradient(reference.states, linearization, state, config)
    assert qp.q.shape == expected.shape == (NU * horizon,)
    assert np.abs(qp.q - expected).max() <= 1e-12 * scale + 4 * np.finfo(float).tiny


def test_template_arrays_are_read_only_and_shared():
    track = heldout_rect()
    config = MPCConfig()
    state = VehicleState(float(track.x[40]) + 0.2, float(track.y[40]), 0.5, 4.0)
    qp = mpc_qp(track, state, rl.nearest_index(track, state.position), config)
    template = qp_template(config)
    for name, shared in (("A", "C"), ("u", "h")):  # the template's rows and bounds
        assert np.shares_memory(getattr(qp, name), getattr(template, shared))
    for array in vars(template).values():
        with pytest.raises(ValueError):
            array[0] = 1.0
    # The template's rows are the per-knot oracle's control rows restated.
    for horizon in (1, 2, 8):
        short = MPCConfig(horizon=horizon)
        c_mat, h = oracle_control_rows(oracle_qp(track, state, short)[1], NU * horizon)
        assert qp_template(short).C.tobytes() == c_mat.tobytes()
        assert qp_template(short).h.tobytes() == h.tobytes()
    assert_eliminates_the_oracle_states(qp, oracle_qp(track, state, config)[1],
                                        np.random.default_rng(1))


@pytest.mark.parametrize("change, field", [
    ({"control_weights": (0.01, 4.0)}, "P"),
    ({"control_rate_weights": (0.01, 4.0)}, "P"),
    ({"plant": SimConfig(delta_rate_max=2.0)}, "h"),
    ({"plant": SimConfig(a_max=2.5)}, "h"),
    ({"state_weights": (13.5, 13.5, 5.5, 12.0)}, "state_weights"),
])
def test_template_is_keyed_on_the_whole_config(change, field):
    track = heldout_rect()
    state = VehicleState(float(track.x[40]), float(track.y[40]), 0.0, 4.0)
    base = MPCConfig()
    other = MPCConfig(**change)
    assert other.horizon == base.horizon
    assert not np.array_equal(getattr(qp_template(base), field),
                              getattr(qp_template(other), field))
    for config in (base, other):
        qp = mpc_qp(track, state, rl.nearest_index(track, state.position), config)
        assert_eliminates_the_oracle_states(qp, oracle_qp(track, state, config)[1],
                                            np.random.default_rng(2))


@functools.lru_cache(maxsize=None)
def memo_tracks():
    """The held-out rectangle, its x1.6 copy and the uniform oval, each one
    object for the whole session, so that examples meet each other's entries."""
    rect = heldout_rect()
    return {"heldout": rect, "heldout_x1.6": rl.scale_speeds(rect, 1.6),
            "oval": uniform_speed_oval()}


def cold_qp(track, state, index, config):
    reference = build_reference(track, state, index, config)
    return assemble_qp(reference, linearize(reference.states, reference.controls,
                                            config.plant.wheelbase, config.dt),
                       config).qp(state)


pose = st.tuples(st.sampled_from(["heldout", "heldout_x1.6", "oval"]),
                 st.integers(0, 7),                           # eighth of the loop
                 st.tuples(*[st.floats(-0.3, 0.3)] * 2),      # offset from it
                 st.floats(-0.5, 0.5),                        # heading error
                 st.floats(0.0, 9.0),                         # speed
                 st.one_of(st.none(), st.integers(0, 300)))   # hint


@settings(max_examples=60, deadline=None)
@given(poses=st.lists(pose, min_size=1, max_size=12),
       config=st.sampled_from([MPCConfig(), MPCConfig(horizon=3)]))
def test_memoized_qps_equal_cold_builds_bytes(poses, config):
    """Each mpc_qp equals, byte for byte, the QP built cold from
    build_reference -> linearize -> assemble_qp, whether the state-free half
    is condensed by that call or found in the memo; a second state on the
    same waypoint and speed always finds it."""
    tracks = memo_tracks()
    for name, eighth, offset, heading_error, speed, hint in poses:
        track = tracks[name]
        i = eighth * track.n // 8
        state = VehicleState(float(track.x[i]) + offset[0], float(track.y[i]) + offset[1],
                             rl.tangent_heading(track, i) + heading_error, speed)
        index = rl.nearest_index(track, state.position,
                                 near=None if hint is None else hint % track.n)
        other = VehicleState(state.x - offset[1], state.y + offset[0],
                             state.theta - heading_error, speed)
        for s in (state, other):
            assert qp_bytes(mpc_qp(track, s, index, config)) \
                == qp_bytes(cold_qp(track, s, index, config))
    # The scaled copy's v_max, so its A, differs: it never reads the source's entries.
    rect, scaled = tracks["heldout"], tracks["heldout_x1.6"]
    assert mpc._horizon_memo(rect, config) is not mpc._horizon_memo(scaled, config)
    for key, entry in mpc._horizon_memo(rect, config).items():
        twin = mpc._horizon_memo(scaled, config).get(key)
        assert twin is None or not np.array_equal(twin.G, entry.G)


def test_solution_respects_actuator_and_rate_limits():
    track = uniform_speed_oval(straight=8.0)
    config = MPCConfig()
    state = VehicleState(float(track.x[3]) + 0.4, float(track.y[3]) - 0.3,
                         0.4, 3.5)
    ref, lins = one_step_problem(track, state, config)
    qp = assemble_qp(ref, lins, config).qp(state)
    result = admm_solve(qp)
    assert result.converged
    controls = result.x.reshape(config.horizon, NU)
    assert np.all(np.abs(controls[:, 0]) <= config.plant.a_max + 1e-6)
    assert np.all(np.abs(controls[:, 1]) <= config.plant.delta_max + 1e-6)
    rate = np.abs(np.diff(controls[:, 1]))
    assert np.all(rate <= config.plant.delta_rate_max * config.dt + 1e-6)


# ----------------------------------------------------------------------
# Closed-loop stepping
# ----------------------------------------------------------------------

def test_mpc_step_on_reference_is_quiet():
    # Exactly 0.25-spaced straight and dt 0.1 at v = 2.5: the reference
    # advances exactly one waypoint per knot, matching the vehicle, so
    # the optimum is to do nothing.
    from conftest import make_square_raceline
    track = make_square_raceline(side=30.0, spacing=0.25, v=2.5)
    config = MPCConfig()
    i = 8
    state = VehicleState(float(track.x[i]), float(track.y[i]), 0.0, 2.5)
    command, info = mpc_step(track, state, rl.nearest_index(track, state.position),
                             Command(0.0, 2.5), config)
    assert info.converged
    assert abs(command.delta) < 1e-3
    a0 = (command.v_cmd - state.v) / 0.05
    assert abs(a0) < 1e-3


def test_mpc_step_steers_back_toward_path():
    track = uniform_speed_oval()
    config = MPCConfig()
    state = VehicleState(2.0, 0.3, 0.0, 2.5)  # offset left of the straight
    command, info = mpc_step(track, state, rl.nearest_index(track, state.position),
                             Command(0.0, 2.5), config)
    assert info.converged
    assert command.delta < 0.0  # steer right


def test_mpc_step_holds_previous_command_on_failure(monkeypatch):
    # 1 m off the straight the first KKT solve crosses a bound, so the
    # active set needs a second solve and max_iter=1 stops both solvers.
    track = uniform_speed_oval()
    config = MPCConfig(max_iter=1)
    prev = Command(0.123, 4.5)
    state = VehicleState(2.0, 1.0, 0.0, 2.5)
    index = rl.nearest_index(track, state.position)
    assert mpc_step(track, state, index, prev, MPCConfig())[1].iterations > 1
    with monkeypatch.context() as patch:  # so does the loop that solved a full step twice
        patch.setattr(mpc, "active_set_solve", reference_active_set_solve)
        command, info = mpc_step(track, state, index, prev, config)
        assert not info.converged and command == prev
    command, info = mpc_step(track, state, index, prev, config)
    assert not info.converged
    assert command == prev


def test_closed_loop_straight_line_steady_state():
    track = uniform_speed_oval(straight=30.0, v=2.0)
    sim = SimConfig()
    tracker = MPCTracker(track, MPCConfig())
    state = VehicleState(1.0, 0.12, 0.0, 2.0)
    prev_delta = 0.0
    for k in range(80):  # 4 s at 20 Hz; the straight is long enough
        command = tracker.step(state, k * sim.dt_control).command
        state, prev_delta = control_step(state, command, prev_delta, sim)
        if k * sim.dt_control >= 3.0:
            assert abs(rl.lateral_error(track, state.position)) < 0.05


def test_tracker_reset_clears_state():
    track = uniform_speed_oval()
    tracker = MPCTracker(track, MPCConfig())
    state = VehicleState(2.0, 0.3, 0.0, 2.5)
    tracker.step(state, 0.0)
    tracker.reset()
    assert tracker.prev_command == Command(0.0, 0.0)


def test_tracker_info_carries_the_solution_once_converged():
    track = uniform_speed_oval()
    config = MPCConfig()
    tracker = MPCTracker(track, config)
    assert tracker.last_info.solution_x is None
    assert tracker.last_info.solution_y is None
    assert tracker.index is None
    tracker.step(VehicleState(2.0, 0.3, 0.0, 2.5), 0.0)
    info = tracker.last_info
    assert info.converged
    # The reference's first waypoint, the next step's track-query hint.
    assert tracker.index == rl.nearest_index(track, (2.0, 0.3))
    assert info.solution_x.shape == (NU * config.horizon,)
    # One multiplier per one-sided row: upper boxes, rates, lower boxes.
    assert info.solution_y.shape == (2 * NU * config.horizon + 2 * (config.horizon - 1),)
    assert np.all(np.isfinite(info.solution_y))
    assert np.all(info.solution_y >= 0.0)
    assert tracker._warm is info
    tracker.reset()
    assert tracker.index is None


def test_mpc_lap_trace_carries_the_solver_health(tmp_path):
    """The lap trace carries the solver and its health on every MPC row, and
    the step's other inputs follow from a row, the previous row and the
    raceline: the step's start time is the previous row's time, its
    reference head the waypoint at the previous row's index (the start
    waypoint after a start or a restart), and its planned acceleration
    speed_gain * (v_cmd - v) of the previous row's speed (the start speed)."""
    track = uniform_speed_oval()
    sim = SimConfig()
    tracker = MPCTracker(track, MPCConfig(plant=sim))
    path = tmp_path / "trace.csv"
    logged = []  # (start time, reference head, planned acceleration) per step
    tracker_step = tracker.step

    def step(state, now):
        assert not path.exists()  # the trace appears whole when the run returns
        output = tracker_step(state, now)
        head = tuple(build_reference(track, state, rl.nearest_index(track, state.position),
                                     tracker.config).states[0])
        logged.append((now, head, (output.command.v_cmd - state.v) * sim.speed_gain))
        return output

    tracker.step = step
    # Two laps cut short at 5 steps each: a start, then a restart.
    report = run_laps(tracker, track, sim, laps=2, max_lap_time=0.25, trace_path=path)
    assert list(tmp_path.iterdir()) == [path]
    rows = list(csv.DictReader(open(path)))
    assert len(rows) == report.total_steps == 10
    assert report.completed == 0
    assert int(rows[0]["converged"]) == 1
    assert {row["solver"] for row in rows} == {"active_set"}
    assert all(row["kkt_solves"] == row["iterations"] for row in rows)
    assert float(rows[0]["dual_residual"]) < 1e-5

    start_v = 0.5 * float(track.v_max[0])
    previous = None
    for row, (now, head, accel) in zip(rows, logged):
        restarted = previous is None or previous["lap"] != row["lap"]
        i = 0 if restarted else int(previous["index"])
        v = start_v if restarted else float(previous["v"])
        assert now == (0.0 if previous is None else float(previous["time"]))
        assert head == (track.x[i], track.y[i], track.v_max[i], rl.tangent_heading(track, i))
        assert accel == sim.speed_gain * (float(row["v_cmd"]) - v)
        previous = row


# ----------------------------------------------------------------------
# Command law and solver choice
# ----------------------------------------------------------------------

def test_speed_loop_applies_the_planned_acceleration():
    # Slower than the 2.5 m/s reference: the plan accelerates, within a_max.
    track = uniform_speed_oval()
    sim = SimConfig()
    config = MPCConfig(plant=sim)
    state = VehicleState(2.0, 0.1, 0.0, 2.3)
    command, info = mpc_step(track, state, rl.nearest_index(track, state.position),
                             Command(0.0, 2.3), config)
    assert info.converged
    a0 = info.solution_x[0]
    assert 0.1 < a0 < sim.a_max - 0.1
    assert speed_controller(state.v, command.v_cmd, sim) == pytest.approx(a0, abs=1e-12)


def test_build_controller_takes_the_plant_from_sim():
    from pursuitlab.controllers import build_controller
    sim = SimConfig(wheelbase=0.4, delta_max=0.35, delta_rate_max=2.5, a_max=2.0,
                    speed_gain=3.5)
    # Spec keys cannot give the MPC another plant than the simulator's.
    tracker = build_controller({"type": "mpc", "delta_max": 0.5, "a_max": 9.0},
                               uniform_speed_oval(), sim)
    assert tracker.config.plant is sim


def test_the_mpc_states_its_plant_once():
    """MPCConfig holds the plant as a SimConfig and repeats none of its fields."""
    assert not ({f.name for f in dataclasses.fields(MPCConfig)}
                & {f.name for f in dataclasses.fields(SimConfig)})
    assert MPCConfig().plant == SimConfig()


@pytest.mark.parametrize("speed_gain", [20.0, 2.0], ids=["v_plus_a_dt", "v_plus_a_over_gain"])
def test_active_set_matches_cold_admm_along_a_run(speed_gain):
    """Every step of 4 s on the held-out rectangle: the accepted controls
    equal a cold ADMM solve of the same QP. ``speed_gain`` 20 reproduces the
    older ``v + a0 * dt_control`` law, under which only acceleration bounds
    bind; under the P-loop law steering bounds bind as well."""
    track = heldout_rect()
    sim = SimConfig()
    config = MPCConfig(plant=SimConfig(speed_gain=speed_gain))
    tracker = MPCTracker(track, config)
    n = NU * config.horizon
    state = VehicleState(float(track.x[0]), float(track.y[0]),
                         rl.tangent_heading(track, 0), 0.5 * float(track.v_max[0]))
    prev_delta = 0.0
    accel_bound = steer_bound = False
    for k in range(80):
        qp = mpc_qp(track, state, rl.nearest_index(track, state.position), config)
        command = tracker.step(state, k * sim.dt_control).command
        info = tracker.last_info
        assert info.converged and info.solver == "active_set"
        reference = admm_solve(qp, tol_primal=1e-9, tol_dual=1e-9, max_iter=20000)
        assert reference.converged
        np.testing.assert_allclose(info.solution_x, reference.x, rtol=0, atol=1e-5)
        # The one-sided rows: n upper box rows, the rate rows, n lower box rows.
        y = info.solution_y
        y_box = np.concatenate([y[:n], y[-n:]])
        accel_bound |= bool(np.any(y_box[0::NU] != 0.0))
        steer_bound |= bool(np.any(y_box[1::NU] != 0.0) or np.any(y[n:-n] != 0.0))
        state, prev_delta = control_step(state, command, prev_delta, sim)
    assert accel_bound
    assert steer_bound == (speed_gain == 2.0)


def test_singular_condensed_hessian_falls_back_to_admm():
    # With every weight 0 the condensed Hessian is 0: no KKT system solves.
    config = MPCConfig(state_weights=(0.0,) * NX, terminal_weights=(0.0,) * NX,
                       control_weights=(0.0,) * NU, control_rate_weights=(0.0,) * NU)
    track = uniform_speed_oval()
    state = VehicleState(2.0, 0.3, 0.0, 2.5)
    command, info = mpc_step(track, state, rl.nearest_index(track, state.position),
                             Command(0.0, 2.5), config)
    assert info.solver == "admm"
    assert info.converged
    assert info.iterations >= 1
    assert info.kkt_solves == 0  # the active-set solver raised


@pytest.fixture
def admm_calls(monkeypatch):
    """Live count of the MPC's ``admm_solve`` calls."""
    calls = {"admm_solve": 0}

    def counted(*args, **kwargs):
        calls["admm_solve"] += 1
        return admm_solve(*args, **kwargs)
    monkeypatch.setattr(mpc, "admm_solve", counted)
    return calls


def heldout_lap(config=MPCConfig()):
    """One lap of a tracker on the held-out rectangle; (report, step infos)."""
    track = heldout_rect()
    tracker = MPCTracker(track, config)
    infos = []

    class Recorder:
        def reset(self):
            tracker.reset()

        def step(self, state, now):
            output = tracker.step(state, now)
            infos.append(tracker.last_info)
            return output

    return run_laps(Recorder(), track, SimConfig(), laps=1, max_lap_time=60.0), infos


def test_the_memo_holds_the_horizons_a_run_visits(monkeypatch):
    """After 10 held-out laps the memo holds one entry per distinct
    (waypoint, advance) the steps asked for, each condensed once."""
    track, config = heldout_rect(), MPCConfig()
    visited, built = [], []
    step_qp, build = mpc.mpc_qp, mpc.build_reference

    def spy_qp(raceline, state, index, config):
        v_ref = max(state.v, config.v_floor)
        visited.append((index, max(int(round(v_ref * config.dt / raceline.mean_spacing)), 1)))
        return step_qp(raceline, state, index, config)

    def spy_build(*args):
        built.append(args[2])
        return build(*args)
    monkeypatch.setattr(mpc, "mpc_qp", spy_qp)
    monkeypatch.setattr(mpc, "build_reference", spy_build)
    report = run_laps(MPCTracker(track, config), track, SimConfig(), laps=10,
                      max_lap_time=60.0)
    assert report.completed == 10
    memo = mpc._horizon_memo(track, config)
    assert set(memo) == set(visited)
    assert len(built) == len(memo) < len(visited)


def test_a_heldout_lap_takes_the_active_set_path(admm_calls):
    report, infos = heldout_lap()
    assert report.completed == 1
    assert len(infos) > 100
    assert admm_calls["admm_solve"] == 0
    assert all(info.converged and info.solver == "active_set" for info in infos)


def test_a_heldout_lap_completes_on_admm_alone(monkeypatch, admm_calls):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular KKT matrix")
    monkeypatch.setattr(mpc, "active_set_solve", singular)
    report, infos = heldout_lap()
    assert report.completed == 1
    assert admm_calls["admm_solve"] == len(infos) > 100
    assert all(info.converged and info.solver == "admm" and info.kkt_solves == 0
               for info in infos)


def test_every_qp_of_a_heldout_lap_is_over_the_controls(monkeypatch):
    solved = []
    solve = mpc.solve_qp

    def spy(qp, *args, **kwargs):
        solved.append(qp)
        return solve(qp, *args, **kwargs)
    monkeypatch.setattr(mpc, "solve_qp", spy)
    config = MPCConfig()
    report, infos = heldout_lap(config)
    assert report.completed == 1
    assert len(solved) == len(infos) > 100
    assert {qp.n for qp in solved} == {NU * config.horizon}
    assert not hasattr(qp_module, "condense")
    assert not hasattr(qp_module, "CondensedQP")


def test_each_horizon_validates_one_qp_that_its_steps_share(monkeypatch):
    """Over 3 held-out laps QPProblem validates once per memo entry; every
    step's P, A, l and u are its horizon's read-only arrays, and its q is
    a fresh array of its own."""
    track, config = heldout_rect(), MPCConfig()
    validations, steps = [], []
    validate, step_qp = QPProblem.__post_init__, mpc.mpc_qp

    def counted(self):
        validations.append(self)
        validate(self)

    def spy(raceline, state, index, config):
        qp = step_qp(raceline, state, index, config)
        steps.append((qp, mpc._condensed_horizon(raceline, state, index, config)))
        return qp
    monkeypatch.setattr(QPProblem, "__post_init__", counted)
    monkeypatch.setattr(mpc, "mpc_qp", spy)
    report = run_laps(MPCTracker(track, config), track, SimConfig(), laps=3,
                      max_lap_time=60.0)
    assert report.completed == 3
    memo = mpc._horizon_memo(track, config)
    assert len(validations) == len(memo) < len(steps)
    assert {id(entry.problem) for entry in memo.values()} == {id(qp) for qp in validations}
    for qp, horizon in steps:
        assert qp is not horizon.problem
        assert all(getattr(qp, name) is getattr(horizon.problem, name) for name in "PAlu")
        for array in (qp.P, qp.A, qp.l, qp.u):
            with pytest.raises(ValueError):
                array[0] = 1.0
        assert qp.q.flags.writeable and qp.q.flags.owndata
    assert len({id(qp.q) for qp, _ in steps}) == len(steps)


def test_a_heldout_lap_solves_each_working_set_once(monkeypatch):
    """Along a held-out lap the KKT solves number the reported iterations,
    and no call solves the same working set twice in a row."""
    calls = []  # per active_set_solve call: the working set of each KKT solve
    solve, kkt_solve = mpc.active_set_solve, np.linalg.solve

    def counted(H, g, *args, **kwargs):
        calls.append((g.shape[0], []))
        return solve(H, g, *args, **kwargs)

    def spy(kkt, rhs):
        n, working_sets = calls[-1]
        working_sets.append(frozenset(row.tobytes() for row in kkt[n:, :n]))
        return kkt_solve(kkt, rhs)
    monkeypatch.setattr(mpc, "active_set_solve", counted)
    monkeypatch.setattr(qp_module.np.linalg, "solve", spy)
    report, infos = heldout_lap()
    assert report.completed == 1
    assert all(info.solver == "active_set" for info in infos)
    assert len(calls) == len(infos)
    assert sum(len(sets) for _, sets in calls) == sum(info.iterations for info in infos)
    for _, sets in calls:
        assert all(a != b for a, b in zip(sets, sets[1:]))


def test_a_heldout_lap_matches_the_reference_loop_bit_for_bit(monkeypatch):
    """Every step's controls and multipliers are the bytes of the loop that
    solved a full step's working set twice, in fewer KKT solves overall."""
    solve = mpc.active_set_solve
    references = []

    def checked(*args, **kwargs):
        result = solve(*args, **kwargs)
        references.append(reference_active_set_solve(*args, **kwargs))
        assert_matches_the_reference(result, references[-1])
        return result
    monkeypatch.setattr(mpc, "active_set_solve", checked)
    report, infos = heldout_lap()
    assert report.completed == 1
    assert len(references) == len(infos) > 100
    for info, reference in zip(infos, references):
        assert info.solver == "active_set"
        assert np.array_equal(info.solution_x, reference.x)
    assert sum(info.iterations for info in infos) < sum(r.iterations for r in references)


@pytest.mark.parametrize("violation", ["row", "stationarity"])
def test_a_converged_active_set_result_off_the_kkt_conditions_falls_back(
        monkeypatch, violation):
    """The residual gate: an active-set result reported converged whose
    controls violate a row, or only stationarity, on the step's QP is not
    accepted; ADMM solves that same QP, and the step keeps the active-set
    solver's KKT solves."""
    track = uniform_speed_oval()
    config = MPCConfig()
    state = VehicleState(2.0, 0.3, 0.0, 2.5)
    qp = mpc_qp(track, state, rl.nearest_index(track, state.position), config)
    honest = mpc.solve_qp(qp, config)
    assert honest.solver == "active_set" and honest.kkt_solves == honest.iterations
    solve = mpc.active_set_solve
    gate = []

    def perturbed(*args, **kwargs):
        result = solve(*args, **kwargs)
        if violation == "row":
            result.x[0] = config.plant.a_max + 1e-3
        else:  # towards zero controls, which satisfy every row
            result.x *= 1.0 - 1e-4
        gate.append(residuals(qp, result.x, result.multipliers))
        return result
    monkeypatch.setattr(mpc, "active_set_solve", perturbed)
    command, info = mpc_step(track, state, rl.nearest_index(track, state.position),
                             Command(0.0, 2.5), config)
    (primal, dual), = gate
    assert (primal > config.tol) == (violation == "row")
    assert dual > config.tol
    assert info.solver == "admm" and info.converged
    assert info.kkt_solves == honest.iterations >= 1
    np.testing.assert_allclose(info.solution_x, honest.solution_x, rtol=0, atol=1e-4)
    assert command.delta == info.solution_x[1]


@pytest.mark.parametrize("field", ["dt", "speed_gain", "state_weights", "terminal_weights",
                                   "control_weights", "control_rate_weights"])
def test_config_rejects_nan(field):
    """A NaN passes ``x <= 0`` and ``w < 0`` checks. The MPC's speed_gain is
    its plant's, so a NaN there is rejected when the plant is built."""
    with pytest.raises(ValueError):
        if field == "speed_gain":
            MPCConfig(plant=SimConfig(speed_gain=math.nan))
        else:
            default = getattr(MPCConfig(), field)
            value = (math.nan,) * len(default) if isinstance(default, tuple) else math.nan
            MPCConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("tol", 0.0), ("tol", -1e-6), ("tol", math.nan),
    ("rho", 0.0), ("rho", -1.0), ("rho", math.nan),
    ("max_iter", 0), ("max_iter", -3),
    ("tol", math.inf), ("rho", math.inf), ("max_iter", 2.5), ("max_iter", math.nan),
    ("horizon", 0), ("horizon", 2.5), ("horizon", 8.0), ("dt", math.inf), ("dt", 0.0),
    ("v_floor", math.inf), ("v_floor", -0.5), ("v_floor", math.nan)])
def test_config_rejects_broken_solver_settings(field, value):
    """ADMM divides by rho, a tol of 0 or NaN is never met, and max_iter 0
    runs no solver: each would hold the previous command on every step. A
    fractional max_iter or horizon is no count of iterations or knots, and
    an infinite dt or v_floor overflows the first step's advance."""
    with pytest.raises(ValueError, match=field):
        MPCConfig(**{field: value})


@pytest.mark.parametrize("field", ["state_weights", "terminal_weights",
                                   "control_weights", "control_rate_weights"])
def test_config_rejects_infinite_weights(field):
    """An infinite weight makes the QP's cost infinite, so no solver
    converges and the previous command is held on every step."""
    weights = list(getattr(MPCConfig(), field))
    weights[-1] = math.inf
    with pytest.raises(ValueError, match="weights must be finite"):
        MPCConfig(**{field: tuple(weights)})
