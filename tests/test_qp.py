import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pursuitlab.qp import (ACTIVE_SET_ITER_PER_ROW, STEP_TOL, ActiveSetResult, ADMMResult,
                           QPProblem, active_set_solve, admm_solve, residuals)


def random_box_qp(rng, n, m, spread=1.0):
    """Well-conditioned random QP, feasible by construction.

    The box is centred on the image of a random point so l <= A x <= u has
    a solution even when m > n.
    """
    factor = rng.standard_normal((n, n))
    p = factor.T @ factor + 0.1 * np.eye(n)
    q = spread * rng.standard_normal(n)
    a = rng.standard_normal((m, n))
    feasible = rng.standard_normal(n)
    center = a @ feasible
    width = rng.uniform(0.2, 2.0, size=m)
    return QPProblem(p, q, a, center - width, center + width)


# ----------------------------------------------------------------------
# Problem validation
# ----------------------------------------------------------------------

def test_qpproblem_rejects_inconsistent_dims():
    with pytest.raises(ValueError):
        QPProblem(np.eye(3), np.zeros(2), np.eye(3), -np.ones(3), np.ones(3))


def test_qpproblem_rejects_asymmetric_p():
    p = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        QPProblem(p, np.zeros(2), np.eye(2),
                  -np.ones(2), np.ones(2))


def test_qpproblem_rejects_crossed_bounds():
    with pytest.raises(ValueError, match="l <= u"):
        QPProblem(np.eye(2), np.zeros(2), np.eye(2),
                  np.ones(2), -np.ones(2))


# ----------------------------------------------------------------------
# Analytic solutions
# ----------------------------------------------------------------------

def test_box_projection_of_unconstrained_optimum():
    # minimize (u - 1)^2 on [-0.4189, 0.4189]: optimum projects to the bound.
    qp = QPProblem(np.eye(1) * 2.0, np.array([-2.0]), np.eye(1),
                   np.array([-0.4189]), np.array([0.4189]))
    result = admm_solve(qp)
    assert result.converged
    assert result.x[0] == pytest.approx(0.4189, abs=2e-4)


def test_unconstrained_matches_direct_solve():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        factor = rng.standard_normal((n, n))
        p = factor.T @ factor + 0.5 * np.eye(n)
        q = rng.standard_normal(n)
        qp = QPProblem(p, q, np.eye(n),
                       np.full(n, -np.inf), np.full(n, np.inf))
        result = admm_solve(qp)
        direct = np.linalg.solve(p, -q)
        assert result.converged
        np.testing.assert_allclose(result.x, direct, atol=1e-6)


def test_pure_equality_is_satisfied():
    rng = np.random.default_rng(1)
    n = 5
    factor = rng.standard_normal((n, n))
    p = factor.T @ factor + 0.2 * np.eye(n)
    q = rng.standard_normal(n)
    a = rng.standard_normal((2, n))
    b = rng.standard_normal(2)
    qp = QPProblem(p, q, a, b, b)
    result = admm_solve(qp)
    assert result.converged
    np.testing.assert_allclose(a @ result.x, b, atol=1e-6)


# ----------------------------------------------------------------------
# KKT and convergence properties
# ----------------------------------------------------------------------

def test_kkt_residuals_on_random_qps():
    rng = np.random.default_rng(2)
    for _ in range(30):
        qp = random_box_qp(rng, n=int(rng.integers(2, 10)),
                           m=int(rng.integers(1, 14)))
        result = admm_solve(qp)
        assert result.converged
        assert result.dual_residual < 1e-5
        assert result.primal_residual < 1e-6
        stationarity = np.linalg.norm(
            qp.P @ result.x + qp.q + qp.A.T @ result.y, np.inf)
        assert stationarity < 1e-5


def test_solution_respects_bounds():
    rng = np.random.default_rng(3)
    for _ in range(20):
        qp = random_box_qp(rng, 6, 8)
        result = admm_solve(qp)
        assert result.converged
        ax = qp.A @ result.x
        assert np.all(ax >= qp.l - 1e-6)
        assert np.all(ax <= qp.u + 1e-6)


def grid_search_objective(qp, step=1e-4):
    """Dense brute-force minimum over a 2-D feasible box (row-chunked)."""
    lo, hi = qp.l, qp.u
    xs = np.arange(lo[0], hi[0] + step / 2, step)
    ys = np.arange(lo[1], hi[1] + step / 2, step)
    best = np.inf
    for x0 in xs:
        grid = np.column_stack([np.full_like(ys, x0), ys])
        vals = 0.5 * np.einsum("ij,jk,ik->i", grid, qp.P, grid) + grid @ qp.q
        best = min(best, float(vals.min()))
    return best


def test_two_variable_qp_matches_grid_search():
    rng = np.random.default_rng(4)
    for _ in range(3):
        factor = rng.standard_normal((2, 2))
        p = factor.T @ factor + 0.3 * np.eye(2)
        q = rng.uniform(-1.0, 1.0, size=2)
        qp = QPProblem(p, q, np.eye(2),
                       np.array([-0.5, -0.5]), np.array([0.5, 0.5]))
        result = admm_solve(qp)
        assert result.converged
        assert qp.objective(result.x) == pytest.approx(
            grid_search_objective(qp), abs=2e-4)


def test_one_variable_qp_matches_grid_search():
    qp = QPProblem(np.eye(1) * 3.0, np.array([0.7]), np.eye(1),
                   np.array([-0.4]), np.array([0.4]))
    result = admm_solve(qp)
    xs = np.arange(-0.4, 0.4 + 5e-5, 1e-4)
    vals = 0.5 * 3.0 * xs ** 2 + 0.7 * xs
    assert qp.objective(result.x) == pytest.approx(float(vals.min()), abs=2e-4)


def test_objective_invariant_to_initialization():
    rng = np.random.default_rng(5)
    qp = random_box_qp(rng, 5, 7)
    base = admm_solve(qp)
    assert base.converged
    for _ in range(5):
        x0 = rng.standard_normal(qp.n)
        y0 = rng.standard_normal(qp.m)
        other = admm_solve(qp, x0=x0, y0=y0)
        assert other.converged
        assert qp.objective(other.x) == pytest.approx(
            qp.objective(base.x), abs=1e-5)


def test_nonconvergence_is_flagged_not_raised():
    rng = np.random.default_rng(6)
    qp = random_box_qp(rng, 5, 7)
    result = admm_solve(qp, max_iter=1)
    assert isinstance(result, ADMMResult)
    assert not result.converged
    assert result.iterations == 1
    assert np.isfinite(result.primal_residual)


def test_warm_start_speeds_up_resolve():
    rng = np.random.default_rng(7)
    qp = random_box_qp(rng, 6, 8)
    cold = admm_solve(qp)
    warm = admm_solve(qp, x0=cold.x, y0=cold.y)
    assert warm.converged
    assert warm.iterations <= cold.iterations


# ----------------------------------------------------------------------
# Active set
# ----------------------------------------------------------------------

def random_inequality_qp(rng, n, m, n_tight):
    """Strictly convex ``min 0.5 x'Hx + g'x s.t. Cx <= h`` with unit-norm
    rows and a feasible start at which the first ``n_tight`` rows are tight."""
    factor = rng.standard_normal((n, n))
    h_mat = factor.T @ factor / n + 0.5 * np.eye(n)
    g = 2.0 * rng.standard_normal(n)
    c_mat = rng.standard_normal((m, n))
    c_mat /= np.linalg.norm(c_mat, axis=1, keepdims=True)
    start = rng.standard_normal(n)
    slack = rng.uniform(0.1, 2.0, m)
    slack[:n_tight] = 0.0
    return h_mat, g, c_mat, c_mat @ start + slack, start


def reference_active_set_solve(H, g, C, h, x0, working=(), max_iter=4000, tol=1e-9):
    """The active-set loop as it was before a full step went straight on to
    the multiplier check: after an unblocked step to the working set's
    optimum, the next iteration solves the same KKT system again, takes a
    zero step and only then reads the multipliers. The oracle for the
    solver's bytes and iteration counts."""
    n, m = g.shape[0], h.shape[0]
    x = np.asarray(x0, dtype=float).copy()
    multipliers = np.zeros(m)
    if m and np.max(C @ x - h) > tol:
        return ActiveSetResult(x, multipliers, 0, False)
    work = list(working)
    cap = min(max_iter, ACTIVE_SET_ITER_PER_ROW * (m + 1))
    for iteration in range(1, cap + 1):
        k = len(work)
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = H
        kkt[:n, n:] = C[work].T
        kkt[n:, :n] = C[work]
        sol = np.linalg.solve(kkt, np.concatenate([-g, h[work]]))
        step = sol[:n] - x
        if np.max(np.abs(step)) > STEP_TOL:
            towards = C @ step
            towards[work] = 0.0
            candidates = np.flatnonzero(towards > STEP_TOL)
            if candidates.size:
                ratios = (h[candidates] - C[candidates] @ x) / towards[candidates]
                nearest = int(np.argmin(ratios))
                if ratios[nearest] < 1.0:
                    x = x + max(ratios[nearest], 0.0) * step
                    work.append(int(candidates[nearest]))
                    continue
            x = sol[:n]
            continue
        x = sol[:n]
        lam = sol[n:]
        if k == 0 or lam.min() >= 0.0:
            multipliers[work] = lam
            return ActiveSetResult(x, multipliers, iteration, True)
        work.pop(int(np.argmin(lam)))
    return ActiveSetResult(x, multipliers, cap, False)


def assert_matches_the_reference(result, reference):
    """Bit-identical ``x`` and multipliers in no more KKT solves."""
    assert result.converged == reference.converged
    if reference.converged:
        assert np.array_equal(result.x, reference.x)
        assert np.array_equal(result.multipliers, reference.multipliers)
        assert result.iterations <= reference.iterations


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 8), m=st.integers(0, 12), tight=st.integers(0, 8),
       seed=st.integers(0, 2**32 - 1))
def test_active_set_matches_admm_and_satisfies_kkt(n, m, tight, seed):
    rng = np.random.default_rng(seed)
    n_tight = min(tight, m, n)
    h_mat, g, c_mat, h, start = random_inequality_qp(rng, n, m, n_tight)
    result = active_set_solve(h_mat, g, c_mat, h, start, range(n_tight))
    assert result.converged

    x, lam = result.x, result.multipliers
    active = lam > 0.0
    assert np.all(c_mat @ x <= h + 1e-9)
    assert np.all(lam >= 0.0)
    np.testing.assert_allclose(h_mat @ x + g + c_mat.T @ lam, 0.0, atol=1e-9)
    assert np.all(h[active] - c_mat[active] @ x <= 1e-9)

    # ADMM, a first-order method, can stall at a near-degenerate vertex
    # (active rows almost dependent, multipliers in the hundreds); the KKT
    # checks above already cover those, so compare only well-posed ones.
    assume(not active.any() or np.linalg.svd(c_mat[active], compute_uv=False).min() >= 0.2)
    reference = admm_solve(QPProblem(h_mat, g, c_mat, np.full(m, -np.inf), h),
                           tol_primal=1e-9, tol_dual=1e-9, max_iter=20000)
    assert reference.converged
    np.testing.assert_allclose(x, reference.x, rtol=0, atol=1e-5)


def test_active_set_warm_start_at_the_optimum_takes_one_iteration():
    rng = np.random.default_rng(11)
    h_mat, g, c_mat, h, start = random_inequality_qp(rng, 6, 10, 0)
    cold = active_set_solve(h_mat, g, c_mat, h, start)
    active = np.flatnonzero(cold.multipliers > 0.0)
    assert cold.converged and active.size > 0
    warm = active_set_solve(h_mat, g, c_mat, h, cold.x, active)
    assert warm.converged and warm.iterations == 1
    np.testing.assert_allclose(warm.x, cold.x, atol=1e-12)


def test_active_set_flags_an_infeasible_start():
    result = active_set_solve(np.eye(2), np.zeros(2), np.eye(2), np.ones(2),
                              np.array([0.0, 1.5]))
    assert not result.converged
    assert result.iterations == 0


def test_active_set_flags_the_iteration_cap():
    # The unconstrained optimum (2, 2) crosses both bounds: two rows to add.
    args = (np.eye(2), np.array([-2.0, -2.0]), np.eye(2), np.ones(2), np.zeros(2))
    assert active_set_solve(*args).converged
    capped = active_set_solve(*args, max_iter=1)
    assert not capped.converged
    assert capped.iterations == 1


def test_active_set_raises_on_a_singular_kkt_matrix():
    with pytest.raises(np.linalg.LinAlgError):
        active_set_solve(np.zeros((2, 2)), np.ones(2), np.eye(2), np.ones(2),
                         np.zeros(2))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 8), m=st.integers(0, 12), tight=st.integers(0, 8),
       seed=st.integers(0, 2**32 - 1), shift=st.floats(1e-3, 0.3))
def test_active_set_matches_the_reference_loop_bit_for_bit(n, m, tight, seed, shift):
    """Cold starts, and warm starts from a nearby problem's solution and
    active rows, give the reference loop's bytes in no more KKT solves."""
    rng = np.random.default_rng(seed)
    n_tight = min(tight, m, n)
    h_mat, g, c_mat, h, start = random_inequality_qp(rng, n, m, n_tight)
    cold = (h_mat, g, c_mat, h, start, range(n_tight))
    assert_matches_the_reference(active_set_solve(*cold), reference_active_set_solve(*cold))

    nearby = active_set_solve(h_mat, g + shift * rng.standard_normal(n), c_mat, h, start,
                              range(n_tight))
    assume(nearby.converged)
    warm = (h_mat, g, c_mat, h, nearby.x, np.flatnonzero(nearby.multipliers > 0.0))
    assert_matches_the_reference(active_set_solve(*warm), reference_active_set_solve(*warm))


def test_an_interior_optimum_takes_one_kkt_solve():
    # minimize 0.5 |x|^2 - 0.5 (x1 + x2) on x <= 1 from 0: the unconstrained
    # optimum (0.5, 0.5) is interior, so the first solve ends the loop.
    args = (np.eye(2), np.array([-0.5, -0.5]), np.eye(2), np.ones(2), np.zeros(2))
    result = active_set_solve(*args)
    assert result.converged and result.iterations == 1
    assert np.array_equal(result.x, [0.5, 0.5])
    assert np.array_equal(result.multipliers, [0.0, 0.0])
    assert reference_active_set_solve(*args).iterations == 2


def test_residuals_measure_bound_violation_and_stationarity():
    # minimize 0.5 x^2 - x on [-0.5, 0.5]: x = 0.5 with multiplier 0.5.
    qp = QPProblem(np.eye(1), np.array([-1.0]), np.eye(1), np.array([-0.5]), np.array([0.5]))
    assert residuals(qp, np.array([0.5]), np.array([0.5])) == (0.0, 0.0)
    assert residuals(qp, np.array([0.75]), np.array([0.5])) == (0.25, 0.25)
    assert residuals(qp, np.array([-0.75]), np.array([0.0])) == (0.25, 1.75)


def reference_residuals(qp, x, y):
    """The residuals as they were computed through np.clip and two
    infinity norms; the oracle for ``residuals``' bits."""
    ax = qp.A @ x
    primal = float(np.linalg.norm(ax - np.clip(ax, qp.l, qp.u), np.inf)) if qp.m else 0.0
    dual = float(np.linalg.norm(qp.P @ x + qp.q + qp.A.T @ y, np.inf))
    return primal, dual


# Per row: a two-sided box, an equality row, a free side, or no bound at all.
ROW_KINDS = ("two_sided", "equal", "lower_only", "upper_only", "free")


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 6), kinds=st.lists(st.sampled_from(ROW_KINDS), max_size=10),
       nan_at=st.one_of(st.none(), st.integers(0, 5)), scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
       seed=st.integers(0, 2**32 - 1))
def test_residuals_match_the_reference_bits(n, kinds, nan_at, scale, seed):
    rng = np.random.default_rng(seed)
    m = len(kinds)
    factor = rng.standard_normal((n, n))
    a = rng.standard_normal((m, n))
    a[rng.random((m, n)) < 0.2] = 0.0
    x = scale * rng.standard_normal(n)
    if nan_at is not None:
        x[nan_at % n] = np.nan
    # Boxes around random centres, so that A x falls inside, above and below them.
    centre = a @ rng.standard_normal(n)
    width = rng.uniform(0.0, 2.0, m)
    lower, upper = centre - width, centre + width
    for i, kind in enumerate(kinds):
        if kind == "equal":
            lower[i] = upper[i]
        elif kind in ("upper_only", "free"):
            lower[i] = -np.inf
        if kind in ("lower_only", "free"):
            upper[i] = np.inf
    qp = QPProblem(factor.T @ factor, rng.standard_normal(n), a, lower, upper)
    y = rng.standard_normal(m)
    with np.errstate(invalid="ignore"):
        got, expected = residuals(qp, x, y), reference_residuals(qp, x, y)
    assert np.array(got).tobytes() == np.array(expected).tobytes()
