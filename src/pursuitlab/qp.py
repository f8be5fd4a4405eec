"""Two solvers for small dense convex QPs.

``admm_solve`` is an operator-splitting ADMM solver for

    minimize    0.5 x' P x + q' x
    subject to  l <= A x <= u

that alternates a regularized KKT solve with projection onto [l, u],
using over-relaxation and an adaptive penalty. Equality rows are simply
rows with l == u. Bounds may be +-inf; the MPC poses its one-sided rows
``C u <= h`` with ``l = -inf``, as OSQP does (Stellato et al., 2020), so
its ``y`` are the active-set solver's multipliers. The problems are small
(the MPC's has 16 variables and 46 rows), so the data is dense and the KKT
matrix is inverted once per penalty value.

``active_set_solve`` is a primal active-set solver for strictly convex
QPs with inequality rows only,

    minimize    0.5 u' H u + g' u
    subject to  C u <= h,

started from a feasible point and an initial working set (Nocedal &
Wright, Numerical Optimization, 2006, Alg. 16.3). Each iteration solves
one KKT system over the working set. It then either stops short of that
system's optimum at a new row, which joins the working set, or reaches the
optimum and, with the multipliers of the same solve, stops or drops one
row; no working set is solved twice in a row. A warm start from a nearby
problem's active set needs few iterations (the idea of qpOASES, Ferreau
et al., Math. Prog. Comp. 2014).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_RHO = 0.1
DEFAULT_SIGMA = 1e-6
OVER_RELAXATION = 1.6
RHO_RESCALE = 10.0
RHO_CHECK_INTERVAL = 25
RHO_LIMITS = (1e-6, 1e6)
RHO_EQUALITY_BOOST = 1e3
# The active-set loop stops after this many iterations per row of C (plus one).
ACTIVE_SET_ITER_PER_ROW = 3
# A step no longer than this counts as zero, and a row enters the ratio test
# only if the step moves towards it by more than this, so rounding neither
# repeats a step nor re-adds a row just dropped at a zero multiplier.
STEP_TOL = 1e-12


@dataclass
class QPProblem:
    """Dense QP data. ``P`` must be symmetric PSD and ``l <= u`` elementwise."""

    P: np.ndarray
    q: np.ndarray
    A: np.ndarray
    l: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.q = np.asarray(self.q, dtype=float).ravel()
        self.l = np.asarray(self.l, dtype=float).ravel()
        self.u = np.asarray(self.u, dtype=float).ravel()
        n = self.q.shape[0]
        m = self.l.shape[0]
        if self.P.shape != (n, n):
            raise ValueError("P must be n x n")
        if np.any(np.abs(self.P - self.P.T) > 1e-12):
            raise ValueError("P must be symmetric")
        if self.A.shape != (m, n):
            raise ValueError("A shape inconsistent with q and bounds")
        if self.u.shape[0] != m:
            raise ValueError("l and u must have equal length")
        if np.any(self.l > self.u):
            raise ValueError("requires l <= u elementwise")

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def m(self) -> int:
        return self.l.shape[0]

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ (self.P @ x) + self.q @ x)


@dataclass
class ADMMResult:
    x: np.ndarray
    y: np.ndarray  # dual multipliers for the l <= Ax <= u rows
    primal_residual: float
    dual_residual: float
    iterations: int
    converged: bool


def _rho_vector(qp: QPProblem, rho: float) -> np.ndarray:
    """Per-row penalty: equality rows (l == u) get a stiffer weight."""
    rho_vec = np.full(qp.m, rho)
    rho_vec[qp.l == qp.u] = rho * RHO_EQUALITY_BOOST
    return rho_vec


def _kkt_inverse(qp: QPProblem, rho_vec: np.ndarray, sigma: float) -> np.ndarray:
    """Inverse of the quasi-definite KKT matrix for one penalty vector."""
    kkt = np.block([[qp.P + sigma * np.eye(qp.n), qp.A.T],
                    [qp.A, -np.diag(1.0 / rho_vec)]])
    return np.linalg.inv(kkt)


def admm_solve(qp: QPProblem, tol_primal: float = 1e-6, tol_dual: float = 1e-6,
               max_iter: int = 4000, rho: float = DEFAULT_RHO,
               sigma: float = DEFAULT_SIGMA, x0=None, y0=None) -> ADMMResult:
    """Solve ``qp``; returns residuals so callers can verify convergence.

    Non-convergence at ``max_iter`` is not an error: the result carries
    ``converged=False`` plus the residuals and the caller decides.
    ``x0``/``y0`` warm-start the iteration.
    """
    n, m = qp.n, qp.m
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    y = np.zeros(m) if y0 is None else np.asarray(y0, dtype=float).copy()
    z = np.clip(qp.A @ x, qp.l, qp.u)

    rho_vec = _rho_vector(qp, rho)
    kkt_inv = _kkt_inverse(qp, rho_vec, sigma)
    alpha = OVER_RELAXATION
    rhs = np.empty(n + m)

    primal = np.inf
    dual = np.inf
    for iteration in range(1, max_iter + 1):
        rhs[:n] = sigma * x - qp.q
        rhs[n:] = z - y / rho_vec
        sol = kkt_inv @ rhs
        x_tilde = sol[:n]
        z_tilde = z + (sol[n:] - y) / rho_vec

        x = alpha * x_tilde + (1.0 - alpha) * x
        z_relaxed = alpha * z_tilde + (1.0 - alpha) * z
        z_new = np.clip(z_relaxed + y / rho_vec, qp.l, qp.u)
        y = y + rho_vec * (z_relaxed - z_new)
        z = z_new

        primal = float(np.linalg.norm(qp.A @ x - z, np.inf)) if m else 0.0
        dual = float(np.linalg.norm(qp.P @ x + qp.q + qp.A.T @ y, np.inf))
        if primal < tol_primal and dual < tol_dual:
            return ADMMResult(x, y, primal, dual, iteration, True)

        if iteration % RHO_CHECK_INTERVAL == 0:
            new_rho = rho
            if primal > RHO_RESCALE * dual:
                new_rho = rho * RHO_RESCALE
            elif dual > RHO_RESCALE * primal:
                new_rho = rho / RHO_RESCALE
            new_rho = min(max(new_rho, RHO_LIMITS[0]), RHO_LIMITS[1])
            if new_rho != rho:
                rho = new_rho
                rho_vec = _rho_vector(qp, rho)
                kkt_inv = _kkt_inverse(qp, rho_vec, sigma)

    return ADMMResult(x, y, primal, dual, max_iter, False)


def residuals(qp: QPProblem, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Primal and dual residuals of ``(x, y)`` on ``qp``, in ``admm_solve``'s terms.

    The primal residual is the largest bound violation of ``A x`` (ADMM's
    ``A x - z`` with ``z`` the projection of ``A x`` onto ``[l, u]``), the
    largest of ``A x - u``, ``l - A x`` and 0; the dual residual is the
    largest entry of ``|P x + q + A' y|``. Both are the bits of the infinity
    norms of those vectors, NaN included.
    """
    ax = qp.A @ x
    # abs() clears the sign bit of a -0.0 or NaN maximum, as a norm would.
    primal = abs(float(np.maximum(ax - qp.u, qp.l - ax).max(initial=0.0)))
    dual = float(np.abs(qp.P @ x + qp.q + qp.A.T @ y).max())
    return primal, dual


@dataclass
class ActiveSetResult:
    x: np.ndarray
    multipliers: np.ndarray  # one per row of C: >= 0, zero off the working set
    iterations: int  # KKT solves
    converged: bool


def active_set_solve(H: np.ndarray, g: np.ndarray, C: np.ndarray, h: np.ndarray,
                     x0: np.ndarray, working=(), max_iter: int = 4000,
                     tol: float = 1e-9) -> ActiveSetResult:
    """Primal active-set solve of ``min 0.5 x'Hx + g'x  s.t.  C x <= h``.

    ``H`` must be positive definite on the null space of every working set.
    ``x0`` must satisfy ``C x0 <= h + tol``; the rows listed in ``working``
    must be linearly independent and tight at ``x0``. An iteration solves
    the KKT system of the working set once and moves towards its optimum.
    If a row outside the set blocks the step, x stops there and the row
    joins the set. Otherwise x takes the optimum, and the multipliers of
    that solve end the loop when none is negative, or else release the
    row with the most negative one. So ``iterations`` counts KKT solves,
    and the loop stops after
    ``min(max_iter, ACTIVE_SET_ITER_PER_ROW * (len(h) + 1))`` of them.
    An infeasible start or the iteration cap returns
    ``converged=False``; a singular KKT matrix raises
    ``numpy.linalg.LinAlgError``.
    """
    n, m = g.shape[0], h.shape[0]
    x = np.asarray(x0, dtype=float).copy()
    multipliers = np.zeros(m)
    if m and np.max(C @ x - h) > tol:
        return ActiveSetResult(x, multipliers, 0, False)
    work = list(working)
    cap = min(max_iter, ACTIVE_SET_ITER_PER_ROW * (m + 1))
    for iteration in range(1, cap + 1):
        k = len(work)
        rows = C[work]
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = H
        kkt[:n, n:] = rows.T
        kkt[n:, :n] = rows
        sol = np.linalg.solve(kkt, np.concatenate([-g, h[work]]))
        step = sol[:n] - x
        if np.abs(step).max() > STEP_TOL:
            # Move towards the optimum on the working set, stopping at the
            # nearest row outside it that the step would cross (at once for
            # a row the start violates within tol).
            towards = C @ step
            towards[work] = 0.0
            candidates = np.flatnonzero(towards > STEP_TOL)
            if candidates.size:
                ratios = (h[candidates] - C[candidates] @ x) / towards[candidates]
                nearest = ratios.argmin()
                if ratios[nearest] < 1.0:
                    x = x + max(ratios[nearest], 0.0) * step
                    work.append(int(candidates[nearest]))
                    continue
        # x reaches the optimum on the working set, whose multipliers this
        # solve already holds: done if none is negative, else release the
        # row with the most negative one.
        x = sol[:n]
        lam = sol[n:]
        if k == 0 or lam.min() >= 0.0:
            multipliers[work] = lam
            return ActiveSetResult(x, multipliers, iteration, True)
        work.pop(int(lam.argmin()))
    return ActiveSetResult(x, multipliers, cap, False)
