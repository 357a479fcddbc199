"""Dense primal active-set solver for box-and-equality QPs.

    min 1/2 x^T W x + g^T x   s.t.  A^T x = b,  lb <= x <= ub

A holds the equality gradients column-wise (n x m). The working set is the
equalities plus a subset of active bounds; steps live in the null space of
the free-row Jacobian. Each working set is one face (_Face), which gathers
the free rows of A once and is factored once: its factors serve every pass
(and the warm start) that sees the set unchanged. Their pivoted QR, split
at its numerical rank, gives the null-space basis Z, the warm start's
minimum-norm point and, at full column rank, the equality multipliers; a
rank-deficient working set gets the minimum-norm multipliers of lstsq, so
dependent equalities need no other handling. The first pass that reads a
face classifies its reduced Hessian Z^T W Z: a Cholesky factor that
certifies every eigenvalue above the zero band gives Newton steps; failing
that, eigh and one band test do for a positive definite block, and negative
or zero curvature gives a ray walked to its blocking bound (no bound means
the QP is unbounded). With W identically zero (phase-1 LPs) the reduced
Hessian needs no factorization. A caller that has factored A and Z^T W Z
already (convexify does) seeds the all-free face with them (free_factors).
Feasibility first tries the origin and then the minimum-norm least-squares
solution of A^T x = b, each clipped to the box. When neither satisfies the
equalities, an elastic l1 LP over every equality column runs; it is the
fallback and the only source of an infeasibility verdict, its optimal
residual serving as the certificate. Every verdict returns the LP's final
point and working set, so that an elastic QP over the same constraints
(restoration) starts from them. A solution reports whether its warm start
hit.
Nearly every QP of a solve is a warm start that hits and then passes the
multiplier check with no pivot, so that path runs only the array calls its
result reads, each giving the bits the general path would: the box's
pinned mask is worked out once per QP, the face with every variable free
reads A, W, g and the box in place, a box with no finite bound skips the
pad test and the clip, and a face with no bound returns mu = 0 at once.
Anti-cycling: greedy pivot choice for the first half of the pivot budget,
Bland's rule afterwards; a budget of 2 * max_pivots + 2 passes also stops
steps that never pivot. A Newton step no larger than machine epsilon times
|x_i| in every entry is a zero step, since it moves x by its rounding only.
A small nonconvex box-only QP then gets a face scan, whose faces are warm
starts on each face's bound codes, each free set factored once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, MaxPivots
from .linalg import (ZERO_EIG_REL, certified_cholesky, cholesky_solve,
                     nullspace_basis)

ELASTIC_TOL = 1e-10          # phase-1 residual above this is infeasible
GAP_CAP = 1e10               # stand-in gap for infinite bounds in complementarity
STATIONARY_REL = 1e-10       # reduced-gradient zero test
MU_SIGN_REL = 1e-9           # bound-multiplier sign tolerance
FACE_ENUM_MAX = 6            # box-only nonconvex polish up to 3^6 faces
EPS = float(np.finfo(float).eps)   # machine epsilon: the zero-step test

FREE, LOWER, UPPER, PINNED = 0, -1, 1, 2


@dataclass
class QpData:
    W: np.ndarray
    g: np.ndarray
    A: np.ndarray            # (n, m), column j = gradient of equality j
    b: np.ndarray            # (m,), A^T x = b
    lb: np.ndarray
    ub: np.ndarray

    @property
    def n(self) -> int:
        return self.g.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[0]


def qp_objective(qp: QpData, x: np.ndarray) -> float:
    """The QP's objective 1/2 x^T W x + g^T x at x."""
    return float(0.5 * x @ qp.W @ x + qp.g @ x)


@dataclass
class QpSolution:
    status: str              # 'optimal' | 'infeasible' | 'unbounded'
    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    n_pivots: int
    active: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int8))
    warm_start: str | None = None    # 'hit' | 'miss', None without a hint
    # with an 'infeasible' verdict: phase 1's elastic LP's final
    # z = (x, u, v) and working set, a feasible point and a working set for
    # the elastic QP over the same constraints
    lp: tuple | None = None


def complementarity(x, lb, ub, mu) -> float:
    """Worst |mu_i| * gap, the gap taken on the side mu_i pushes against;
    pinned variables are skipped."""
    gap = np.where(mu > 0.0, x - lb, ub - x)
    return float((np.abs(mu) * np.minimum(gap, GAP_CAP)).max(
        initial=0.0, where=lb != ub))


def kkt_residual(qp: QpData, sol: QpSolution) -> float:
    """Max violation over stationarity, primal, bounds, sign, complementarity."""
    x, lam, mu = sol.x, sol.lam, sol.mu
    r_st = np.abs(qp.W @ x + qp.g - qp.A @ lam - mu).max(initial=0.0)
    r_eq = np.abs(qp.A.T @ x - qp.b).max(initial=0.0)
    r_lb = (qp.lb - x).max(initial=0.0)
    r_ub = (x - qp.ub).max(initial=0.0)
    # mu > 0 claims the lower bound, mu < 0 the upper one
    unbacked = (qp.lb != qp.ub) & (((mu > 0.0) & (qp.lb == -np.inf))
                                   | ((mu < 0.0) & (qp.ub == np.inf)))
    r_sign = np.abs(mu[unbacked]).max(initial=0.0)
    return max(r_st, r_eq, r_lb, r_ub, r_sign,
               complementarity(x, qp.lb, qp.ub, mu))


def elastic_problem(A, b, lb, ub, W=None):
    """min 1/2 x^T W x + sum(u + v)  s.t.  A^T x - u + v = b, lb <= x <= ub,
    u, v >= 0, over z = (x, u, v); W = None is the l1 LP. Returns (QpData,
    z0): z0 is the clipped origin with its residual loaded on u and v."""
    n, m = A.shape
    N = n + 2 * m
    We = np.zeros((N, N))
    if W is not None:
        We[:n, :n] = W
    g = np.zeros(N)
    g[n:] = 1.0
    x0 = np.zeros(n).clip(lb, ub)
    r = A.T @ x0 - b
    eye = np.eye(m)
    # -I keeps its -0.0 off the diagonal
    data = QpData(W=We, g=g, A=np.concatenate((A, -eye, eye)), b=b,
                  lb=np.concatenate((lb, np.zeros(2 * m))),
                  ub=np.concatenate((ub, np.full(2 * m, np.inf))))
    return data, np.concatenate((x0, np.maximum(r, 0.0), np.maximum(-r, 0.0)))


class _Face:
    """One working set, named by its free variables `free`. With every
    variable free (`every`) it reads A, W and the gradient in place, else it
    gathers A's free rows once (`rows`). It holds their pivoted QR `qr` and
    H = Z^T W[free, free] Z, None for a zero W or a Z with no column.
    classify() gives H's class: a certified Cholesky factor `chol`, or else
    eigh's ascending w and V and the masks `neg` and `zero` of the
    eigenvalues below and in the zero band."""

    def __init__(self, core, free, qr=None, H=None):
        self.free, self.key, self.n = free, free.tobytes(), core.n
        self.every = free.size == core.n
        # in C order, as the copy A[free] holds them
        self.rows = np.ascontiguousarray(core.A) if self.every \
            else core.A[free]
        self.qr = qr = nullspace_basis(self.rows) if qr is None else qr
        if core.w_zero or not qr.Z.shape[1]:
            H = None
        elif H is None:
            Wf = core.W if self.every else core.W[np.ix_(free, free)]
            H = qr.Z.T @ Wf @ qr.Z
        self.H, self.chol, self.w = H, None, None

    def move(self, core, free):
        """The face of `free`: this one if unchanged, else one from scratch."""
        return self if self.key == free.tobytes() else _Face(core, free)

    def classify(self):
        if self.H is None:
            # eigh of the zero matrix: the same values, without the solve
            k = self.qr.Z.shape[1]
            self.w, self.V = np.zeros(k), np.eye(k)
        else:
            self.chol = certified_cholesky(self.H, ZERO_EIG_REL)
            if self.chol is not None:
                return
            self.w, self.V = np.linalg.eigh(0.5 * (self.H + self.H.T))
        tol = ZERO_EIG_REL * max(1.0, float(np.abs(self.w).max(initial=0.0)))
        self.neg, self.zero = self.w < -tol, np.abs(self.w) <= tol

    def gather(self, v):
        """v's free entries: v itself when every variable is free."""
        return v if self.every else v[self.free]

    def embed(self, p_f):
        """p_f scattered into zeros(n), or p_f itself when all are free."""
        if self.every:
            return p_f
        p = np.zeros(self.n)
        p[self.free] = p_f
        return p

    def newton(self, q, pos=slice(None)):
        """Newton step -H^-1 q in null-space coordinates; without a Cholesky
        factor, over the eigenvectors selected by pos (default all)."""
        if self.chol is not None:
            return -cholesky_solve(self.chol, q)
        V = self.V[:, pos]
        return -(V @ ((V.T @ q) / self.w[pos]))


class _Core:
    """Active-set iteration on a feasible point."""

    def __init__(self, W, g, A, b, lb, ub, max_pivots, free_factors=None):
        self.W, self.g, self.A, self.b = W, g, A, b
        self.lb, self.ub = lb, ub
        self.n = g.shape[0]
        self.every = np.arange(self.n)
        # what every working set reads of the box: which variables are
        # pinned, and whether any bound is finite
        self.pinned = lb == ub
        self.boxed = bool(np.count_nonzero(np.isfinite(lb))
                          or np.count_nonzero(np.isfinite(ub)))
        self.w_zero = not np.count_nonzero(W)
        self.max_pivots = max_pivots
        self.half = max_pivots // 2
        self.pivots = 0
        # the last working set's face; free_factors seed the all-free one
        self.face = free_factors and _Face(self, self.every, *free_factors)

    def run(self, x, work):
        """Iterate to optimality. Returns (status, x, lam, mu, work)."""
        # a pass that does not pivot is a full step, and the pass after it
        # ends in a multiplier check or a pivot: a solve inside the pivot
        # budget makes at most 2 * max_pivots + 2 passes
        max_passes = 2 * self.max_pivots + 2
        passes = 0
        while True:
            passes += 1
            if self.pivots > self.max_pivots or passes > max_passes:
                raise MaxPivots(
                    f"active-set budget of {self.max_pivots} pivots "
                    f"({max_passes} passes) exhausted")
            grad = self.W @ x + self.g
            free = np.flatnonzero(work == FREE) if np.count_nonzero(work) \
                else self.every
            move = self._direction(x, grad, free)
            if move is None:
                lam, mu, drop = self._multipliers(grad, work, free)
                if drop is None:
                    return "optimal", x, lam, mu, work
                work[drop] = FREE
                self.pivots += 1
                continue
            p, ray = move
            alpha, block = self._ratio(x, p, np.inf if ray else 1.0)
            if ray and block is None:
                return "unbounded", x, None, None, work
            if np.isfinite(alpha) and alpha > 0.0:
                x = x + alpha * p
            if block is not None:
                side = LOWER if p[block] < 0.0 else UPPER
                x[block] = self.lb[block] if side == LOWER else self.ub[block]
                work[block] = side
                self.pivots += 1
            # a full Newton step changes no working set; the next pass sees a
            # stationary reduced gradient and falls through to multipliers

    # -- factors of the working set --

    def reduced(self, free):
        """The face of the free variables `free`, classified."""
        face = self.face = _Face(self, free) if self.face is None \
            else self.face.move(self, free)
        if face.chol is None and face.w is None:
            face.classify()
        return face

    def warm_start(self, codes):
        """Jump straight to the equality QP on a hinted active set.

        Returns (x, work) when the hinted EQP is solvable, strictly convex on
        its null space, and lands inside the box; None otherwise.

        With every variable free, A, W, g and the box are read in place
        (see the module docstring), and the fixed block's terms are the
        zeros they would add: rhs = b - 0 is b, and g + 0 still turns -0.0
        into +0.0.
        """
        W, g, A, b, lb, ub = self.W, self.g, self.A, self.b, self.lb, self.ub
        work = np.array(codes, dtype=np.int8)
        work[self.pinned] = PINNED
        every = self.n > 0 and not np.count_nonzero(work)
        if every:
            free, rhs = self.every, b
        else:
            fixed = work != FREE
            x = np.zeros(self.n)
            x[work == LOWER] = lb[work == LOWER]
            x[work == UPPER] = ub[work == UPPER]
            x[work == PINNED] = lb[work == PINNED]
            if not np.isfinite(x[fixed]).all():
                return None
            free = np.flatnonzero(~fixed)
            rhs = b - A[fixed].T @ x[fixed]
        tol = 1e-9 * (1.0 + np.abs(b).max(initial=0.0))
        if free.size == 0:
            return None if np.abs(rhs).max(initial=0.0) > tol else (x, work)
        f = self.reduced(free)
        xf0 = f.qr.range_point(rhs)
        if np.abs(f.rows.T @ xf0 - rhs).max(initial=0.0) > tol:
            return None
        xf, Z = xf0, f.qr.Z
        if Z.shape[1]:
            if f.chol is None and (f.neg[0] or f.zero[0]):
                return None
            if every:
                gf = g + 0.0
                gf += W @ xf0
            else:
                gf = g[free] + W[np.ix_(free, fixed.nonzero()[0])] \
                    @ x[fixed] + W[np.ix_(free, free)] @ xf0
            xf = xf0 + Z @ f.newton(Z.T @ gf)
        if not self.boxed:
            # with no finite bound a fixed variable would be infinite, so
            # every variable is free here
            return xf, work
        lb_free, ub_free = f.gather(lb), f.gather(ub)
        pad = 1e-10 * (1.0 + np.abs(xf).max(initial=0.0))
        if np.count_nonzero(xf < lb_free - pad) \
                or np.count_nonzero(xf > ub_free + pad):
            return None
        if every:
            return xf.clip(lb, ub), work
        x[free] = xf.clip(lb_free, ub_free)
        return x, work

    # -- direction choice --

    def _direction(self, x, grad, free):
        """Newton step, curvature ray, or None when reduced-stationary."""
        if free.size == 0:
            return None
        f = self.reduced(free)
        Z = f.qr.Z
        if Z.shape[1] == 0:
            return None
        q = Z.T @ f.gather(grad)
        q_tol = STATIONARY_REL * (1.0 + float(np.abs(grad).max(initial=0.0)))
        if f.chol is not None:
            if np.abs(q).max() <= q_tol:
                return None
            pz = f.newton(q)
        else:
            if f.neg.any():
                v = f.V[:, int(np.argmin(f.w))]
                return self._orient_ray(x, f, v, q), True
            if f.zero.any():
                qz = f.V[:, f.zero] @ (f.V[:, f.zero].T @ q)
                if np.abs(qz).max(initial=0.0) > q_tol:
                    if not np.isfinite(np.linalg.norm(qz)):
                        qz = qz / np.abs(qz).max()    # its norm overflowed
                    v = -qz / np.linalg.norm(qz)
                    return f.embed(Z @ v), True
            if np.abs(q).max(initial=0.0) <= q_tol:
                return None
            pz = f.newton(q, ~(f.neg | f.zero))
        p = f.embed(Z @ pz)
        # a step within the rounding of x makes no progress: x would only
        # flip between adjacent doubles until the pass budget ran out
        if np.abs(p).max(initial=0.0) <= q_tol or \
                (np.abs(p) <= EPS * np.abs(x)).all():
            return None
        return p, False

    def _orient_ray(self, x, f, v, q):
        slope = float(q @ v)
        if abs(slope) > 1e-12 * (1.0 + abs(slope)):
            return f.embed(f.qr.Z @ (-v if slope > 0.0 else v))
        # flat negative-curvature ray: march whichever endpoint is lower
        p_plus = f.embed(f.qr.Z @ v)
        p_minus = -p_plus
        a_plus, _ = self._ratio(x, p_plus, np.inf)
        a_minus, _ = self._ratio(x, p_minus, np.inf)
        if not np.isfinite(a_plus):
            return p_plus
        if not np.isfinite(a_minus):
            return p_minus
        f_plus = self._phi(x + a_plus * p_plus)
        f_minus = self._phi(x + a_minus * p_minus)
        return p_plus if f_plus <= f_minus else p_minus

    def _phi(self, x):
        return float(0.5 * x @ self.W @ x + self.g @ x)

    # -- ratio test --

    def _ratio(self, x, p, alpha_cap):
        """Largest step along p keeping the box; returns (alpha, blocking).
        The loop reads Python floats, which give the values numpy scalars
        would at a fraction of the cost per entry."""
        alpha = alpha_cap
        candidates = []
        tol = 1e-14 * (1.0 + float(np.abs(p).max()))
        moving = np.flatnonzero(np.abs(p) > tol)
        for i, p_i, x_i, lb_i, ub_i in zip(
                moving.tolist(),
                *(v[moving].tolist() for v in (p, x, self.lb, self.ub))):
            if p_i > 0.0:
                if math.isfinite(ub_i):
                    candidates.append((max(ub_i - x_i, 0.0) / p_i, i))
            else:
                if math.isfinite(lb_i):
                    candidates.append((max(x_i - lb_i, 0.0) / (-p_i), i))
        if not candidates:
            return alpha, None
        a_min = min(a for a, _ in candidates)
        if a_min >= alpha:
            return alpha, None
        near = [(a, i) for a, i in candidates
                if a <= a_min + 1e-12 * (1.0 + a_min)]
        if self.pivots <= self.half:
            # greedy: among ties take the largest displacement component
            block = max(near, key=lambda t: abs(p[t[1]]))[1]
        else:
            block = min(near, key=lambda t: t[1])[1]
        return a_min, block

    # -- multiplier check --

    def _multipliers(self, grad, work, free):
        if free.size:
            # the pass that found x reduced-stationary factored this set
            f = self.reduced(free)
            if f.qr.rank == self.A.shape[1]:
                lam = f.qr.multipliers(f.gather(grad))
            else:
                # the minimum-norm lam decides which bound is dropped
                lam = np.linalg.lstsq(f.rows, f.gather(grad), rcond=None)[0]
            if f.every:
                # no bound in the working set: mu = 0, with no sign to check
                return lam, np.zeros(self.n), None
        elif self.A.shape[1]:
            lam = np.linalg.lstsq(self.A, grad, rcond=None)[0]
        else:
            lam = np.zeros(0)
        mu = grad - self.A @ lam
        mu[free] = 0.0
        tol = MU_SIGN_REL * (1.0 + float(np.abs(grad).max(initial=0.0)))
        viol = np.zeros(self.n)
        at_lower = work == LOWER
        at_upper = work == UPPER
        viol[at_lower] = np.maximum(-mu[at_lower] - tol, 0.0)
        viol[at_upper] = np.maximum(mu[at_upper] - tol, 0.0)
        if not (viol > 0.0).any():
            return lam, mu, None
        if self.pivots <= self.half:
            drop = int(np.argmax(viol))
        else:
            drop = int(np.flatnonzero(viol > 0.0)[0])
        return lam, mu, drop


def _initial_work(x, lb, ub):
    work = np.zeros(x.shape[0], dtype=np.int8)
    work[lb == ub] = PINNED
    loose = work == FREE
    work[loose & (x <= lb + 0.0)] = LOWER
    work[(work == FREE) & (x >= ub - 0.0)] = UPPER
    return work


def _phase1(A, b, lb, ub, max_pivots):
    """Feasible point for A^T x = b inside the box.

    Returns (start, pivots, lp): start is (x, work), or None when the
    elastic LP certifies infeasibility; pivots counts the LP's pivots; lp is
    the LP's final (z, work) when it ran, else None. The clipped origin and
    the clipped least-squares point are tried first; only the LP may declare
    the constraints infeasible.
    """
    n, m = A.shape
    x0 = np.zeros(n).clip(lb, ub)
    if m == 0 or np.abs(A.T @ x0 - b).max(initial=0.0) <= ELASTIC_TOL:
        return (x0, _initial_work(x0, lb, ub)), 0, None
    x_ls = np.linalg.lstsq(A.T, b, rcond=None)[0].clip(lb, ub)
    if np.abs(A.T @ x_ls - b).sum() <= ELASTIC_TOL:
        return (x_ls, _initial_work(x_ls, lb, ub)), 0, None
    z, work, resid, pivots = _elastic_lp(A, b, lb, ub, max_pivots)
    lp = None if z is None else (z, work)
    if resid > ELASTIC_TOL:
        return None, pivots, lp
    # ties in the LP's ratio test can leave a coordinate a rounding error
    # past its bound
    x = z[:n].clip(lb, ub)
    return (x, _initial_work(x, lb, ub)), pivots, lp


def _elastic_lp(A, b, lb, ub, max_pivots):
    """The l1 LP of elastic_problem from its z0. Returns (z, work,
    sum(u + v), pivots) at its end; z and work are None and the sum inf when
    the LP ends unsolved."""
    n = A.shape[0]
    lp, z0 = elastic_problem(A, b, lb, ub)
    core = _Core(lp.W, lp.g, lp.A, lp.b, lp.lb, lp.ub, max_pivots)
    status, z, _, _, work = core.run(z0, _initial_work(z0, lp.lb, lp.ub))
    if status != "optimal":
        return None, None, np.inf, core.pivots
    return z, work, float(z[n:].sum()), core.pivots


def _face_enumeration(core):
    """Global minimum of a small box QP by face enumeration.

    The minimum of a bounded quadratic over a box sits on a face whose
    reduced Hessian is positive semidefinite; flat directions slide to a
    smaller face at equal objective, so corners plus faces with positive
    definite blocks cover the optimum. The warm start solves each face and
    refuses one whose block is not positive definite or whose minimizer
    leaves the box. A pinned variable has one face, so only the others'
    codes are enumerated. Codes with the same free set share one _Face,
    handed back to the core before its warm start. Returns (objective, x,
    work), x None when none is left.
    """
    best = np.inf, None, None
    codes = np.full(core.n, PINNED, dtype=np.int8)
    loose = np.flatnonzero(~core.pinned)
    faces = {}
    for sides in itertools.product((FREE, LOWER, UPPER), repeat=loose.size):
        codes[loose] = sides
        key = np.flatnonzero(codes == FREE).tobytes()
        core.face = faces.get(key, core.face)
        start = core.warm_start(codes)
        faces[core.face.key] = core.face
        if start is not None:
            obj = core._phi(start[0])
            if obj < best[0]:
                best = obj, *start
    return best


def solve_qp(qp: QpData, warm_start: np.ndarray | None = None,
             feasible_start: np.ndarray | None = None,
             max_pivots: int | None = None,
             free_factors: tuple | None = None) -> QpSolution:
    """Solve the QP. warm_start hints an active set (codes -1/0/+1 per
    variable); feasible_start supplies a point already satisfying all
    constraints, skipping the elastic phase. free_factors = (qr, H), the
    nullspace_basis of qp.A and the k x k reduced Hessian Z^T W Z, as
    convexify returns them, seed the face with every variable free."""
    n, m = qp.n, qp.m
    W = 0.5 * (qp.W + qp.W.T)
    g = np.asarray(qp.g, dtype=float)
    A = np.asarray(qp.A, dtype=float).reshape(n, m)
    b = np.asarray(qp.b, dtype=float)
    lb = np.asarray(qp.lb, dtype=float)
    ub = np.asarray(qp.ub, dtype=float)
    # lb <= ub is false for NaN. A box without a real point must stop here
    # as bad data: the core would walk x to inf or NaN, where every pass is
    # a step that blocks on no bound, until its pass budget ran out. Past
    # lb <= ub, no lb may be +inf and no ub -inf: one reduction each.
    if not ((lb <= ub).all() and lb.max(initial=-np.inf) < np.inf
            and ub.min(initial=np.inf) > -np.inf):
        raise DimensionMismatch("empty box: no real x with lb <= x <= ub")
    # a NaN or inf in the data sends the core the same way
    if not np.isfinite(np.concatenate((W.ravel(), g, A.ravel(), b))).all():
        raise DimensionMismatch("NaN or inf in W, g, A or b")
    if max_pivots is None:
        max_pivots = 50 * (n + m)

    core = _Core(W, g, A, b, lb, ub, max_pivots, free_factors)

    start = hint = None
    phase1_pivots = 0
    if warm_start is not None:
        start = core.warm_start(warm_start)
        hint = "miss" if start is None else "hit"
    if start is None and feasible_start is not None:
        x = np.asarray(feasible_start, dtype=float).clip(lb, ub)
        if np.abs(A.T @ x - b).max(initial=0.0) <= 1e-8 * (
                1.0 + np.abs(b).max(initial=0.0)):
            start = x, _initial_work(x, lb, ub)
    if start is None:
        start, phase1_pivots, lp = _phase1(A, b, lb, ub, max_pivots)
        if start is None:
            return QpSolution(status="infeasible", x=np.zeros(n),
                              lam=np.zeros(m), mu=np.zeros(n),
                              n_pivots=phase1_pivots, warm_start=hint, lp=lp)

    status, x, lam, mu, work = core.run(*start)
    core.pivots += phase1_pivots
    if status == "unbounded":
        return QpSolution(status="unbounded", x=x, lam=np.zeros(m),
                          mu=np.zeros(n), n_pivots=core.pivots, active=work,
                          warm_start=hint)

    # active-set iteration is local; on small box-only nonconvex problems a
    # face scan certifies (or repairs) global optimality. A certified
    # Cholesky factor of the all-free W means a convex QP.
    if 0 < n <= FACE_ENUM_MAX and not A.any():
        f = core.reduced(core.every)
        if f.chol is None and f.neg[0]:
            obj_loc = core._phi(x)
            obj_enum, x_enum, work_enum = _face_enumeration(core)
            if x_enum is not None and obj_enum < obj_loc - 1e-12 * (
                    1.0 + abs(obj_loc)):
                x, work = x_enum, work_enum
                mu = W @ x + g
                mu[work == FREE] = 0.0
                lam = np.zeros(m)

    return QpSolution(status="optimal", x=x, lam=lam, mu=mu,
                      n_pivots=core.pivots, active=work, warm_start=hint)
