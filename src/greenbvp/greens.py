"""Green's functions for the six boundary condition families.

For a nonresonant problem the kernel is represented semi-analytically: the
impulse (Cauchy) kernel carries the diagonal jump, and per integration
segment a combination of fundamental solutions enforces the boundary and
continuity conditions.  The combination coefficients solve one sparse
block-bidiagonal system (plus the boundary rows) whose matrix is independent
of the source point s, so a single sparse LU factorization serves every
evaluation.

Spectra and kernels share one resonance criterion: the d x d matrix
M = C W / ||C||_2 of the boundary functionals C on an orthonormal basis W of
the solution graph {(x, Phi(T) x)}, marched over the segments so that Phi(T)
is never formed.  det M is the characteristic function whose zeros are the
eigenvalues, and sigma_min(M) is the resonance margin of a kernel; both are
bounded by one and do not depend on the segment count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array
from scipy.sparse.linalg import splu

from .integrate import DEFAULT_TOL, FundamentalSystem, integrate_fundamental, \
    integrate_fundamental_batch
from .operators import LinearOperator

__all__ = [
    "BCKind",
    "BoundaryFunctional",
    "ProblemSpec",
    "ResonantProblemError",
    "boundary_functionals",
    "boundary_matrix",
    "char_det",
    "char_det_scan",
    "build_greens",
    "GreensEvaluator",
]

RESONANCE_THRESHOLD = 1e-10


class BCKind(enum.Enum):
    NEUMANN = "neumann"
    DIRICHLET = "dirichlet"
    MIXED1 = "mixed1"
    MIXED2 = "mixed2"
    PERIODIC = "periodic"
    ANTIPERIODIC = "antiperiodic"

    @classmethod
    def from_name(cls, name: str) -> "BCKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown boundary kind {name!r}; expected one of {valid}") from None


@dataclass(frozen=True)
class BoundaryFunctional:
    """One boundary condition row: a derivative order, an endpoint selector
    ("left", "right" or "both") and the pairing sign of the right-end term.

    For "both", the functional is u^(order)(0) + sign * u^(order)(end):
    sign -1 encodes periodic pairing, +1 antiperiodic pairing.
    """

    order: int
    where: str
    sign: float = 1.0

    @property
    def left_coeff(self) -> float:
        return 1.0 if self.where in ("left", "both") else 0.0

    @property
    def right_coeff(self) -> float:
        if self.where == "right":
            return 1.0
        if self.where == "both":
            return self.sign
        return 0.0


def boundary_functionals(kind: BCKind, n: int) -> list[BoundaryFunctional]:
    """The 2n functionals of the requested family for half-order n."""
    if n < 1:
        raise ValueError("half-order n must be >= 1")
    fns: list[BoundaryFunctional] = []
    if kind is BCKind.NEUMANN:
        for k in range(n):
            fns.append(BoundaryFunctional(2 * k + 1, "left"))
            fns.append(BoundaryFunctional(2 * k + 1, "right"))
    elif kind is BCKind.DIRICHLET:
        for k in range(n):
            fns.append(BoundaryFunctional(2 * k, "left"))
            fns.append(BoundaryFunctional(2 * k, "right"))
    elif kind is BCKind.MIXED1:
        for k in range(n):
            fns.append(BoundaryFunctional(2 * k + 1, "left"))
            fns.append(BoundaryFunctional(2 * k, "right"))
    elif kind is BCKind.MIXED2:
        for k in range(n):
            fns.append(BoundaryFunctional(2 * k, "left"))
            fns.append(BoundaryFunctional(2 * k + 1, "right"))
    elif kind is BCKind.PERIODIC:
        for k in range(2 * n):
            fns.append(BoundaryFunctional(k, "both", sign=-1.0))
    elif kind is BCKind.ANTIPERIODIC:
        for k in range(2 * n):
            fns.append(BoundaryFunctional(k, "both", sign=+1.0))
    else:
        raise ValueError(f"unhandled boundary kind {kind!r}")
    return fns


@dataclass(frozen=True)
class ProblemSpec:
    """An operator, a boundary condition family, and the spectral shift lam."""

    operator: LinearOperator
    kind: BCKind
    lam: float = 0.0


class ResonantProblemError(ArithmeticError):
    """The homogeneous problem has a nontrivial solution at this lambda."""

    def __init__(self, kind: BCKind, lam: float, det: float):
        super().__init__(
            f"{kind.value} problem is resonant at lambda={lam:.12g} "
            f"(resonance margin {det:.3e})"
        )
        self.kind = kind
        self.lam = lam
        self.det = det


def _boundary_coeffs(kind: BCKind, n: int) -> np.ndarray:
    """The d x 2d matrix C = [left | right] of the functionals' coefficients
    on the states at 0 and at the right end (d = 2n)."""
    d = 2 * n
    C = np.zeros((d, 2 * d))
    for r, f in enumerate(boundary_functionals(kind, n)):
        C[r, f.order] = f.left_coeff
        C[r, d + f.order] = f.right_coeff
    return C


def boundary_matrix(problem: ProblemSpec, fs: FundamentalSystem) -> np.ndarray:
    """Functionals applied to the fundamental columns, C[:, :d] + C[:, d:] Phi(T);
    det vanishes exactly at the eigenvalues of the problem."""
    d = fs.d
    C = _boundary_coeffs(problem.kind, problem.operator.n)
    return C[:, :d] + C[:, d:] @ fs.phi_end()[0]


def _graph_matrix(C: np.ndarray, fs: FundamentalSystem) -> np.ndarray:
    """M = C W / ||C||_2 for every lambda of the batch, shape (K, d, d).

    W is an orthonormal basis of the solution graph {(x, Phi(T) x)}, marched
    segment by segment with one QR step each.  The columns of every Q are
    signed so that R has a positive diagonal; W is then [I; Phi(T)] times an
    upper triangular matrix with positive diagonal, so det M is
    det(C [I; Phi(T)]) times a positive factor and changes sign exactly where
    the boundary determinant does.  |det M| <= sigma_min(M) <= 1.
    """
    d = fs.d
    X = Y = np.broadcast_to(np.eye(d) / np.sqrt(2.0), (fs.K, d, d))
    for seg in fs.segments:
        W, R = np.linalg.qr(np.concatenate([X, seg.end_matrix() @ Y], axis=1))
        W = W * np.copysign(1.0, np.diagonal(R, axis1=1, axis2=2))[:, None, :]
        X, Y = W[:, :d], W[:, d:]
    return C @ np.concatenate([X, Y], axis=1) / np.linalg.norm(C, 2)


def char_det_scan(op: LinearOperator, kind: BCKind, lams, tol: float = DEFAULT_TOL) -> np.ndarray:
    """det(C W) / ||C||_2^d for a vector of lambda values, sharing a single
    batched integration sweep.  It has the sign changes of the boundary
    determinant, vanishes exactly at eigenvalues and is bounded by one in
    magnitude (see _graph_matrix)."""
    fs = integrate_fundamental_batch(op, lams, tol=tol, dense=False)
    return np.linalg.det(_graph_matrix(_boundary_coeffs(kind, op.n), fs))


def char_det(problem: ProblemSpec, tol: float = DEFAULT_TOL) -> float:
    """The characteristic function of char_det_scan at the problem's lambda."""
    return float(char_det_scan(problem.operator, problem.kind, [problem.lam], tol)[0])


class GreensEvaluator:
    """Callable kernel G(t, s) of one nonresonant boundary value problem.

    resonance_margin is the smallest singular value of the boundary
    functionals restricted to an orthonormal basis of the solution graph
    {(x, Phi(T) x)}, relative to the functionals' norm (the matrix whose
    determinant char_det_scan returns).  It vanishes exactly at eigenvalues,
    stays well scaled for strongly growing problems, and depends only on the
    problem, not on the number of integration segments.

    The node states solve the block-bidiagonal continuity system plus the
    boundary rows, stored sparse with O(N d^2) nonzeros and factored once.
    """

    def __init__(self, problem: ProblemSpec, fs: FundamentalSystem):
        self.problem = problem
        self.fs = fs
        self.d = fs.d
        self.length = float(fs.nodes[-1])
        self.nodes = fs.nodes
        self.nseg = len(fs.segments)
        self._ends = np.stack([seg.end_matrix()[0] for seg in fs.segments])
        C = _boundary_coeffs(problem.kind, problem.operator.n)
        self.resonance_margin = float(np.linalg.norm(_graph_matrix(C, fs)[0], -2))
        if self.resonance_margin < RESONANCE_THRESHOLD:
            raise ResonantProblemError(problem.kind, problem.lam, self.resonance_margin)
        self._lu = splu(self._block_matrix(C))

    @property
    def interval(self) -> tuple[float, float]:
        return (0.0, self.length)

    def _block_matrix(self, C: np.ndarray) -> csc_array:
        """Rows i*d.. : Y_{i+1} - E_i Y_i (continuity); last d rows: the
        boundary functionals on Y_0 and Y_N."""
        d, N = self.d, self.nseg
        dim = (N + 1) * d
        starts = np.arange(N)[:, None, None] * d
        rows = np.broadcast_to(starts + np.arange(d)[:, None], (N, d, d))
        cols = np.broadcast_to(starts + np.arange(d), (N, d, d))
        diag = np.arange(N * d)
        bc_rows, bc_cols = np.nonzero(C)
        data = np.concatenate([-self._ends.ravel(), np.ones(N * d), C[bc_rows, bc_cols]])
        row_idx = np.concatenate([rows.ravel(), diag, N * d + bc_rows])
        col_idx = np.concatenate([cols.ravel(), diag + d,
                                  bc_cols + (bc_cols >= d) * (N - 1) * d])
        return csc_array((data, (row_idx, col_idx)), shape=(dim, dim))

    def _impulse_states(self, ss: np.ndarray, seg_s: np.ndarray) -> np.ndarray:
        """x_s = Phi_local(s)^-1 e_last for every source point, shape (d, ns)."""
        d = self.d
        out = np.empty((d, len(ss)))
        e = np.zeros(d)
        e[d - 1] = 1.0
        for seg in np.unique(seg_s):
            mask = seg_s == seg
            local = self.fs.local_phi(seg, ss[mask])[:, 0]  # (m, d, d)
            out[:, mask] = np.linalg.solve(local, np.broadcast_to(e, (mask.sum(), d))[..., None])[..., 0].T
        return out

    def _node_states(self, ss: np.ndarray, seg_s: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Solve the block system for every s: result (N+1, d, ns)."""
        d, N, ns = self.d, self.nseg, len(ss)
        rhs = np.zeros((N + 1, d, ns))
        rhs[seg_s, :, np.arange(ns)] = np.einsum("nij,jn->ni", self._ends[seg_s], xs)
        return self._lu.solve(rhs.reshape((N + 1) * d, ns)).reshape(N + 1, d, ns)

    def _source_segments(self, ss: np.ndarray) -> np.ndarray:
        return self.fs.segment_index(ss)

    def eval_grid(self, ts, ss, component: int = 0) -> np.ndarray:
        """Kernel values on the tensor grid, shape (len(ts), len(ss)).

        component selects a t-derivative order (state row): component=d
        gives the exact d-th t-derivative of G for d < 2n.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        ss = np.atleast_1d(np.asarray(ss, dtype=float))
        eps = 1e-12 * max(1.0, self.length)
        if ts.size and (ts.min() < -eps or ts.max() > self.length + eps):
            raise ValueError("t outside the problem interval")
        if ss.size and (ss.min() < -eps or ss.max() > self.length + eps):
            raise ValueError("s outside the problem interval")
        if not 0 <= component < self.d:
            raise ValueError(f"component must lie in [0, {self.d})")
        ts = np.clip(ts, 0.0, self.length)
        ss = np.clip(ss, 0.0, self.length)

        seg_t = self.fs.segment_index(ts)
        seg_s = self._source_segments(ss)
        xs = self._impulse_states(ss, seg_s)
        Y = self._node_states(ss, seg_s, xs)

        rows = np.empty((len(ts), self.d))
        for seg in np.unique(seg_t):
            mask = seg_t == seg
            rows[mask] = self.fs.local_phi(seg, ts[mask])[:, 0, component, :]

        G = np.empty((len(ts), len(ss)))
        for seg in np.unique(seg_t):
            mask = seg_t == seg
            G[mask, :] = rows[mask] @ Y[seg]

        # same-segment impulse contribution for t >= s
        for seg in np.unique(seg_t):
            tmask = np.nonzero(seg_t == seg)[0]
            smask = np.nonzero(seg_s == seg)[0]
            if tmask.size == 0 or smask.size == 0:
                continue
            block = rows[tmask] @ xs[:, smask]
            indicator = ts[tmask][:, None] >= ss[smask][None, :]
            G[np.ix_(tmask, smask)] += block * indicator
        return G

    def __call__(self, t: float, s: float) -> float:
        return float(self.eval_grid(np.array([t]), np.array([s]))[0, 0])

    def sample_grid(self, m: int) -> np.ndarray:
        """Values on the uniform m x m grid (rows indexed by t, columns by s)."""
        if m < 2:
            raise ValueError("grid size must be at least 2")
        pts = np.linspace(0.0, self.length, m)
        return self.eval_grid(pts, pts)


def build_greens(problem: ProblemSpec, tol: float = DEFAULT_TOL) -> GreensEvaluator:
    """Assemble the kernel of the problem; refuses resonant lambda values
    (resonance margin below the resonance threshold)."""
    fs = integrate_fundamental(problem.operator, problem.lam, tol=tol, dense=True)
    return GreensEvaluator(problem, fs)
