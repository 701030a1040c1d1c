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
the solution graph {(x, Phi(T) x)}.  det M is the characteristic function
whose zeros are the eigenvalues, and sigma_min(M) is the resonance margin of
a kernel; both are bounded by one and do not depend on the segment count.
char_det_scan marches W over the segments, so that Phi(T) is never formed;
a kernel reads sigma_min(M) off the sparse LU it factors anyway, and no step
of its construction or grid evaluation loops over the segments.  That LU
also gives eigenfunctions their node states (homogeneous_states).

All boundary families of one operator and lambda solve the same equation:
their kernels share one fundamental system, whose segment end matrices and
grid factors (segment indices and local Phi of a point set) are computed
once.  Only C, the sparse LU and the margin are per family.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array
from scipy.sparse.linalg import splu

from .integrate import FundamentalSystem, integrate_fundamental, integrate_fundamental_batch
from .operators import LinearOperator, extend_to_double, extend_to_quadruple

__all__ = [
    "BCKind",
    "ProblemSpec",
    "ResonantProblemError",
    "char_det_scan",
    "build_greens",
    "kernel_source",
    "kernel_table",
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


def kernel_table(op: LinearOperator) -> dict[str, tuple[LinearOperator, BCKind]]:
    """The nine problems of the base operator: kernel code (N, D, M1, M2, P2T,
    A2T, N2T, D2T, P4T) -> (operator on its interval, boundary family); the
    codes of one interval share one operator."""
    op2 = extend_to_double(op)
    return {
        "N": (op, BCKind.NEUMANN),
        "D": (op, BCKind.DIRICHLET),
        "M1": (op, BCKind.MIXED1),
        "M2": (op, BCKind.MIXED2),
        "P2T": (op2, BCKind.PERIODIC),
        "A2T": (op2, BCKind.ANTIPERIODIC),
        "N2T": (op2, BCKind.NEUMANN),
        "D2T": (op2, BCKind.DIRICHLET),
        "P4T": (extend_to_quadruple(op), BCKind.PERIODIC),
    }


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


# (left step, right step) of the separated families: row 2k of C is
# u^(2k+left)(0) and row 2k+1 is u^(2k+right)(T)
_SEPARATED = {
    BCKind.NEUMANN: (1, 1),
    BCKind.DIRICHLET: (0, 0),
    BCKind.MIXED1: (1, 0),
    BCKind.MIXED2: (0, 1),
}

# sign of the right-end term of the paired families: row k is u^(k)(0) + sign u^(k)(T)
_PAIRED = {BCKind.PERIODIC: -1.0, BCKind.ANTIPERIODIC: 1.0}


def _boundary_coeffs(kind: BCKind, n: int) -> np.ndarray:
    """The d x 2d matrix C = [left | right] of the boundary functionals'
    coefficients on the states at 0 and at the right end (d = 2n)."""
    d = 2 * n
    if kind in _PAIRED:
        return np.hstack([np.eye(d), np.diag(np.full(d, _PAIRED[kind]))])
    left, right = _SEPARATED[kind]
    C = np.zeros((d, 2 * d))
    k = np.arange(0, d, 2)
    C[k, k + left] = 1.0
    C[k + 1, d + k + right] = 1.0
    return C


def _graph_matrix(C: np.ndarray, fs: FundamentalSystem) -> np.ndarray:
    """M = C W / ||C||_2 for every lambda of the batch, shape (K, d, d).

    W is an orthonormal basis of the solution graph {(x, Phi(T) x)}, marched
    segment by segment with one QR step each.  Each Q column is scaled by
    conj(r_jj)/|r_jj| (1 if r_jj = 0), so W is [I; Phi(T)] times an upper
    triangular matrix with positive diagonal and det M is det(C [I; Phi(T)])
    times a positive factor: it has the argument (for real lambda, the sign)
    of the boundary determinant.  |det M| <= sigma_min(M) <= 1.  Kernels
    read sigma_min(M) off their block LU instead (homogeneous_states).
    """
    d = fs.d
    X = Y = np.broadcast_to(np.eye(d) / np.sqrt(2.0), (fs.K, d, d))
    for end in fs.segments:
        W, R = np.linalg.qr(np.concatenate([X, end @ Y], axis=1))
        r = R.diagonal(axis1=1, axis2=2)
        W = W * ((r.conj() + (r == 0)) / (abs(r) + (r == 0)))[:, None, :]
        X, Y = W[:, :d], W[:, d:]
    return C @ np.concatenate([X, Y], axis=1) / np.linalg.norm(C, 2)


def char_det_scan(op: LinearOperator, kind: BCKind, lams) -> np.ndarray:
    """det(C W) / ||C||_2^d for a vector of lambda values, sharing a single
    batched integration sweep.  It has the sign changes of the boundary
    determinant, vanishes exactly at eigenvalues and is bounded by one in
    magnitude (see _graph_matrix)."""
    fs = integrate_fundamental_batch(op, lams, dense=False)
    return np.linalg.det(_graph_matrix(_boundary_coeffs(kind, op.n), fs))


def _block_matrix(C: np.ndarray, ends: np.ndarray) -> csc_array:
    """Rows i*d.. : Y_{i+1} - E_i Y_i (continuity) for the segment
    propagators E_i = ends[i]; last d rows: the boundary functionals C on
    Y_0 and Y_N."""
    N, d = ends.shape[:2]
    dim = (N + 1) * d
    starts = np.arange(N)[:, None, None] * d
    rows = np.broadcast_to(starts + np.arange(d)[:, None], (N, d, d))
    cols = np.broadcast_to(starts + np.arange(d), (N, d, d))
    diag = np.arange(N * d)
    bc_rows, bc_cols = np.nonzero(C)
    data = np.concatenate([-ends.ravel(), np.ones(N * d), C[bc_rows, bc_cols]])
    row_idx = np.concatenate([rows.ravel(), diag, N * d + bc_rows])
    col_idx = np.concatenate([cols.ravel(), diag + d,
                              bc_cols + (bc_cols >= d) * (N - 1) * d])
    return csc_array((data, (row_idx, col_idx)), shape=(dim, dim))


def homogeneous_states(C: np.ndarray, ends: np.ndarray) -> tuple:
    """The sparse LU of the block system of the functionals C and the segment
    propagators ends (N, d, d), and the node states H (N+1, d, d) of the d
    solutions with C [H_0; H_N] = I; (None, None) if the factor is exactly
    singular.  Z = [H_0; H_N] is W S for the orthonormal graph basis W, so
    sigma(M) = 1 / (||C||_2 sigma(Z)), and H v, v the top right singular
    vector of Z, holds the node states of the solution of sigma_min(M)."""
    N, d = ends.shape[:2]
    try:
        lu = splu(_block_matrix(C, ends))
    except RuntimeError:  # "Factor is exactly singular"
        return None, None
    return lu, lu.solve(np.eye((N + 1) * d, d, -N * d)).reshape(N + 1, d, d)


@dataclass(frozen=True)
class _GridFactor:
    """Points of one grid axis, their segments and local Phi (n, d, d)."""

    pts: np.ndarray
    seg: np.ndarray
    phi: np.ndarray

    def __getitem__(self, i) -> "_GridFactor":
        return _GridFactor(self.pts[i], self.seg[i], self.phi[i])


class GreensEvaluator:
    """Callable kernel G(t, s) of one nonresonant boundary value problem.

    The node states solve the block-bidiagonal continuity system plus the
    boundary rows, stored sparse with O(N d^2) nonzeros and factored once.

    resonance_margin is the smallest singular value of the boundary
    functionals restricted to an orthonormal basis of the solution graph
    {(x, Phi(T) x)}, relative to the functionals' norm (the matrix whose
    determinant char_det_scan returns), read off that factor.  It vanishes
    exactly at eigenvalues, stays well scaled for strongly growing problems,
    and depends only on the problem, not on the number of segments.
    """

    def __init__(self, problem: ProblemSpec, fs: FundamentalSystem):
        self.problem = problem
        self.fs = fs
        self.d = fs.d
        self.length = float(fs.nodes[-1])
        self._ends = fs.segments[:, 0]
        self.nseg = len(self._ends)
        # margin 1 / (||C||_2 ||Z||_2); 0 for an exactly singular factor or non-finite Z
        C = _boundary_coeffs(problem.kind, problem.operator.n)
        self._lu, H = homogeneous_states(C, self._ends)
        Z = np.inf if H is None else H[[0, -1]].reshape(-1, self.d)
        self.resonance_margin = (float(1.0 / (np.linalg.norm(C, 2) * np.linalg.norm(Z, 2)))
                                 if np.isfinite(Z).all() else 0.0)
        if self.resonance_margin < RESONANCE_THRESHOLD:
            raise ResonantProblemError(problem.kind, problem.lam, self.resonance_margin)

    def _locate(self, pts) -> _GridFactor:
        """Segment indices and local Phi of one point set, not kept."""
        pts = np.atleast_1d(np.asarray(pts, dtype=float))
        eps = 1e-12 * max(1.0, self.length)
        if pts.size and (pts.min() < -eps or pts.max() > self.length + eps):
            raise ValueError("grid points outside the problem interval")
        pts = np.clip(pts, 0.0, self.length)
        seg = self.fs.segment_index(pts)
        return _GridFactor(pts, seg, self.fs.local_phi(seg, pts)[:, 0])

    def _factor(self, pts) -> _GridFactor:
        """_locate for either axis of eval_grid; the last eight sets of over
        one point stay on the system."""
        pts = np.atleast_1d(np.asarray(pts, dtype=float))
        factors = self.fs.memo.setdefault("factors", {})
        key = pts.tobytes()
        if key in factors:
            return factors[key]
        factor = self._locate(pts)
        if pts.size > 1:
            if len(factors) >= 8:
                del factors[next(iter(factors))]
            factors[key] = factor
        return factor

    def _node_states(self, seg_s: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Solve the block system for every s: result (N+1, d, ns)."""
        d, N, ns = self.d, self.nseg, len(seg_s)
        rhs = np.zeros((N + 1, d, ns))
        rhs[seg_s, :, np.arange(ns)] = np.einsum("nij,jn->ni", self._ends[seg_s], xs)
        return self._lu.solve(rhs.reshape((N + 1) * d, ns)).reshape(N + 1, d, ns)

    def eval_grid(self, ts, ss, component: int = 0) -> np.ndarray:
        """Kernel values on the tensor grid, shape (len(ts), len(ss)).

        ts and ss are point arrays or factors from _factor.  component
        selects a t-derivative order (state row): component=d gives the
        exact d-th t-derivative of G for d < 2n.
        """
        if not 0 <= component < self.d:
            raise ValueError(f"component must lie in [0, {self.d})")
        ft = ts if isinstance(ts, _GridFactor) else self._factor(ts)
        fsrc = ft if ss is ts else ss if isinstance(ss, _GridFactor) else self._factor(ss)
        ts, seg_t, ss, seg_s = ft.pts, ft.seg, fsrc.pts, fsrc.seg

        # impulse states x_s = Phi_local(s)^-1 e_last, shape (d, ns)
        e = np.zeros((len(ss), self.d, 1))
        e[:, -1] = 1.0
        xs = np.linalg.solve(fsrc.phi, e)[..., 0].T
        Y = self._node_states(seg_s, xs)
        rows = ft.phi[:, component, :]

        # homogeneous part: each t's row times the node states of its segment
        G = sum(rows[:, j, None] * Y[seg_t, j] for j in range(self.d))
        # impulse part, where t and s share a segment and t >= s
        same = (seg_t[:, None] == seg_s) & (ts[:, None] >= ss)
        return G + np.where(same, rows @ xs, 0.0)

    def __call__(self, t: float, s: float) -> float:
        """G(t, s): both points share one local Phi evaluation, not kept."""
        both = self._locate([t, s])
        return float(self.eval_grid(both[:1], both[1:])[0, 0])

    def sample_grid(self, m: int) -> np.ndarray:
        """Values on the uniform m x m grid (rows indexed by t, columns by s)."""
        if m < 2:
            raise ValueError("grid size must be at least 2")
        pts = np.linspace(0.0, self.length, m)
        return self.eval_grid(pts, pts)


def build_greens(problem: ProblemSpec) -> GreensEvaluator:
    """Assemble the kernel of the problem; refuses resonant lambda values
    (resonance margin below the resonance threshold)."""
    fs = integrate_fundamental(problem.operator, problem.lam, dense=True)
    return GreensEvaluator(problem, fs)


def kernel_source(lam: float):
    """kernel(op, kind) -> the kernel of (op, kind) at lam, kept for repeated
    requests.  Each distinct operator is integrated once, on first use, and its
    kernels share that system; a resonant problem raises on every request."""
    systems, kernels = {}, {}

    def kernel(op: LinearOperator, kind: BCKind) -> GreensEvaluator:
        G = kernels.get((op, kind))
        if G is None:
            if op not in systems:
                systems[op] = integrate_fundamental(op, lam, dense=True)
            G = kernels[op, kind] = GreensEvaluator(ProblemSpec(op, kind, lam), systems[op])
        return G

    return kernel
