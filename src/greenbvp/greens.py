"""Green's functions for the six boundary condition families.

For a nonresonant problem the kernel is represented semi-analytically: the
impulse (Cauchy) kernel carries the diagonal jump, and per integration
segment a combination of fundamental solutions enforces the boundary and
continuity conditions.  The combination coefficients solve one
block-bidiagonal system (plus the boundary rows) whose matrix is independent
of the source point s.  An odd-even reduction factors it once per kernel:
one batched QR per level removes every other node, each relation's rows are
scaled to unit norm, and a small dense system closes it (_BlockReduction).
numpy alone does this; no step loops over the segments.

Spectra and kernels share one resonance criterion: the d x d matrix
M = C W / ||C||_2 of the boundary functionals C on an orthonormal basis W of
the solution graph {(x, Phi(T) x)}.  det M is the characteristic function
whose zeros are the eigenvalues, and sigma_min(M) is the resonance margin of
a kernel; both are bounded by one and do not depend on the segment count.
char_det_scan marches W over the segments, so that Phi(T) is never formed;
a kernel reads sigma_min(M) off the end states of its block reduction,
which also gives eigenfunctions their node states (spectrum._null_functions).

All boundary families of one operator and lambda solve the same equation:
their kernels share one fundamental system, whose segment end matrices,
grid factors (segment indices and local Phi of a point set) and impulse
states x_s = Phi_local(s)^-1 e_d of a set of source points are computed
once.  Only C, the block reduction, the margin and the node states of the
source points are per family, and a kernel keeps its grids for the
requests that repeat them.  Every kernel comes from a kernel_source, and
the extensions and the reflection of an operator derive their systems from
its own in one step (integrate.mirror_fundamental): a kernel source's
share one integration, and every copy whose points map back onto the
root's bitwise shares the root's local Phi (integrate._Cells).  Each
store keeps its last eight point sets or grids of 2 to 65 536 points or
values (integrate._keep_last) and lives as long as the kernel or system
that holds it; kept grids and local Phi are handed out as copies and grid
factors are read-only, so a caller cannot alter what a store keeps.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .integrate import FundamentalSystem, _keep_last, _system, integrate_fundamental_batch
from .operators import LinearOperator, coeff_values, extend_to_double

__all__ = [
    "BCKind",
    "ProblemSpec",
    "ResonantProblemError",
    "char_det_scan",
    "build_greens",
    "kernel_source",
    "KERNEL_CODES",
    "kernel_problem",
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


# the paper's nine problems: kernel code -> (multiple of the base interval,
# boundary family)
KERNEL_CODES = {
    "N": (1, BCKind.NEUMANN),
    "D": (1, BCKind.DIRICHLET),
    "M1": (1, BCKind.MIXED1),
    "M2": (1, BCKind.MIXED2),
    "P2T": (2, BCKind.PERIODIC),
    "A2T": (2, BCKind.ANTIPERIODIC),
    "N2T": (2, BCKind.NEUMANN),
    "D2T": (2, BCKind.DIRICHLET),
    "P4T": (4, BCKind.PERIODIC),
}


def kernel_problem(op: LinearOperator, code: str) -> tuple[LinearOperator, BCKind]:
    """(operator on its interval, boundary family) of a kernel code of the
    base operator op (KERNEL_CODES): 2T is extend_to_double(op) and 4T its
    doubling, each built on first use and kept on the operator it doubles.
    An unknown code is refused."""
    if code not in KERNEL_CODES:
        raise ValueError(f"unknown kernel code {code!r}")
    multiple, kind = KERNEL_CODES[code]
    while multiple > 1:  # 2T from T, 4T from 2T
        op, multiple = extend_to_double(op), multiple // 2
    return op, kind


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


@functools.cache
def _boundary_coeffs(kind: BCKind, n: int) -> np.ndarray:
    """The d x 2d matrix C = [left | right] of the boundary functionals'
    coefficients on the states at 0 and at the right end (d = 2n), made
    once and read-only."""
    d = 2 * n
    if kind in _PAIRED:
        C = np.hstack([np.eye(d), np.diag(np.full(d, _PAIRED[kind]))])
    else:
        left, right = _SEPARATED[kind]
        C = np.zeros((d, 2 * d))
        k = np.arange(0, d, 2)
        C[k, k + left] = 1.0
        C[k + 1, d + k + right] = 1.0
    C.flags.writeable = False
    return C


@functools.cache
def _boundary_norm(kind: BCKind, n: int) -> float:
    """||C||_2 of _boundary_coeffs(kind, n), computed once."""
    return float(np.linalg.norm(_boundary_coeffs(kind, n), 2))


def _graph_matrix(C: np.ndarray, fs: FundamentalSystem) -> np.ndarray:
    """M = C W / ||C||_2 for every lambda of the batch, shape (K, d, d), or
    (c, K, d, d) for a stack of c boundary matrices C, which share W.

    W is an orthonormal basis of the solution graph {(x, Phi(T) x)}, marched
    segment by segment with one QR step each.  Each Q column is scaled by
    conj(r_jj)/|r_jj| (1 if r_jj = 0), so W is [I; Phi(T)] times an upper
    triangular matrix with positive diagonal and det M is det(C [I; Phi(T)])
    times a positive factor: it has the argument (for real lambda, the sign)
    of the boundary determinant.  |det M| <= sigma_min(M) <= 1.  Kernels
    read sigma_min(M) off their block reduction instead (_BlockReduction).
    """
    d = fs.d
    X = Y = np.broadcast_to(np.eye(d) / np.sqrt(2.0), (fs.K, d, d))
    for end in fs.segments:
        W, R = np.linalg.qr(np.concatenate([X, end @ Y], axis=1))
        r = R.diagonal(axis1=1, axis2=2)
        W = W * ((r.conj() + (r == 0)) / (abs(r) + (r == 0)))[:, None, :]
        X, Y = W[:, :d], W[:, d:]
    C = np.asarray(C)[..., None, :, :]
    return C @ np.concatenate([X, Y], axis=1) / np.linalg.norm(C, 2, axis=(-2, -1), keepdims=True)


def char_det_scan(op: LinearOperator, kind: BCKind, lams) -> np.ndarray:
    """det(C W) / ||C||_2^d for a vector of lambda values, sharing a single
    batched integration sweep.  It has the sign changes of the boundary
    determinant, vanishes exactly at eigenvalues and is bounded by one in
    magnitude (see _graph_matrix)."""
    return _char_dets(op, _boundary_coeffs(kind, op.n), lams)


def _char_dets(op: LinearOperator, C: np.ndarray, lams) -> np.ndarray:
    """char_det_scan for a boundary matrix C, or a stack of them sharing one
    integration and one graph basis, shape (K,) or (c, K)."""
    fs = integrate_fundamental_batch(op, lams)
    return np.linalg.det(_graph_matrix(C, fs))


def _vanishing_ends(kind: BCKind) -> tuple[int, ...]:
    """The ends (0 left, 1 right) at which the kernel vanishes by a boundary
    row, on the t-line and on the s-line alike: those of a separated family
    whose rows there are u, u'', ..., u^(2n-2).  u^(2n-1) is free at such an
    end, so the adjoint conditions hold v = 0 there too, and u' and
    u^(2n-2) make the first normal derivatives, in t and in s, nonzero."""
    return tuple(end for end, step in enumerate(_SEPARATED.get(kind, (1, 1))) if step == 0)


def _corner_problem(kind: BCKind, n: int, t_end: int, s_end: int):
    """(C', row) for the corner (t_end, s_end) of the kernel square (0 left,
    1 right): the lambdas where the leading coefficient d_t^j d_s^k G of
    the corner vanishes are the eigenvalues of C' (None if no single row
    fits).

    j and k are 1 on a line where G vanishes (_vanishing_ends), else 0.
    d_s^k G(., s_end) solves the homogeneous equation with every row of C
    zero but the one the impulse state's u^(2n-1-k) component reaches at
    s_end; that row is replaced by the unit functional u^(j)(t_end).  For
    n = 1 the first derivatives jump on the diagonal, so the diagonal
    corners of two vanishing lines have no such coefficient."""
    C = _boundary_coeffs(kind, n)
    d = 2 * n
    vanishing = _vanishing_ends(kind)
    j, k = int(t_end in vanishing), int(s_end in vanishing)
    rows = np.flatnonzero(C[:, s_end * d + d - 1 - k])
    if len(rows) != 1 or (j and k and n == 1 and t_end == s_end):
        return None
    changed = C.copy()
    changed[rows[0]] = 0.0
    changed[rows[0], t_end * d + j] = 1.0
    return changed, int(rows[0])


# the reduction stops once the block system of the relations left and C has at
# most this many rows, and inverts that system densely: fewer levels save
# numpy calls, a larger inverse costs every grid more
_DENSE_ROWS = 64


class _BlockReduction:
    """Odd-even reduction of the segment block system

        Y_{i+1} - E_i Y_i = r_i  (i < N),    C [Y_0; Y_N] = b

    for the segment propagators E_i = ends[i], shape (N, d, d).

    Level l holds the relations F Y_a + G Y_b = r between the nodes
    a = j 2^l and b = min((j + 1) 2^l, N), each row scaled to unit norm.  The
    next level pairs the relations 2j and 2j + 1 and removes their shared node
    m = a + 2^l with one Householder QR of [G_2j; F_2j+1], batched over the
    pairs: the first d rows of Q^T, solved with R, give Y_m from Y_a, Y_b and
    the pair's right-hand sides, and the last d rows are the merged relation.
    A relation left without a partner is carried up unchanged.  The levels
    stop once the relations left and C form a block system of at most
    _DENSE_ROWS rows, whose inverse is formed once (LU with partial
    pivoting), so that a grid's right-hand sides cost one product; for b = I
    its end states are Z = [H_0; H_N].  Back-substitution down the levels
    gives the other nodes.  No step loops over the segments.  Raises
    numpy.linalg.LinAlgError where a pivot or the dense system is exactly
    singular.
    """

    def __init__(self, C: np.ndarray, ends: np.ndarray):
        N, d = ends.shape[:2]
        self.nseg, self.d = N, d
        rel = np.concatenate([-ends, np.broadcast_to(np.eye(d), ends.shape)], axis=2)
        self._scale = np.sqrt(np.einsum("nij,nij->ni", rel, rel))
        rel /= self._scale[..., None]
        kept, levels = N, 0
        while kept > 1 and (kept + 1) * d > _DENSE_ROWS:
            kept, levels = (kept + 1) // 2, levels + 1
        # per pair, level after level, the rows of Q^T [I | F_2j | G_2j+1] and R;
        # each level ends with a pass-through pair for a relation left unpaired
        rows = np.zeros((N - kept + levels, 2 * d, 4 * d))
        r_mid = np.empty((N - kept + levels, d, d))
        self._pairs, passes = [], []
        start = 0
        while len(rel) > kept:
            p = len(rel) // 2
            stop = start + p
            pairs = rel[:2 * p].reshape(p, 2 * d, 2 * d)
            Q, R = np.linalg.qr(np.concatenate([pairs[:, :d, d:], pairs[:, d:, :d]], axis=1),
                                mode="complete")
            r_mid[start:stop] = R[:, :d]
            out = rows[start:stop]
            out[..., :2 * d] = np.swapaxes(Q, 1, 2)
            np.matmul(out[..., :d], pairs[:, :d, :d], out=out[..., 2 * d:3 * d])
            np.matmul(out[..., d:2 * d], pairs[:, d:, d:], out=out[..., 3 * d:])
            merged = out[:, d:]
            relation = merged[..., 2 * d:]
            merged /= np.sqrt(np.einsum("pij,pij->pi", relation, relation))[..., None]
            rel = np.concatenate([merged[..., 2 * d:], rel[2 * p:]])
            self._pairs.append(p)
            passes.append(stop)
            start = stop + 1
        rows[passes, d:, :d] = r_mid[passes] = np.eye(d)
        # the first d rows times R^-1: back-substitution over R's rows, batched
        # over all pairs of all levels
        pivots = r_mid[:, range(d), range(d)]
        if not pivots.all():
            raise np.linalg.LinAlgError("exactly singular pivot in the block reduction")
        for i in reversed(range(d)):
            rows[:, i] -= np.einsum("pj,pjc->pc", r_mid[:, i, i + 1:], rows[:, i + 1:d])
            rows[:, i] /= pivots[:, i, None]
        # W (P, 2d, 2, d): the right-hand side of either relation of a pair ->
        # Y_m's part and the merged relation's; -K (P, d, 2, d): Y_m from Y_a, Y_b
        self._W = rows[..., :2 * d].reshape(-1, 2 * d, 2, d)
        self._negK = -rows[:, :d, 2 * d:].reshape(-1, d, 2, d)
        # the c relations left and C: one dense system for the states at the
        # nodes 0, 2^L, ..., (c-1) 2^L and N, kept as its inverse
        c = len(rel)
        last = np.zeros((c + 1, d, c + 1, d))
        last[range(c), :, range(c)] = rel[..., :d]
        last[range(c), :, range(1, c + 1)] = rel[..., d:]
        last[c, :, 0], last[c, :, c] = C[:, :d], C[:, d:]
        self._last_inverse = np.linalg.inv(last.reshape((c + 1) * d, (c + 1) * d))
        self._top_homogeneous = self._last_inverse[:, -d:].reshape(c + 1, d, d)
        self.end_states = self._top_homogeneous[[0, c]].reshape(2 * d, d)

    def _back_substitute(self, top: np.ndarray, tops=()) -> np.ndarray:
        """Node states (N+1, d, k) from the states (c+1, d, k) at the last
        level's nodes and, per level, the (pairs, columns, values) of the
        right-hand sides' parts of Y_m."""
        N, d, k = self.nseg, self.d, top.shape[-1]
        # the slots past N hold Y_N, so that the nodes of level l are Y[::2^l]
        Y = np.empty((N + (1 << len(self._pairs)), d, k))
        Y[:N:1 << len(self._pairs)], Y[N:] = top[:-1], top[-1]
        start = len(self._negK)
        for level in reversed(range(len(self._pairs))):
            p, step = self._pairs[level], 1 << level
            start -= p + 1
            negK = self._negK[start:start + p]
            # pair j: Y_m = -K [Y_a; Y_b] + (its part of r), a = 2j 2^l, m = a + 2^l
            mid = Y[step::2 * step]
            np.matmul(negK[:, :, 0], Y[:2 * p * step:2 * step], out=mid[:p])
            mid[:p] += negK[:, :, 1] @ Y[2 * step:(2 * p + 1) * step:2 * step]
            if tops:
                pair, cols, values = tops[level]
                mid[pair, :, cols] += values
        return Y[:N + 1]

    def homogeneous(self) -> np.ndarray:
        """Node states H (N+1, d, d) of the d solutions with C [H_0; H_N] = I."""
        return self._back_substitute(self._top_homogeneous)

    def solve_impulses(self, seg: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """Node states (N+1, d, k) for b = 0 and k right-hand sides, column c
        nonzero only in the continuity relation seg[c], where it is vec[c].

        A column stays nonzero in one relation per level, so the forward
        sweep carries one d-vector per column."""
        d, k = self.d, len(seg)
        cols, rel = np.arange(k), np.asarray(seg)
        u = (vec / self._scale[rel])[..., None]
        tops, start = [], 0
        for p in self._pairs:
            half, rel = rel & 1, rel >> 1
            out = self._W[start + rel, :, half] @ u
            tops.append((rel, cols, out[:, :d, 0]))
            u = out[:, d:]
            start += p + 1
        rhs = np.zeros((len(self._last_inverse) // d, d, k))
        rhs[rel, :, cols] = u[..., 0]
        top = (self._last_inverse @ rhs.reshape(-1, k)).reshape(-1, d, k)
        return self._back_substitute(top, tops)


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
    boundary rows, reduced once (_BlockReduction); each source point adds a
    right-hand side in one continuity relation.

    resonance_margin is the smallest singular value of the boundary
    functionals restricted to an orthonormal basis of the solution graph
    {(x, Phi(T) x)}, relative to the functionals' norm (the matrix whose
    determinant char_det_scan returns), read off that reduction.  It vanishes
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
        # margin 1 / (||C||_2 ||Z||_2); 0 for an exactly singular system or non-finite Z
        kind, n = problem.kind, problem.operator.n
        try:
            self._system = _BlockReduction(_boundary_coeffs(kind, n), self._ends)
            Z = self._system.end_states
        except np.linalg.LinAlgError:
            Z = np.inf
        self.resonance_margin = (float(1.0 / (_boundary_norm(kind, n) * np.linalg.norm(Z, 2)))
                                 if np.isfinite(Z).all() else 0.0)
        if self.resonance_margin < RESONANCE_THRESHOLD:
            raise ResonantProblemError(problem.kind, problem.lam, self.resonance_margin)
        self._grids = {}    # (t points, s points, component, s_order) -> grid

    def _locate(self, pts) -> _GridFactor:
        """Segment indices and local Phi of one point set, not kept; its
        arrays are read-only, as a kept factor is shared."""
        pts = np.atleast_1d(np.asarray(pts, dtype=float))
        eps = 1e-12 * max(1.0, self.length)
        if pts.size and not (pts.min() >= -eps and pts.max() <= self.length + eps):
            raise ValueError("grid points outside the problem interval")
        pts = np.clip(pts, 0.0, self.length)
        seg = self.fs.segment_index(pts)
        factor = _GridFactor(pts, seg, self.fs.local_phi(seg, pts)[:, 0])
        for array in (factor.pts, factor.seg, factor.phi):
            array.flags.writeable = False
        return factor

    def _factor(self, pts) -> _GridFactor:
        """_locate for either axis of eval_grid, kept on the system for all
        its kernels (_keep_last)."""
        pts = np.atleast_1d(np.asarray(pts, dtype=float))
        factors = self.fs.memo.setdefault("factors", {})
        key = pts.tobytes()
        if key in factors:
            return factors[key]
        return _keep_last(factors, key, self._locate(pts), pts.size)

    def _node_states(self, seg_s: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Solve the block system for every s: result (N+1, d, ns)."""
        return self._system.solve_impulses(seg_s, np.einsum("nij,jn->ni", self._ends[seg_s], xs))

    def _source(self, fsrc: _GridFactor, s_order: int) -> tuple[np.ndarray, np.ndarray]:
        """The impulse states x_s (d, ns) of the source points (or their
        s_order-th s-derivatives, see _grid), kept on the system for all its
        kernels (_keep_last), and the node states (N+1, d, ns) they give."""
        key = (fsrc.pts.tobytes(), s_order)
        impulses = self.fs.memo.setdefault("impulses", {})
        xs = impulses.get(key)
        if xs is None:
            # A(s) e_d is the companion matrix's last column e_(d-1) - a_(d-1)(s) e_d
            e = np.zeros((len(fsrc.pts), self.d, 1))
            if s_order:
                e[:, -2] = -1.0
                e[:, -1, 0] = coeff_values(self.problem.operator, self.d - 1, fsrc.pts)
            else:
                e[:, -1] = 1.0
            xs = _keep_last(impulses, key, np.linalg.solve(fsrc.phi, e)[..., 0].T,
                            len(fsrc.pts))
        return xs, self._node_states(fsrc.seg, xs)

    def eval_grid(self, ts, ss, component: int = 0) -> np.ndarray:
        """Kernel values on the tensor grid, shape (len(ts), len(ss)).

        ts and ss are point arrays or factors from _factor.  component
        selects a t-derivative order (state row): component=d gives the
        exact d-th t-derivative of G for d < 2n.
        """
        if not 0 <= component < self.d:
            raise ValueError(f"component must lie in [0, {self.d})")
        return self._grid(ts, ss, component, 0)

    def _grid(self, ts, ss, component: int, s_order: int) -> np.ndarray:
        """eval_grid of the s_order-th (0 or 1) s-derivative of G, off the
        diagonal, as a copy of its one computation on this kernel where the
        grid is kept (_keep_last)."""
        ft = ts if isinstance(ts, _GridFactor) else self._factor(ts)
        fsrc = ft if ss is ts else ss if isinstance(ss, _GridFactor) else self._factor(ss)
        key = (ft.pts.tobytes(), fsrc.pts.tobytes(), component, s_order)
        G = self._grids.get(key)
        if G is None:
            G = _keep_last(self._grids, key, self._evaluate(ft, fsrc, component, s_order),
                           len(ft.pts) * len(fsrc.pts))
        return G.copy() if key in self._grids else G

    def _evaluate(self, ft: _GridFactor, fsrc: _GridFactor, component: int,
                  s_order: int) -> np.ndarray:
        """_grid, computed: G is linear in the impulse state
        x_s = Phi_local(s)^-1 e_d, whose s-derivative is
        -Phi_local(s)^-1 A(s) e_d."""
        ts, seg_t, ss, seg_s = ft.pts, ft.seg, fsrc.pts, fsrc.seg
        xs, Y = self._source(fsrc, s_order)
        rows = ft.phi[:, component, :]

        # homogeneous part: each t's row times the node states of its segment,
        # gathered for at most d blocks of rows, so a block holds nt ns values
        G = np.empty((len(ts), len(ss)), dtype=np.result_type(rows, Y))
        block = max(1, -(-len(ts) // self.d))
        for i in range(0, len(ts), block):
            part = slice(i, i + block)
            np.matmul(rows[part, None, :], Y[seg_t[part]], out=G[part, None, :])
        # impulse part, where t and s share a segment and t >= s
        same = (seg_t[:, None] == seg_s) & (ts[:, None] >= ss)
        return np.add(G, rows @ xs, out=G, where=same)

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
    """Assemble the kernel of the problem (kernel_source); refuses resonant
    lambda values (resonance margin below the resonance threshold)."""
    return kernel_source(problem.lam)(problem.operator, problem.kind)


def kernel_source(lam: float):
    """kernel(op, kind) -> the kernel of (op, kind) at lam, kept for repeated
    requests; a resonant problem raises on every request.  Each distinct
    operator gets one fundamental system, on first use, shared by its
    kernels, and its extensions and reflection derive theirs from it
    (integrate._system): the nine problems of kernel_problem and the reflected
    operator share one integration of the base operator."""
    systems, kernels = {}, {}

    def kernel(op: LinearOperator, kind: BCKind) -> GreensEvaluator:
        G = kernels.get((op, kind))
        if G is None:
            fs = _system(op, np.array([lam]), True, systems)
            G = kernels[op, kind] = GreensEvaluator(ProblemSpec(op, kind, lam), fs)
        return G

    return kernel

