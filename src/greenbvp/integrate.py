"""Fundamental solution matrices of the companion system u' = A(t) u.

The homogeneous equation L[lam] u = 0 is integrated as a first-order system
whose state is (u, u', ..., u^(2n-1)).  Integration proceeds segment by
segment: segment boundaries are the coefficient breakpoints (where odd
reflection extensions may jump) plus extra subdivisions that cap the solution
growth per segment, so downstream boundary solves stay well conditioned.

Within a segment the propagator is a product of sixth-order Magnus cells
(Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros 2009): each cell samples
A at three Gauss-Legendre nodes, forms the commutator generator Omega and
takes its exponential.  Piecewise-constant coefficients are the one-cell
case, where Omega = h A and the step is exact.  The cell count follows the
tolerance and the segment's frequency scale, and cells whose coefficients
the Gauss rule does not resolve are halved.  Everything is batched over a
vector of lambda values (real or complex), which makes characteristic
determinant scans cheap.  Lambda enters only as the shift of a_0 (no
coefficient uses it), so the coefficients are sampled once per operator: its
integration plan (_plan), kept on the operator object, holds one object per
breakpoint interval (_Interval) with the sups that set the segment count, a
constant interval's coefficients and a non-constant one's cells with their
Gauss-node samples, for every batch; it forms a batch's companion rows and
generators, which it does not keep, and the generators of larger batches are
shared too (see _magnus_polynomial).  A constant interval's segments are
exponentiated once per distinct width.  The extended and reflected operators
are copies of a root operator's interval: every route (_system) derives
their systems from the root's in one step, whose cells alone are integrated,
to DEFAULT_TOL.  An adaptive Dormand-Prince 5(4) integration of one lambda
(_rk_reference) is the tests' independent reference, which no route calls.
It is the only user of scipy, which the package does not require:
scipy.integrate is imported on the first call and comes with the test extra.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .operators import LinearOperator, mirror_of, noted

__all__ = [
    "IntegrationError",
    "FundamentalSystem",
    "integrate_fundamental",
    "integrate_fundamental_batch",
]

DEFAULT_TOL = 1e-10

# Maximum allowed e-folding of the solution across one integration segment.
_GROWTH_PER_SEGMENT = 3.0

# Integration budget: the most Magnus cells one integration may use.  A
# constant-coefficient segment is one cell, so this also bounds the segment
# count, which is checked before anything is allocated: capping the growth
# per segment needs about length * rate / 3 segments, so u'' at lambda 1e12
# on [0, 1] (3.3e5 segments) or a0 = exp(exp(5t)) is refused, while u'' + u
# on [0, 1e4] needs 3 727.
MAX_CELLS = 200_000

# The most bytes the segment end matrices of one integration may take
# (lambdas x segments x d^2 values), checked with MAX_CELLS before anything is
# allocated: a characteristic-function scan keeps them all for its QR march.
# The two scans documented at spectrum.MAX_SCAN_POINTS need 9.6 and 25.6 MB;
# u'' D over (0, 1e7) at 50 001 points (1 055 segments) would need 1.69 GB.
MAX_BATCH_BYTES = 2 ** 28

# Magnus cells per unit of rate * length, times tol^(-1/6): the local error of
# a sixth-order cell of width h scales as (h * rate)^7.  The rate counts as at
# least one over the piece length.
_CELLS_PER_RATE = 0.35

# Halvings of a cell whose coefficients the Gauss rule does not resolve.
_MAX_SPLITS = 40

# Cells of one block, times the batch size: bounds the d x d temporaries.
_BLOCK_MATRICES = 2048

# Lambda batches larger than this form generators by _magnus_polynomial: 9
# commutators per cell, against 5 per cell and lambda.
_POLYNOMIAL_BATCH = 4

# Gauss-Legendre nodes and weights of [0, 1] for the three samples of a
# Magnus cell; _CHECK_NODES adds the nodes of the cell's two halves.
_GAUSS = 0.5 + np.array([-1.0, 0.0, 1.0]) * (math.sqrt(15.0) / 10.0)
_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0
_CHECK_NODES = np.concatenate([_GAUSS, 0.5 * _GAUSS, 0.5 + 0.5 * _GAUSS])

# Taylor coefficients 1/k!, k = 0..10, as Paterson-Stockmeyer blocks in X^4:
# row j holds the coefficients of X^(4j), ..., X^(4j+3).
_TAYLOR = np.array([1.0 / math.factorial(k) if k <= 10 else 0.0
                    for k in range(12)]).reshape(3, 4)


class IntegrationError(RuntimeError):
    """Integrator failure: over the cell or memory budget, unresolved or
    non-finite coefficients, an ill-conditioned state matrix or an RK45
    failure."""


def _frobenius(A: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...ij,...ij->...", A, A.conj()).real)


def expm(A: np.ndarray) -> np.ndarray:
    """exp of every matrix of a stack (..., d, d).

    Scaling and squaring around the degree-10 Taylor polynomial, evaluated
    by Paterson-Stockmeyer in powers of X^4.  Each matrix is scaled by its
    own power of two, so that alpha = max(||A^3||^(1/3), ||A^4||^(1/4)) in
    the Frobenius norm falls below 1/8 (Al-Mohy & Higham 2009): that bounds
    the truncated tail by 8^-11 / 11! ~ 3e-18, and for companion-like
    matrices alpha is far below ||A||; Magnus cells need no squaring.  The
    identity and X, X^2, X^3 fill one array, and a stack in which no matrix
    is scaled or squared skips the scalings by one.  A matrix gets the same
    result alone as inside a stack.
    """
    A = np.asarray(A)
    norm = _frobenius(A)
    if not np.all(np.isfinite(norm)):
        raise IntegrationError("non-finite generator: a coefficient sample overflowed")
    # first scale below 1 in norm, so the powers cannot overflow
    first = np.maximum(np.frexp(norm)[1], 0)
    powers = np.empty((4,) + A.shape, dtype=np.result_type(A, float))
    powers[0] = np.eye(A.shape[-1])
    powers[1] = A * np.exp2(-first)[..., None, None] if first.any() else A
    X, X2, X3 = powers[1:]
    np.matmul(X, X, out=X2)
    np.matmul(X2, X, out=X3)
    X4 = X2 @ X2
    alpha = np.maximum(_frobenius(X3) ** (1.0 / 3.0), _frobenius(X4) ** 0.25) * np.exp2(first)
    squarings = np.maximum(np.frexp(alpha)[1] + 3, 0)
    if first.any() or squarings.any():  # else undo is 1
        undo = np.exp2(first - squarings)[..., None, None]
        X *= undo
        X2 *= undo ** 2
        X3 *= undo ** 3
        X4 *= undo ** 4
    blocks = (_TAYLOR @ powers.reshape(4, -1)).reshape((len(_TAYLOR),) + A.shape)
    X = blocks[-1]
    for block in blocks[-2::-1]:
        X = X @ X4 + block
    for j in range(int(squarings.max(initial=0))):
        sel = squarings > j
        if sel.all():
            X = X @ X
        else:
            X[sel] = X[sel] @ X[sel]
    return X


def _growth_rate(sups: tuple, lam_ref: float) -> float:
    """Crude frequency scale: max_k sup|a_k|^(1/(2n-k)) over an interval, from
    its plan's sups of |a_k| (_Interval), with lam_ref = max|lam| added to a_0's."""
    sups = (sups[0] + lam_ref,) + sups[1:]
    return max((sup ** (1.0 / (len(sups) - k)) for k, sup in enumerate(sups) if sup > 0.0),
               default=0.0)


def _over_budget(cells: float, earlier: int = 0) -> IntegrationError:
    part = f" ({earlier} of them on earlier pieces)" if earlier else ""
    return IntegrationError(f"{cells:.3g} integration cells needed{part}, more than the budget "
                            f"of {MAX_CELLS} (coefficients or lambda too large, or too rough)")


def _check_bytes(lams: np.ndarray, nseg: int, d: int):
    """Refuses end matrices of more than MAX_BATCH_BYTES for lams on nseg segments."""
    nbytes = len(lams) * nseg * d ** 2 * np.result_type(lams, float).itemsize
    if nbytes > MAX_BATCH_BYTES:
        raise IntegrationError(f"the end matrices of {len(lams)} lambdas on {nseg} "
                               f"segments need {nbytes / 1e6:.3g} MB, more than "
                               f"MAX_BATCH_BYTES = {MAX_BATCH_BYTES}")


def _segment_nodes(op: LinearOperator, lams: np.ndarray) -> list:
    """Each breakpoint interval of op's plan (_Interval) with its segment
    boundaries and frequency scale, [(interval, nodes, rate)]; refuses more
    than MAX_CELLS segments and end matrices of more than MAX_BATCH_BYTES."""
    intervals = _plan(op)
    lam_ref = float(np.max(np.abs(lams))) if lams.size else 0.0
    rates = [_growth_rate(interval.sups, lam_ref) for interval in intervals]
    # Python floats, which overflow to inf without a warning
    nsub = [float(i.hi - i.lo) * rate / _GROWTH_PER_SEGMENT for i, rate in zip(intervals, rates)]
    if not sum(nsub) <= MAX_CELLS:  # also catches a non-finite rate
        raise _over_budget(sum(nsub))
    counts = [max(1, math.ceil(n)) for n in nsub]
    _check_bytes(lams, sum(counts), op.order)
    return [(interval, np.linspace(interval.lo, interval.hi, count + 1), rate)
            for interval, count, rate in zip(intervals, counts, rates)]


def _companion_rows(vals: list, lams: np.ndarray) -> np.ndarray:
    """Last companion rows -(a_0 + lam, a_1, ..., a_{d-1}), shape (..., K, d)."""
    return -np.stack(np.broadcast_arrays(vals[0] + lams, *vals[1:]), axis=-1)


def _unresolved(vals: list, bars: np.ndarray) -> np.ndarray:
    """Cells whose three-node Gauss mean of some coefficient differs from the
    mean of the rules on its two halves by more than that coefficient's bar;
    vals are sampled at _CHECK_NODES, shape (9, C, .)."""
    bad = np.zeros(vals[0].shape[1], dtype=bool)
    for v, bar in zip(vals, bars):
        full = _WEIGHTS @ v[:3].reshape(3, -1)
        halves = 0.5 * (_WEIGHTS @ v[3:6].reshape(3, -1) + _WEIGHTS @ v[6:].reshape(3, -1))
        miss = np.abs(full - halves).reshape(v.shape[1:]) > bar
        bad |= miss.any(axis=-1)
    return bad


def _companion(rows: np.ndarray) -> np.ndarray:
    """Companion matrices with the given last rows, shape rows.shape + (d,)."""
    d = rows.shape[-1]
    A = np.zeros(rows.shape + (d,), dtype=rows.dtype)
    A[..., np.arange(d - 1), np.arange(1, d)] = 1.0
    A[..., d - 1, :] = rows
    return A


def _commutator(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return X @ Y - Y @ X


def _magnus_generator(rows: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Sixth-order Magnus generator of cells of width h (shape S) from the
    companion rows at their three Gauss nodes (shape (3,) + S + (K, d)), in
    the commutator form of Blanes, Casas & Ros (2000)."""
    A1, A2, A3 = _companion(rows)
    h = h[..., None, None, None]
    a1 = h * A2
    a2 = (h * (math.sqrt(15.0) / 3.0)) * (A3 - A1)
    a3 = (h * (10.0 / 3.0)) * (A3 - 2.0 * A2 + A1)
    c1 = _commutator(a1, a2)
    c2 = _commutator(a1, 2.0 * a3 + c1) / -60.0
    return a1 + a3 / 12.0 + _commutator(c1 - 20.0 * a1 - a3, a2 + c2) / 240.0


def _magnus_polynomial(rows: np.ndarray, h: np.ndarray) -> tuple:
    """_magnus_generator as Omega_0 + lam Omega_1 + lam^2 Omega_2 from rows
    sampled at lam = 0 (shape (3,) + S + (1, d)): lam enters only a1 =
    h (A2 + lam E), E = -e_d e_1^T.  The lam^3 term, [E, [E, a2]], is zero as
    E^2 = 0 and a2's first row is zero; for d > 2 so is Omega_2 (not returned)."""
    A1, A2, A3 = _companion(rows)
    h = h[..., None, None, None]
    b = h * -np.eye(rows.shape[-1], k=1 - rows.shape[-1])  # h E
    a1 = h * A2
    a2 = (h * (math.sqrt(15.0) / 3.0)) * (A3 - A1)
    a3 = (h * (10.0 / 3.0)) * (A3 - 2.0 * A2 + A1)
    c1, c1_1 = _commutator(a1, a2), _commutator(b, a2)
    w = 2.0 * a3 + c1
    # c1 - 20 a1 - a3 = x + lam x1 and a2 + c2 = y + lam y1
    x, x1 = c1 - 20.0 * a1 - a3, c1_1 - 20.0 * b
    y = a2 + _commutator(a1, w) / -60.0
    y1 = (_commutator(b, w) + _commutator(a1, c1_1)) / -60.0
    terms = (a1 + a3 / 12.0 + _commutator(x, y) / 240.0,
             b + (_commutator(x, y1) + _commutator(x1, y)) / 240.0)
    return terms + (_commutator(x1, y1) / 240.0,) if rows.shape[-1] == 2 else terms


def _values(coeffs: tuple, ts: np.ndarray) -> list:
    """a_0, ..., a_{d-1} of the segments coeffs at the times ts, each of shape
    ts.shape + (1,): one evaluation per coefficient serves a whole batch."""
    return [np.broadcast_to(seg.evaluate(ts[..., None]), ts.shape + (1,)) for seg in coeffs]


class _Interval:
    """One breakpoint interval [lo, hi] of an operator, in its plan (_plan).
    It keeps the lambda-free data: the segment of each coefficient, whether
    all are constant, the sup of each |a_k| on 17 points (_growth_rate), a
    constant interval's coefficient values at its midpoint (sample), and a
    non-constant one's cells (_gauss_cells).  The companion rows and
    generators of a lambda batch, which its methods take, live as long as
    the call that made them."""

    def __init__(self, op: LinearOperator, lo: float, hi: float):
        self.lo, self.hi = lo, hi
        self.coeffs = tuple(op.coeff_segment_at(k, 0.5 * (lo + hi)) for k in range(op.order))
        self.constant = all(seg.is_constant() for seg in self.coeffs)
        self.sups = tuple(float(np.abs(v).max())
                          for v in _values(self.coeffs, np.linspace(lo, hi, 17)))
        self.mid = _values(self.coeffs, np.array(0.5 * (lo + hi))) if self.constant else None
        self.kept = {}  # (segments, cells per segment) -> cells

    def polynomial(self, lams: np.ndarray) -> bool:
        """Whether the generators of lams are polynomials in lambda (_POLYNOMIAL_BATCH)."""
        return len(lams) > _POLYNOMIAL_BATCH and not self.constant

    def rows(self, vals: list, lams: np.ndarray) -> np.ndarray:
        """Companion rows of the samples, at lam = 0 for polynomial generators."""
        return _companion_rows(vals, 0.0 if self.polynomial(lams) else lams)

    def sample(self, t0: np.ndarray, h: np.ndarray, lams: np.ndarray) -> np.ndarray:
        """Companion rows the generators of the steps [t0, t0 + h] need: the
        midpoint values of a constant interval, else samples at every step's
        Gauss nodes."""
        if self.constant:
            return self.rows(self.mid, lams)
        return self.rows(_values(self.coeffs, t0 + h * _GAUSS.reshape((3,) + (1,) * np.ndim(h))),
                         lams)

    def generators(self, rows: np.ndarray, h: np.ndarray, lams: np.ndarray) -> np.ndarray:
        """Omega of steps of width h (shape S) from their samples, S + (K, d, d)."""
        if self.constant:
            return h[..., None, None, None] * _companion(rows)
        if self.polynomial(lams):
            lam = lams[:, None, None]
            o0, o1, *o2 = _magnus_polynomial(rows, h)
            return ((o2[0] * lam + o1) if o2 else o1) * lam + o0
        return _magnus_generator(rows, h)

    def cells(self, nodes: np.ndarray, rate: float, used: int, lams: np.ndarray) -> tuple:
        """Cells (t0, h, segment index) of the segments between the nodes and
        their companion rows for lams: one cell per segment of a constant
        interval, else the kept ones (_gauss_cells)."""
        if self.constant:
            return nodes[:-1], np.diff(nodes), np.arange(len(nodes) - 1), self.rows(self.mid, lams)
        t0, h, seg, *gauss = self._gauss_cells(nodes, rate, used)
        return t0, h, seg, self.rows(gauss, lams)

    def _gauss_cells(self, nodes: np.ndarray, rate: float, used: int) -> tuple:
        """The cells of the segments between the nodes, (t0, h, segment index)
        in time order, then a_0, ..., a_{d-1} at their Gauss nodes, (3, C, 1)
        each: a uniform count per segment from rate and DEFAULT_TOL, then
        halvings of every cell whose coefficients the Gauss rule does not
        resolve to DEFAULT_TOL times their largest value sampled on the
        interval so far, checking the new halves only.  Made once per
        (segment count, cells per segment) and kept read-only (_keep_last);
        used cells count to MAX_CELLS."""
        tol = DEFAULT_TOL
        scale = max(rate, 1.0 / (self.hi - self.lo)) * (nodes[1] - nodes[0])
        m = max(1, math.ceil(_CELLS_PER_RATE * scale * tol ** (-1.0 / 6.0)))
        key = (len(nodes) - 1, m)
        if key in self.kept:
            if (total := used + len(self.kept[key][0])) > MAX_CELLS:
                raise _over_budget(total, used)
            return self.kept[key]
        edges = nodes[:-1, None] + np.diff(nodes)[:, None] * (np.arange(m + 1) / m)
        edges[:, -1] = nodes[1:]
        t0, h = edges[:, :-1].ravel(), np.diff(edges, axis=1).ravel()
        seg = np.repeat(np.arange(len(nodes) - 1), m)
        check_tol = max(tol, 64 * np.finfo(float).eps)
        sizes, kept = np.zeros(len(self.coeffs)), []
        for _ in range(_MAX_SPLITS + 1):
            if (total := used + sum(len(cells[0]) for cells in kept) + len(t0)) > MAX_CELLS:
                raise _over_budget(total, used)
            vals = _values(self.coeffs, t0 + h * _CHECK_NODES[:, None])
            if not all(np.isfinite(v).all() for v in vals):
                raise IntegrationError(f"coefficients not finite on [{self.lo:g}, {self.hi:g}]")
            sizes = np.maximum(sizes, [np.abs(v).max(initial=0.0) for v in vals])
            bad = _unresolved(vals, check_tol * sizes)
            kept.append((t0[~bad], h[~bad], seg[~bad], *(v[:3, ~bad] for v in vals)))
            if not bad.any():
                break
            h = np.repeat(h[bad] / 2, 2)
            t0 = np.repeat(t0[bad], 2) + np.tile([0.0, 1.0], int(bad.sum())) * h
            seg = np.repeat(seg[bad], 2)
        else:
            raise IntegrationError(f"coefficients not resolved on [{self.lo:g}, {self.hi:g}] "
                                   f"after {_MAX_SPLITS} cell halvings")
        t0, h, seg, *gauss = zip(*kept)
        order = np.argsort(np.concatenate(t0), kind="stable")
        cells = tuple(np.concatenate(part)[order] for part in (t0, h, seg)) + tuple(
            np.concatenate(v, axis=1)[:, order] for v in gauss)
        for part in cells:
            part.flags.writeable = False
        return _keep_last(self.kept, key, cells, 3 * len(order) * len(gauss))


def _plan(op: LinearOperator) -> tuple:
    """op's integration plan, one _Interval per breakpoint interval in order:
    made on op's first integration and kept on op (operators.noted), so
    every lambda batch shares its samples."""
    return noted(op, "_plan", lambda: tuple(_Interval(op, lo, hi)
                                            for lo, hi in itertools.pairwise(op.breakpoints())))


# The most points (or grid values) a kept value may cover: a store holds at
# most eight such values, so a kernel's grid store at most 4 MiB of real values.
_KEEP_MOST = 1 << 16


def _keep_last(store: dict, key, value, size: int):
    """value, kept in store under key if it covers 2 to _KEEP_MOST points
    (or grid values), where the eight latest stay: point sets repeat across
    grids, single points rarely, and a large grid is rarely asked for twice.
    Every store lives on one kernel or system, so a kernel source
    (greens.kernel_source) and whatever it made are freed together, or on
    an operator's plan (_Interval), whose cells hold no lambda."""
    if 1 < size <= _KEEP_MOST:
        if len(store) >= 8:
            del store[next(iter(store))]
        store[key] = value
    return value


@dataclass(frozen=True)
class _Cells:
    """Dense output of a Magnus integration of lams: the cells of every
    segment in time order.  starts (C,) are the cell start times, first
    (N+1,) the index of each segment's first cell (first[N] = C), piece (C,)
    the index into pieces, the plan's intervals (_Interval), of each cell's
    interval, and prefixes (C, K, d, d) the propagator from the segment
    start to the end of each cell."""

    starts: np.ndarray
    first: np.ndarray
    piece: np.ndarray
    pieces: list
    lams: np.ndarray
    prefixes: np.ndarray
    # (seg, ts) bytes -> local Phi, for this system and every copy of it
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def local_phi(self, seg: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Phi relative to each point's segment start, shape (nt, K, d, d),
        a copy of the one computation of these (seg, ts) on this system and
        its copies (_Copies), whose points map back here (_keep_last)."""
        key = (seg.tobytes(), ts.tobytes())
        out = self.memo.get(key)
        if out is None:
            out = _keep_last(self.memo, key, self._local_phi(seg, ts), len(ts))
        return out.copy() if key in self.memo else out

    def _local_phi(self, seg: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """local_phi, computed: one partial Magnus step from the start of the
        cell that holds t, times the propagator up to that cell.  The
        generators of every piece share one exponential call."""
        cell = np.clip(np.searchsorted(self.starts, ts, side="right") - 1,
                       self.first[seg], self.first[seg + 1] - 1)
        t0 = self.starts[cell]
        h = ts - t0
        piece_of = self.piece[cell]
        generators = np.empty((len(ts),) + self.prefixes.shape[1:], dtype=self.prefixes.dtype)
        for i in np.unique(piece_of):
            sel = piece_of == i
            interval = self.pieces[i]
            rows = interval.sample(t0[sel], h[sel], self.lams)
            generators[sel] = interval.generators(rows, h[sel], self.lams)
        out = expm(generators)
        inner = cell > self.first[seg]
        out[inner] = out[inner] @ self.prefixes[cell[inner] - 1]
        return out


@dataclass(frozen=True)
class _Copies:
    """Dense output of a system laid out as copies of its root's interval
    (mirror_fundamental): segment k of a copy is root segment k, or root
    segment N-1-k when the copy is mirrored.  There local Phi is
    S Phi_k(origin - t) E_k^-1 S, with Phi_k the root's local Phi, E_k its
    propagator and S = diag((-1)^j); elsewhere it is Phi_k(t - origin)."""

    root: _Cells
    mirrored: np.ndarray   # (copies,) whether each copy is mirrored
    origins: np.ndarray    # (copies,) the origin of each copy
    inverses: np.ndarray   # (N, K, d, d) E_k^-1 of every root segment
    flip: np.ndarray       # (d, d) (-1)^(i+j): S X S = X * flip

    def local_phi(self, seg: np.ndarray, ts: np.ndarray) -> np.ndarray:
        nseg = len(self.inverses)
        copy, k = np.divmod(seg, nseg)
        mirrored, origin = self.mirrored[copy], self.origins[copy]
        k = np.where(mirrored, nseg - 1 - k, k)
        out = self.root.local_phi(k, np.where(mirrored, origin - ts, ts - origin))
        out[mirrored] = (out[mirrored] @ self.inverses[k[mirrored]]) * self.flip
        return out


def mirror_fundamental(op: LinearOperator, root: "FundamentalSystem",
                       copies: tuple) -> "FundamentalSystem":
    """The system of op, copies (mirrored, origin) of its root's interval
    (operators.mirror_of), from the root's.  If u solves the root's
    equation, u(origin - t) solves op's on a mirrored copy, with state
    S x_u(origin - t), S = diag((-1)^j).  So a copy's propagators are the
    root's E_1 ... E_N, or S E_N^-1 S ... S E_1^-1 S where mirrored: the
    root's N end matrices are inverted once (the segment growth bound keeps
    them well conditioned), and the dense output is a view of the root's
    (_Copies).  op's segments count to the budgets before they exist."""
    nseg = len(root.segments) * len(copies)
    if nseg > MAX_CELLS:
        raise _over_budget(nseg)
    _check_bytes(root.lams, nseg, root.d)
    s = (-1.0) ** np.arange(root.d)
    flip = s[:, None] * s
    inverses = np.linalg.inv(root.segments)
    reverse = inverses[::-1] * flip
    segments = np.concatenate([reverse if mirrored else root.segments for mirrored, _ in copies])
    nodes = np.concatenate([[0.0]] + [(origin - root.nodes[::-1] if mirrored else
                                       origin + root.nodes)[1:] for mirrored, origin in copies])
    mirrored, origins = map(np.array, zip(*copies))
    cells = (_Copies(root.cells, mirrored, origins, inverses, flip)
             if root.cells is not None else None)
    return FundamentalSystem(op=op, lams=root.lams, nodes=nodes, segments=segments, cells=cells)


def _magnus_segments(interval: _Interval, lams: np.ndarray, nodes: np.ndarray, cells: tuple,
                     dense: bool) -> tuple:
    """Propagate every segment of one interval over its cells for lams
    (_Interval.cells): blocks of cells for the generators and their
    exponentials, multiplied into each segment's end matrix (and, dense, its
    per-cell prefixes).  A segment with fewer cells than the most is padded
    with zero-width cells, whose propagator is I.  A constant interval's
    segments are one cell each, exponentiated once per distinct width.  Returns the end matrices
    (nseg, K, d, d), the cell starts, the cell count of each segment and
    (dense, else None) the prefixes of the cells in time order,
    (cells, K, d, d)."""
    t0, h, seg, rows = cells
    nseg, K, d = len(nodes) - 1, len(lams), rows.shape[-1]
    counts = np.bincount(seg, minlength=nseg)
    cells = max(1, _BLOCK_MATRICES // K)
    if interval.constant:
        widths, which = np.unique(h, return_inverse=True)
        ends = np.concatenate([expm(interval.generators(rows, widths[i:i + cells], lams))
                               for i in range(0, len(widths), cells)])[which]
        return ends, t0, counts, ends if dense else None
    first = np.cumsum(counts) - counts
    rank = np.arange(counts.max())
    pad = rank >= counts[:, None]
    table = np.where(pad, first[:, None], first[:, None] + rank)
    width = np.where(pad, 0.0, h[table])
    ends = np.empty((nseg, K, d, d), dtype=np.result_type(rows, lams))
    prefixes = np.empty((nseg, len(rank), K, d, d), dtype=ends.dtype) if dense else None
    chunk = min(len(rank), cells)
    group = max(1, cells // chunk)
    for g0 in range(0, nseg, group):
        segs = slice(g0, g0 + group)
        P = None
        for c0 in range(0, len(rank), chunk):
            span = slice(c0, c0 + chunk)
            E = expm(interval.generators(rows[:, table[segs, span]], width[segs, span], lams))
            for i in range(E.shape[1]):
                P = E[:, i] if P is None else E[:, i] @ P
                if dense:
                    prefixes[segs, c0 + i] = P
        ends[segs] = P
    return ends, t0, counts, prefixes[~pad] if dense else None


@dataclass
class FundamentalSystem:
    """Segment propagators and local Phi (I at each segment start) for a
    batch of lambda values; global Phi is never formed.  Local Phi needs the
    dense output (cells), which integrate_fundamental always keeps."""

    op: LinearOperator
    lams: np.ndarray            # (K,) lambda values, the shifts of a_0
    nodes: np.ndarray           # (N+1,) segment boundaries, nodes[0] = 0
    segments: np.ndarray        # (N, K, d, d) propagator across each segment
    # dense output: the Magnus path's, a view of its root's, or the RK45 reference's
    cells: _Cells | _Copies | _RkCells = None
    # the grid factors and impulse states of the kernels on this system (see greens)
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def d(self) -> int:
        return self.op.order

    @property
    def K(self) -> int:
        return len(self.lams)

    def segment_index(self, t) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.searchsorted(self.nodes[1:-1], ts, side="right")
        return idx

    def local_phi(self, seg, ts) -> np.ndarray:
        """Phi relative to the start of segment seg (one index, or one per
        t), shape (nt, K, d, d)."""
        if self.cells is None:
            raise IntegrationError("fundamental system was integrated without dense output")
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return self.cells.local_phi(np.broadcast_to(seg, ts.shape), ts)


def _integrate(op: LinearOperator, lams: np.ndarray, dense: bool) -> FundamentalSystem:
    """The Magnus integration of op for lams: the cells of every piece,
    counted to MAX_CELLS, before any piece is propagated."""
    lams = np.asarray(lams)
    lams = lams.astype(np.result_type(lams, float))
    plan = _segment_nodes(op, lams)
    planned = []
    for interval, nodes, rate in plan:
        planned.append(interval.cells(nodes, rate, sum(len(cells[0]) for cells in planned), lams))
    ends, starts, counts, prefixes = zip(*(
        _magnus_segments(interval, lams, nodes, cells, dense)
        for (interval, nodes, _), cells in zip(plan, planned)))
    nodes = np.concatenate([[0.0]] + [nodes[1:] for _, nodes, _ in plan])
    cells = None
    if dense:
        piece = np.repeat(np.arange(len(plan)), [len(c) for c in starts])
        cells = _Cells(np.concatenate(starts), np.append(0, np.cumsum(np.concatenate(counts))),
                       piece, [interval for interval, _, _ in plan], lams, np.concatenate(prefixes))
    return FundamentalSystem(op=op, lams=lams, nodes=nodes, segments=np.concatenate(ends),
                             cells=cells)


def integrate_fundamental(op: LinearOperator, lam: float = 0.0) -> FundamentalSystem:
    """Fundamental system of L[lam] u = 0 with canonical initial data at t=0,
    to DEFAULT_TOL, with dense output."""
    return _system(op, np.array([lam]), True, {})


def integrate_fundamental_batch(op: LinearOperator, lams) -> FundamentalSystem:
    """One Magnus integration sweep shared by a whole vector of lambda values,
    to DEFAULT_TOL: the segment propagators, without dense output."""
    return _system(op, np.atleast_1d(np.asarray(lams)), False, {})


def _system(op: LinearOperator, lams: np.ndarray, dense: bool, systems: dict) -> FundamentalSystem:
    """The fundamental system of op for lams, kept in systems by operator:
    integrated where op has no note, else derived in one step from its root
    operator's, integrated once (operators.mirror_of, mirror_fundamental)."""
    if op not in systems:
        root, copies = mirror_of(op) or (op, None)
        if root not in systems:
            systems[root] = _integrate(root, lams, dense)
        if copies:
            systems[op] = mirror_fundamental(op, systems[root], copies)
    return systems[op]


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call so that only the
    RK45 reference pays for the import."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


@dataclass(frozen=True)
class _RkCells:
    """Dense output of the RK45 reference: sols[k] maps times on segment k
    to the K flattened d x d matrices of local Phi."""

    sols: tuple
    lams: np.ndarray
    d: int

    def local_phi(self, seg: np.ndarray, ts: np.ndarray) -> np.ndarray:
        shape = (len(self.lams), self.d, self.d)
        out = np.empty((len(ts),) + shape, dtype=self.lams.dtype)
        for k in np.unique(seg):
            mask = seg == k
            out[mask] = self.sols[k](ts[mask]).T.reshape((-1,) + shape)
        return out


def _rk_segment(op: LinearOperator, lo: float, hi: float, lams: np.ndarray,
                tol: float) -> tuple:
    """The segment's end matrices (K, d, d) and its dense solution."""
    d = op.order
    K = len(lams)
    closures = [op.coeff_segment_at(k, 0.5 * (lo + hi)).evaluate for k in range(d)]
    lam_col = lams[:, None]

    def rhs(t, y):
        U = y.reshape(K, d, d)
        dU = np.empty_like(U)
        dU[:, : d - 1, :] = U[:, 1:, :]
        acc = -(closures[0](t) + lam_col) * U[:, 0, :]
        for k in range(1, d):
            ak = closures[k](t)
            if ak != 0.0:
                acc -= ak * U[:, k, :]
        dU[:, d - 1, :] = acc
        return dU.ravel()

    y0 = np.broadcast_to(np.eye(d, dtype=lams.dtype), (K, d, d)).ravel().copy()
    result = solve_ivp(
        rhs,
        (lo, hi),
        y0,
        method="RK45",
        rtol=tol,
        atol=tol * 1e-2,
        dense_output=True,
    )
    if not result.success:
        raise IntegrationError(f"integration failed on [{lo}, {hi}]: {result.message}")
    return result.y[:, -1].reshape(K, d, d), result.sol


def _rk_reference(op: LinearOperator, lam, tol: float) -> FundamentalSystem:
    """Fundamental system of L[lam] u = 0 with dense output from an adaptive
    Dormand-Prince integration (rtol tol) on every segment of the Magnus
    path's plan, constant ones included: the tests' reference, independent
    of the Magnus propagator.  op is integrated as it is, noted or not."""
    lams = np.array([lam])
    lams = lams.astype(np.result_type(lams, float))
    nodes = np.concatenate([[0.0]] + [nodes[1:] for _, nodes, _ in _segment_nodes(op, lams)])
    ends, sols = zip(*(_rk_segment(op, a, b, lams, tol) for a, b in zip(nodes[:-1], nodes[1:])))
    return FundamentalSystem(op=op, lams=lams, nodes=nodes, segments=np.stack(ends),
                             cells=_RkCells(sols, lams, op.order))
