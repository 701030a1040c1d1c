"""Fundamental solution matrices of the companion system u' = A(t) u.

The homogeneous equation L[lam] u = 0 is integrated as a first-order system
whose state is (u, u', ..., u^(2n-1)).  Integration proceeds segment by
segment: segment boundaries are the coefficient breakpoints (where odd
reflection extensions may jump) plus extra subdivisions that cap the solution
growth per segment, so downstream boundary solves stay well conditioned.
Within a segment, piecewise-constant coefficients are propagated exactly by
the matrix exponential; otherwise an adaptive Dormand-Prince 5(4) pair with
dense output is used.  Everything is batched over a vector of lambda values,
which makes characteristic-determinant scans cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .operators import LinearOperator

__all__ = [
    "IntegrationError",
    "FundamentalSystem",
    "integrate_fundamental",
    "integrate_fundamental_batch",
    "transition",
    "cauchy_value",
]

DEFAULT_TOL = 1e-10

# Maximum allowed e-folding of the solution across one integration segment.
_GROWTH_PER_SEGMENT = 3.0


class IntegrationError(RuntimeError):
    """Integrator failure (step-size underflow, singular state matrix, ...)."""


def _coeff_closures(op: LinearOperator, lo: float, hi: float):
    """Per-coefficient fast evaluators valid on [lo, hi]: f(t, lam_eff)."""
    mid = 0.5 * (lo + hi)
    closures = []
    for k in range(op.order):
        seg = op.coeff_segment_at(k, mid)
        closures.append(seg.evaluate)
    return closures


def _growth_rate(op: LinearOperator, lo: float, hi: float, lam_eff: np.ndarray) -> float:
    """Crude frequency scale: max_k sup|a_k|^(1/(2n-k)) over the segment."""
    ts = np.linspace(lo, hi, 17)
    lam_ref = float(np.max(np.abs(lam_eff))) if lam_eff.size else 0.0
    d = op.order
    rate = 0.0
    for k, f in enumerate(_coeff_closures(op, lo, hi)):
        sup = float(np.max(np.abs(np.broadcast_to(np.asarray(f(ts, lam_ref)), ts.shape))))
        if k == 0:
            sup += lam_ref + abs(op.lam)
        if sup > 0.0:
            rate = max(rate, sup ** (1.0 / (d - k)))
    return rate


def _segment_nodes(op: LinearOperator, lam_eff: np.ndarray) -> np.ndarray:
    nodes = [0.0]
    for lo, hi in zip(op.breakpoints()[:-1], op.breakpoints()[1:]):
        rate = _growth_rate(op, lo, hi, lam_eff)
        nsub = max(1, math.ceil((hi - lo) * rate / _GROWTH_PER_SEGMENT))
        nodes.extend(np.linspace(lo, hi, nsub + 1)[1:])
    return np.array(nodes)


@dataclass
class _ExpmSegment:
    """Constant-coefficient segment: Phi_local(t) = expm(A (t - t0))."""

    t0: float
    t1: float
    A: np.ndarray  # (K, d, d)
    _end: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self._end is None:
            self._end = expm(self.A * (self.t1 - self.t0))

    def end_matrix(self) -> np.ndarray:
        return self._end

    def member(self, k: int) -> "_ExpmSegment":
        return _ExpmSegment(self.t0, self.t1, self.A[k:k + 1], self._end[k:k + 1])

    def local_phi(self, ts: np.ndarray) -> np.ndarray:
        dt = np.asarray(ts, dtype=float) - self.t0
        stacked = self.A[None, :, :, :] * dt[:, None, None, None]
        K, d = self.A.shape[0], self.A.shape[1]
        out = expm(stacked.reshape(-1, d, d))
        return out.reshape(len(dt), K, d, d)


@dataclass
class _RkSegment:
    """Variable-coefficient segment solved by an adaptive RK 5(4) pair."""

    t0: float
    t1: float
    K: int
    d: int
    sol: object = None          # OdeSolution when dense output was kept
    _end: np.ndarray = None     # (K, d, d)

    def end_matrix(self) -> np.ndarray:
        return self._end

    def member(self, k: int) -> "_RkSegment":
        rows = slice(k * self.d * self.d, (k + 1) * self.d * self.d)
        sol = None if self.sol is None else (lambda ts, sol=self.sol: sol(ts)[rows])
        return _RkSegment(self.t0, self.t1, 1, self.d, sol, self._end[k:k + 1])

    def local_phi(self, ts: np.ndarray) -> np.ndarray:
        if self.sol is None:
            raise IntegrationError("fundamental system was integrated without dense output")
        ts = np.asarray(ts, dtype=float)
        vals = self.sol(ts)  # (K*d*d, nt)
        return vals.T.reshape(len(ts), self.K, self.d, self.d)


def _companion_batch(op: LinearOperator, lo: float, hi: float, lam_eff: np.ndarray,
                     t: float) -> np.ndarray:
    """Companion matrices A(t) for every lambda in the batch, shape (K, d, d)."""
    d = op.order
    K = len(lam_eff)
    A = np.zeros((K, d, d))
    idx = np.arange(d - 1)
    A[:, idx, idx + 1] = 1.0
    for k, f in enumerate(_coeff_closures(op, lo, hi)):
        vals = np.broadcast_to(np.asarray(f(t, lam_eff), dtype=float), (K,)).copy()
        if k == 0:
            vals += lam_eff
        A[:, d - 1, k] = -vals
    return A


def _integrate_segment(op: LinearOperator, lo: float, hi: float, lam_eff: np.ndarray,
                       tol: float, dense: bool, force_rk: bool = False):
    d = op.order
    K = len(lam_eff)
    if op.is_t_constant_on(lo, hi) and not force_rk:
        return _ExpmSegment(lo, hi, _companion_batch(op, lo, hi, lam_eff, 0.5 * (lo + hi)))

    closures = _coeff_closures(op, lo, hi)
    lam_col = lam_eff[:, None]

    def rhs(t, y):
        U = y.reshape(K, d, d)
        dU = np.empty_like(U)
        dU[:, : d - 1, :] = U[:, 1:, :]
        acc = -(np.reshape(closures[0](t, lam_eff), (-1, 1)) + lam_col) * U[:, 0, :]
        for k in range(1, d):
            ak = np.asarray(closures[k](t, lam_eff), dtype=float)
            if ak.ndim == 0:
                if ak != 0.0:
                    acc -= float(ak) * U[:, k, :]
            else:
                acc -= ak[:, None] * U[:, k, :]
        dU[:, d - 1, :] = acc
        return dU.ravel()

    y0 = np.broadcast_to(np.eye(d), (K, d, d)).ravel().copy()
    result = solve_ivp(
        rhs,
        (lo, hi),
        y0,
        method="RK45",
        rtol=tol,
        atol=tol * 1e-2,
        dense_output=dense,
    )
    if not result.success:
        raise IntegrationError(f"integration failed on [{lo}, {hi}]: {result.message}")
    seg = _RkSegment(lo, hi, K, d)
    seg._end = result.y[:, -1].reshape(K, d, d)
    if dense:
        seg.sol = result.sol
    return seg


@dataclass
class FundamentalSystem:
    """Fundamental matrices Phi(t) (Phi(0) = I) for a batch of lambda values."""

    op: LinearOperator
    lams: np.ndarray            # (K,) problem lambda values (before the op's own offset)
    tol: float
    nodes: np.ndarray           # (N+1,) segment boundaries, nodes[0] = 0
    segments: list = field(default_factory=list)
    prefixes: np.ndarray = None  # (N+1, K, d, d); prefixes[i] = Phi(nodes[i])
    dense: bool = True

    @property
    def d(self) -> int:
        return self.op.order

    @property
    def K(self) -> int:
        return len(self.lams)

    @property
    def lam(self) -> float:
        if self.K != 1:
            raise ValueError("fundamental system holds a lambda batch; index it first")
        return float(self.lams[0])

    def segment_index(self, t) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.searchsorted(self.nodes[1:-1], ts, side="right")
        return idx

    def local_phi(self, seg: int, ts: np.ndarray) -> np.ndarray:
        """Phi relative to the segment start, shape (nt, K, d, d)."""
        return self.segments[seg].local_phi(np.asarray(ts, dtype=float))

    def phi_all(self, ts) -> np.ndarray:
        """Global Phi(t) for an array of times, shape (nt, K, d, d)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if np.any(ts < self.nodes[0] - 1e-12) or np.any(ts > self.nodes[-1] + 1e-12):
            raise ValueError("time outside the integration interval")
        out = np.empty((len(ts), self.K, self.d, self.d))
        idx = self.segment_index(ts)
        for seg in np.unique(idx):
            mask = idx == seg
            local = self.local_phi(seg, ts[mask])
            out[mask] = np.einsum("nkij,kjl->nkil", local, self.prefixes[seg])
        return out

    def phi(self, ts) -> np.ndarray:
        """Single-lambda convenience: shape (nt, d, d)."""
        if self.K != 1:
            raise ValueError("use phi_all for a lambda batch")
        return self.phi_all(ts)[:, 0]

    def phi_end(self) -> np.ndarray:
        """Phi at the right endpoint, shape (K, d, d)."""
        return self.prefixes[-1]

    def member(self, k: int) -> "FundamentalSystem":
        """View of the k-th lambda of the batch as a single-lambda system."""
        return replace(self, lams=self.lams[k:k + 1], prefixes=self.prefixes[:, k:k + 1],
                       segments=[seg.member(k) for seg in self.segments])


def _integrate(op: LinearOperator, lams: np.ndarray, tol: float, dense: bool,
               force_rk: bool = False) -> FundamentalSystem:
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    lam_eff = np.asarray(lams, dtype=float) + op.lam
    nodes = _segment_nodes(op, lam_eff)
    d = op.order
    K = len(lam_eff)
    segments = []
    prefixes = np.empty((len(nodes), K, d, d))
    prefixes[0] = np.eye(d)
    for i, (lo, hi) in enumerate(zip(nodes[:-1], nodes[1:])):
        seg = _integrate_segment(op, lo, hi, lam_eff, tol, dense, force_rk)
        segments.append(seg)
        prefixes[i + 1] = np.einsum("kij,kjl->kil", seg.end_matrix(), prefixes[i])
    return FundamentalSystem(
        op=op,
        lams=np.asarray(lams, dtype=float),
        tol=tol,
        nodes=nodes,
        segments=segments,
        prefixes=prefixes,
        dense=dense,
    )


def integrate_fundamental(op: LinearOperator, lam: float = 0.0, tol: float = DEFAULT_TOL,
                          dense: bool = True, force_rk: bool = False) -> FundamentalSystem:
    """Fundamental system of L[lam] u = 0 with canonical initial data at t=0.

    force_rk disables the exact matrix-exponential fast path for
    piecewise-constant coefficients (used to exercise the adaptive
    integrator against closed forms).
    """
    return _integrate(op, np.array([float(lam)]), tol, dense, force_rk)


def integrate_fundamental_batch(op: LinearOperator, lams, tol: float = DEFAULT_TOL,
                                dense: bool = False, force_rk: bool = False) -> FundamentalSystem:
    """One integration sweep shared by a whole vector of lambda values."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    return _integrate(op, lams, tol, dense, force_rk)


_COND_LIMIT = 1e13


def transition(fs: FundamentalSystem, s: float, t: float) -> np.ndarray:
    """State-transition matrix Phi(t) Phi(s)^-1 from time s to time t."""
    phi_s = fs.phi([s])[0]
    cond = np.linalg.cond(phi_s)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise IntegrationError(f"ill-conditioned state matrix at t={s}: cond={cond:.3e}")
    phi_t = fs.phi([t])[0]
    return np.linalg.solve(phi_s.T, phi_t.T).T


def cauchy_value(fs: FundamentalSystem, t: float, s: float) -> float:
    """Impulse-response kernel k(t, s): the solution with u^(i)(s)=0 for
    i < 2n-1 and u^(2n-1)(s)=1, evaluated at t (requires s <= t)."""
    if s > t:
        raise ValueError("cauchy_value requires s <= t")
    return float(transition(fs, s, t)[0, fs.d - 1])
