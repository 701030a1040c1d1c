"""Global fundamental matrices of a FundamentalSystem, as a test reference.

The package carries solutions across segments in its block systems and never
forms the global Phi(t) = local Phi(t) Phi(start of t's segment).  These
helpers build it from the products of the segment propagators, for the tests
of the propagator's dense output and end matrices against closed forms.
"""

import numpy as np

from greenbvp.greens import ProblemSpec, _boundary_coeffs
from greenbvp.integrate import FundamentalSystem, IntegrationError

_COND_LIMIT = 1e13


def node_phi(fs: FundamentalSystem) -> np.ndarray:
    """Phi at every segment boundary, shape (N+1, K, d, d)."""
    out = np.empty((len(fs.nodes),) + fs.segments.shape[1:], dtype=fs.segments.dtype)
    out[0] = np.eye(fs.d)
    for i, end in enumerate(fs.segments):
        out[i + 1] = end @ out[i]
    return out


def phi_end(fs: FundamentalSystem) -> np.ndarray:
    """Phi(T) for every lambda of the batch, shape (K, d, d)."""
    return node_phi(fs)[-1]


def phi(fs: FundamentalSystem, ts) -> np.ndarray:
    """Global Phi(t) of a single-lambda system, shape (nt, d, d)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    seg = fs.segment_index(ts)
    return (fs.local_phi(seg, ts) @ node_phi(fs)[seg])[:, 0]


def transition(fs: FundamentalSystem, s: float, t: float) -> np.ndarray:
    """State-transition matrix Phi(t) Phi(s)^-1 from time s to time t."""
    phi_s = phi(fs, [s])[0]
    cond = np.linalg.cond(phi_s)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise IntegrationError(f"ill-conditioned state matrix at t={s}: cond={cond:.3e}")
    return np.linalg.solve(phi_s.T, phi(fs, [t])[0].T).T


def cauchy_value(fs: FundamentalSystem, t: float, s: float) -> float:
    """Impulse-response kernel k(t, s): the solution with u^(i)(s) = 0 for
    i < 2n-1 and u^(2n-1)(s) = 1, evaluated at t (requires s <= t)."""
    if s > t:
        raise ValueError("cauchy_value requires s <= t")
    return float(transition(fs, s, t)[0, fs.d - 1])


def boundary_matrix(problem: ProblemSpec, fs: FundamentalSystem) -> np.ndarray:
    """Functionals applied to the fundamental columns, C[:, :d] + C[:, d:] Phi(T);
    det vanishes exactly at the eigenvalues of the problem."""
    d = fs.d
    C = _boundary_coeffs(problem.kind, problem.operator.n)
    return C[:, :d] + C[:, d:] @ phi_end(fs)[0]
