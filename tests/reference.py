"""Global fundamental matrices of a FundamentalSystem and the dense segment
block system, as test references.

The package carries solutions across segments in its block systems and never
forms the global Phi(t) = local Phi(t) Phi(start of t's segment).  These
helpers build it from the products of the segment propagators, for the tests
of the propagator's dense output and end matrices against closed forms.
block_solve assembles the whole block system that greens reduces level by
level and solves it with one dense LU.  solve_bvp_loop is the row-by-row
form of comparison.solve_bvp's quadrature.  expm_stacked is the cell
exponential as it was before it wrote its powers into one array and skipped
scalings by one: integrate.expm must equal it bit for bit.
"""

import numpy as np

from greenbvp.expressions import compile_expr, parse_expression
from greenbvp.greens import ProblemSpec, _boundary_coeffs
from greenbvp.integrate import _TAYLOR, FundamentalSystem, IntegrationError, _frobenius

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


def block_solve(C: np.ndarray, ends: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Node states (N+1, d, k) of the block system Y_{i+1} - E_i Y_i = r_i
    (i < N), C [Y_0; Y_N] = b for the propagators ends (N, d, d), assembled
    densely and solved with numpy.linalg.solve; rhs (N+1, d, k) stacks
    r_0 .. r_{N-1} and b."""
    N, d = ends.shape[:2]
    A = np.zeros((N + 1, d, N + 1, d))
    A[range(N), :, range(N)] = -ends
    A[range(N), :, range(1, N + 1)] = np.eye(d)
    A[N, :, 0], A[N, :, N] = C[:, :d], C[:, d:]
    dim = (N + 1) * d
    return np.linalg.solve(A.reshape(dim, dim), rhs.reshape(dim, -1)).reshape(N + 1, d, -1)



def _simpson_nodes(vals: np.ndarray, xs: np.ndarray) -> float:
    """Composite Simpson on the given nodes (>= 2 subintervals)."""
    n = len(xs) - 1
    h = xs[1] - xs[0]
    total = 0.0
    start = 0
    if n % 2 == 1:
        total += 3 * h / 8 * (vals[0] + 3 * vals[1] + 3 * vals[2] + vals[3])
        start = 3
    seg = vals[start:]
    if len(seg) >= 3:
        total += h / 3 * (seg[0] + 4 * seg[1:-1:2].sum() + 2 * seg[2:-2:2].sum() + seg[-1])
    return float(total)


def solve_bvp_loop(G, sigma: str, m: int) -> np.ndarray:
    """The samples of comparison.solve_bvp, one row at a time: Simpson sums
    on each side of the diagonal, with a midpoint kernel value for a side of
    one subinterval."""
    f = compile_expr(parse_expression(sigma))
    lam = G.problem.lam
    ts = np.linspace(0.0, G.length, m)
    sig = np.broadcast_to(np.asarray(f(ts, lam), dtype=float), ts.shape)
    grid = G.eval_grid(ts, ts)
    values = np.empty(m)
    for i in range(m):
        left = grid[i, : i + 1] * sig[: i + 1]
        right = grid[i, i:] * sig[i:]
        total = 0.0
        for vals, xs, lo_idx in ((left, ts[: i + 1], 0), (right, ts[i:], i)):
            n = len(xs) - 1
            if n == 0:
                continue
            if n == 1:
                mid = 0.5 * (xs[0] + xs[1])
                gm = G(ts[i], mid) * float(f(mid, lam))
                total += (xs[1] - xs[0]) / 6.0 * (vals[0] + 4 * gm + vals[1])
            else:
                total += _simpson_nodes(vals, xs)
        values[i] = total
    return values


def expm_stacked(A: np.ndarray) -> np.ndarray:
    """integrate.expm with every scaling applied, by one where a matrix needs
    none, and its powers stacked after an identity broadcast to the stack."""
    A = np.asarray(A)
    norm = _frobenius(A)
    if not np.all(np.isfinite(norm)):
        raise IntegrationError("non-finite generator: a coefficient sample overflowed")
    # first scale below 1 in norm, so the powers cannot overflow
    first = np.maximum(np.frexp(norm)[1], 0)
    X = A * np.exp2(-first)[..., None, None]
    X2 = X @ X
    X3 = X2 @ X
    X4 = X2 @ X2
    alpha = np.maximum(_frobenius(X3) ** (1.0 / 3.0), _frobenius(X4) ** 0.25) * np.exp2(first)
    squarings = np.maximum(np.frexp(alpha)[1] + 3, 0)
    undo = np.exp2(first - squarings)[..., None, None]
    X = X * undo
    X2 = X2 * undo ** 2
    X4 = X4 * undo ** 4
    eye = np.broadcast_to(np.eye(A.shape[-1]), X.shape)
    powers = np.stack([eye, X, X2, X3 * undo ** 3])
    blocks = (_TAYLOR @ powers.reshape(4, -1)).reshape((len(_TAYLOR),) + X.shape)
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
