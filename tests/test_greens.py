import cmath
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from greenbvp import (
    BCKind,
    GreensEvaluator,
    LinearOperator,
    ProblemSpec,
    ResonantProblemError,
    build_greens,
    char_det_scan,
    extend_to_double,
    extend_to_quadruple,
    integrate_fundamental,
)
from greenbvp import greens as greens_module
from greenbvp import integrate as integrate_module
from greenbvp import spectrum as spectrum_module
from greenbvp.expressions import compile_expr, parse_expression
from greenbvp.greens import (KERNEL_CODES, RESONANCE_THRESHOLD, _boundary_coeffs, _boundary_norm,
                             _graph_matrix, kernel_problem, kernel_source)
from greenbvp.identities import run_identities
from greenbvp.integrate import FundamentalSystem
from greenbvp.operators import coeff_values, mirror_of, reflect

from conftest import fd_stencil
from reference import block_solve, boundary_matrix


def string_kernel(t, s):
    """u'' with Dirichlet conditions on [0,1]."""
    lo, hi = min(t, s), max(t, s)
    return lo * (hi - 1.0)


def cosh_kernel(t, s):
    """u'' - u with Neumann conditions on [0,1]."""
    lo, hi = min(t, s), max(t, s)
    return -math.cosh(lo) * math.cosh(1.0 - hi) / math.sinh(1.0)


def beam_kernel_exact(t, s):
    """u'''' with Dirichlet (simply supported) conditions on [0,1], computed
    by exact rational elimination on the 4x4 boundary system over the
    polynomial fundamental solutions 1, t, t^2/2, t^3/6."""
    t, s = Fraction(t), Fraction(s)

    def h(x):  # impulse kernel (x - s)^3/6 for x >= s
        return (x - s) ** 3 / 6 if x >= s else Fraction(0)

    # boundary rows u(0), u''(0), u(1), u''(1) applied to the basis
    B = [
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(1)],
    ]
    rhs = [Fraction(0), Fraction(0), -((1 - s) ** 3 / 6), -(1 - s)]
    # Gaussian elimination over the rationals
    A = [row[:] + [rhs[i]] for i, row in enumerate(B)]
    for col in range(4):
        pivot = next(r for r in range(col, 4) if A[r][col] != 0)
        A[col], A[pivot] = A[pivot], A[col]
        A[col] = [x / A[col][col] for x in A[col]]
        for r in range(4):
            if r != col and A[r][col] != 0:
                A[r] = [x - A[r][col] * y for x, y in zip(A[r], A[col])]
    c = [A[r][4] for r in range(4)]
    basis = [Fraction(1), t, t ** 2 / 2, t ** 3 / 6]
    return float(h(t) + sum(ci * bi for ci, bi in zip(c, basis)))


def test_boundary_functionals_neumann_n1():
    # rows u'(0) and u'(T) on the states [u(0), u'(0) | u(T), u'(T)]
    assert _boundary_coeffs(BCKind.NEUMANN, 1).tolist() == [
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0]]


def test_boundary_functionals_dirichlet_n2():
    # rows u(0), u(T), u''(0), u''(T)
    assert _boundary_coeffs(BCKind.DIRICHLET, 2).tolist() == [
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]]


def test_boundary_functionals_antiperiodic_n1():
    # rows u(0) + u(T) and u'(0) + u'(T)
    assert _boundary_coeffs(BCKind.ANTIPERIODIC, 1).tolist() == [
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0]]


def test_boundary_matrix_examples(second_order_op):
    fs = integrate_fundamental(second_order_op)
    B = boundary_matrix(ProblemSpec(second_order_op, BCKind.DIRICHLET), fs)
    assert B == pytest.approx(np.array([[1.0, 0.0], [1.0, 1.0]]), abs=1e-12)
    assert np.linalg.det(B) == pytest.approx(1.0, abs=1e-12)
    B = boundary_matrix(ProblemSpec(second_order_op, BCKind.NEUMANN), fs)
    assert B == pytest.approx(np.array([[0.0, 1.0], [0.0, 1.0]]), abs=1e-12)
    assert np.linalg.det(B) == pytest.approx(0.0, abs=1e-12)


def test_periodic_full_resonance():
    op = LinearOperator.from_exprs(1, 2 * np.pi, ["1", "0"])
    assert abs(char_det_scan(op, BCKind.PERIODIC, [0.0])[0]) < 1e-10
    with pytest.raises(ResonantProblemError):
        build_greens(ProblemSpec(op, BCKind.PERIODIC))


def test_string_kernel_closed_form(second_order_op):
    G = build_greens(ProblemSpec(second_order_op, BCKind.DIRICHLET))
    assert G(0.5, 0.25) == pytest.approx(-0.125, abs=1e-10)
    assert G(0.25, 0.5) == pytest.approx(-0.125, abs=1e-10)
    ts = np.linspace(0, 1, 21)
    exact = np.array([[string_kernel(t, s) for s in ts] for t in ts])
    assert np.abs(G.sample_grid(21) - exact).max() < 1e-8


def test_neumann_resonant_refused(second_order_op):
    with pytest.raises(ResonantProblemError):
        build_greens(ProblemSpec(second_order_op, BCKind.NEUMANN))


def test_cosh_kernel_closed_form():
    op = LinearOperator.from_exprs(1, 1.0, ["-1", "0"])
    G = build_greens(ProblemSpec(op, BCKind.NEUMANN))
    assert G(0.0, 0.0) == pytest.approx(-math.cosh(1) / math.sinh(1), abs=1e-9)
    ts = np.linspace(0, 1, 21)
    exact = np.array([[cosh_kernel(t, s) for s in ts] for t in ts])
    assert np.abs(G.sample_grid(21) - exact).max() < 1e-8


def test_beam_kernel_against_rational_oracle(const_fourth_op):
    G = build_greens(ProblemSpec(const_fourth_op, BCKind.DIRICHLET))
    ts = np.linspace(0, 1, 21)
    exact = np.array([[beam_kernel_exact(t, s) for s in ts] for t in ts])
    assert np.abs(G.sample_grid(21) - exact).max() < 1e-8


def test_boundary_conditions_satisfied(const_fourth_op):
    G = build_greens(ProblemSpec(const_fourth_op, BCKind.DIRICHLET, -10.0))
    for s in (0.2, 0.5, 0.9):
        assert abs(G(0.0, s)) < 1e-8
        assert abs(G(1.0, s)) < 1e-8


def test_eval_greens_wrapper(second_order_op):
    G = build_greens(ProblemSpec(second_order_op, BCKind.DIRICHLET))
    assert G(0.5, 0.25) == G.eval_grid([0.5], [0.25])[0, 0]
    with pytest.raises(ValueError):
        G(1.5, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_refused_as_off_the_interval(second_order_op, bad):
    # NaN fails the range test as +-inf do, in t and in s, through a point
    # call and a grid alike, before any local Phi is formed
    G = build_greens(ProblemSpec(second_order_op, BCKind.DIRICHLET))
    for call in (lambda: G(bad, 0.5), lambda: G(0.5, bad),
                 lambda: G.eval_grid([0.1, bad], [0.5]), lambda: G.eval_grid([0.5], [0.1, bad])):
        with pytest.raises(ValueError, match="grid points outside the problem interval"):
            call()


def test_sample_grid_corners_and_determinism(second_order_op):
    G = build_greens(ProblemSpec(second_order_op, BCKind.DIRICHLET))
    corners = G.sample_grid(2)
    assert corners.shape == (2, 2)
    assert corners == pytest.approx(np.zeros((2, 2)), abs=1e-12)
    a = G.sample_grid(17)
    b = G.sample_grid(17)
    assert np.array_equal(a, b)


def test_sample_grid_sign(second_order_op):
    G = build_greens(ProblemSpec(second_order_op, BCKind.DIRICHLET))
    assert (G.sample_grid(41) <= 1e-15).all()


def test_sample_grid_matches_eval_grid(quartic_weight_op):
    G = build_greens(ProblemSpec(extend_to_quadruple(quartic_weight_op), BCKind.PERIODIC, 2.0))
    pts = np.linspace(0.0, G.length, 101)
    assert np.array_equal(G.sample_grid(101), G.eval_grid(pts, pts))


def test_jump_condition_by_one_sided_differences(const_fourth_op):
    # third t-derivative jumps by one across the diagonal
    G = build_greens(ProblemSpec(const_fourth_op, BCKind.DIRICHLET, 5.0))
    s = 0.55
    h = 1e-2
    offsets = np.arange(6, dtype=float)
    w = fd_stencil(offsets, 3) / h ** 3
    right = sum(wi * G(s + k * h, s) for k, wi in zip(offsets, w))
    left = sum(wi * G(s - k * h, s) for k, wi in zip(offsets, w))
    jump = right - (-left)  # mirrored stencil flips odd-derivative sign
    assert jump == pytest.approx(1.0, abs=1e-4)


def gauss_u_derivative(G, sigma, lam, t, component):
    """d^component/dt^component of the Green integral at one point, with
    Gauss-Legendre panels split at the diagonal (near machine accuracy)."""
    nodes, weights = np.polynomial.legendre.leggauss(48)
    total = 0.0
    for lo, hi in ((0.0, t), (t, G.length)):
        if hi - lo < 1e-14:
            continue
        xs = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        ws = 0.5 * (hi - lo) * weights
        vals = G.eval_grid(np.array([t]), xs, component=component)[0]
        total += np.sum(ws * vals * np.asarray(sigma(xs, lam), dtype=float))
    return total


def test_reproduction_of_sources(quartic_weight_op):
    # u(t) = integral G(t,s) sigma(s) ds satisfies L u = sigma at interior
    # collocation points (top derivative by finite differences of the exact
    # third-derivative kernel) and the boundary functionals
    lam = 2.0
    G = build_greens(ProblemSpec(quartic_weight_op, BCKind.NEUMANN, lam))
    sigma = compile_expr(parse_expression("1 + t^2/4"))
    H = 1e-3
    for t in (0.4, 1.0, 1.6):
        d3p = gauss_u_derivative(G, sigma, lam, t + H, component=3)
        d3m = gauss_u_derivative(G, sigma, lam, t - H, component=3)
        d4 = (d3p - d3m) / (2 * H)
        u = gauss_u_derivative(G, sigma, lam, t, component=0)
        a0 = coeff_values(quartic_weight_op, 0, np.array([t]))[0] + lam
        sig_t = float(sigma(t, lam))
        assert abs(d4 + a0 * u - sig_t) < 1e-5
    # Neumann functionals: u'(0), u'''(0), u'(2), u'''(2) all vanish
    for t_end in (0.0, 2.0):
        for comp in (1, 3):
            assert abs(gauss_u_derivative(G, sigma, lam, t_end, comp)) < 1e-7


@pytest.mark.parametrize("kind,lam,expected", [
    (BCKind.DIRICHLET, math.pi ** 2, 0.0),
    (BCKind.NEUMANN, 0.0, 0.0),
])
def test_char_det_zeros_second_order(second_order_op, kind, lam, expected):
    op = LinearOperator.from_exprs(1, 1.0, ["0", "0"])
    assert abs(char_det_scan(op, kind, [lam])[0]) < 1e-8


def test_char_det_zero_mixed2(const_fourth_op):
    assert abs(char_det_scan(const_fourth_op, BCKind.MIXED2, [-math.pi ** 4 / 16])[0]) < 1e-10


def test_char_det_nonzero_off_eigenvalue(const_fourth_op):
    assert abs(char_det_scan(const_fourth_op, BCKind.MIXED2, [-5.0])[0]) > 1e-4


def test_strongly_growing_problem_stays_finite(second_order_op):
    # u'' Neumann far below the spectrum: Phi(T) overflows, but neither the
    # characteristic function nor the kernel forms it
    problem = ProblemSpec(second_order_op, BCKind.NEUMANN, -1e8 - 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = char_det_scan(problem.operator, problem.kind, [problem.lam])[0]
        build_greens(problem).sample_grid(41)
    assert math.isfinite(value) and abs(value) <= 1.0


def test_resonance_consistency_with_char_det():
    # build_greens refuses exactly where char_det_scan vanishes
    op = LinearOperator.from_exprs(1, 1.0, ["0", "0"])
    from greenbvp import find_eigenvalues

    spec = find_eigenvalues(op, BCKind.DIRICHLET, (5.0, 15.0))
    root = spec.eigenvalues[0].lam
    assert root == pytest.approx(math.pi ** 2, rel=1e-8)
    with pytest.raises(ResonantProblemError):
        build_greens(ProblemSpec(op, BCKind.DIRICHLET, root))
    build_greens(ProblemSpec(op, BCKind.DIRICHLET, root + 0.1))


def test_symmetry_of_self_adjoint_kernel(second_order_op):
    G = build_greens(ProblemSpec(second_order_op, BCKind.DIRICHLET))
    assert G(0.25, 0.5) == pytest.approx(G(0.5, 0.25), abs=1e-10)


def test_doubled_interval_kernel_symmetry(quartic_weight_op):
    ext = extend_to_double(quartic_weight_op)
    G = build_greens(ProblemSpec(ext, BCKind.PERIODIC, 2.0))
    ts = np.linspace(0, 4, 41)
    diff = G.eval_grid(ts, ts) - G.eval_grid(4 - ts, 4 - ts)
    assert np.abs(diff).max() < 1e-7


@pytest.mark.parametrize("n,kind,lam", [
    # midway between the Dirichlet eigenvalues (100 pi)^2 and (101 pi)^2 of u''
    (1, BCKind.DIRICHLET, 0.5 * ((100 * math.pi) ** 2 + (101 * math.pi) ** 2)),
    # midway between the Neumann eigenvalues -(10 pi)^4 and -(11 pi)^4 of u''''
    (2, BCKind.NEUMANN, -0.5 * ((10 * math.pi) ** 4 + (11 * math.pi) ** 4)),
])
def test_margin_independent_of_segment_count(monkeypatch, n, kind, lam):
    op = LinearOperator.from_exprs(n, 1.0, ["0"] * (2 * n))
    coarse = build_greens(ProblemSpec(op, kind, lam))
    monkeypatch.setattr(integrate_module, "_GROWTH_PER_SEGMENT", 0.3)
    fine = build_greens(ProblemSpec(op, kind, lam))
    assert fine.nseg >= 9 * coarse.nseg
    assert 0.1 < fine.resonance_margin / coarse.resonance_margin < 10.0


@pytest.mark.parametrize("kind,lam", [
    # midway between consecutive eigenvalues: -(k pi)^4 for Neumann and
    # -(2 k pi)^4 for periodic conditions on [0, 1]
    (BCKind.NEUMANN, -0.5 * ((11 * math.pi) ** 4 + (12 * math.pi) ** 4)),
    (BCKind.NEUMANN, -0.5 * ((13 * math.pi) ** 4 + (14 * math.pi) ** 4)),
    (BCKind.PERIODIC, -0.5 * ((10 * math.pi) ** 4 + (12 * math.pi) ** 4)),
    (BCKind.PERIODIC, -0.5 * ((12 * math.pi) ** 4 + (14 * math.pi) ** 4)),
])
def test_stiff_fourth_order_kernels_symmetric(const_fourth_op, kind, lam):
    G = build_greens(ProblemSpec(const_fourth_op, kind, lam))
    values = G.sample_grid(41)
    assert np.abs(values - values.T).max() <= 1e-10 * np.abs(values).max()


_LONG_INTERVAL_CHILD = """
import sys, time
import numpy as np
from greenbvp import BCKind, LinearOperator, ProblemSpec, build_greens
op = LinearOperator.from_exprs(1, 1e4, ["1", "0"])
start = time.process_time()
G = build_greens(ProblemSpec(op, BCKind.DIRICHLET, 0.25))
values = G.sample_grid(101)
elapsed = time.process_time() - start
np.save(sys.argv[1], values)
print(elapsed, len(G.fs.segments), len(G.fs.cells.starts))
"""


def test_long_interval_kernel_closed_form(tmp_path):
    # u'' + u on [0, 1e4] with Dirichlet conditions at lam = 0.25: 3 727
    # segments of one Magnus cell each, as the growth cap per segment asks
    # (1e4 * sqrt(1.25) / 3).  The build and the grid run in a child process
    # with one BLAS thread and are timed in its CPU time, so load from other
    # processes does not count against the 10 s budget: idle OpenBLAS threads
    # spin, and on a busy machine they charged the same work over twice the
    # CPU time.
    T, lam = 1e4, 0.25
    out = tmp_path / "values.npy"
    result = subprocess.run([sys.executable, "-c", _LONG_INTERVAL_CHILD, str(out)],
                            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    elapsed, segments, cells = result.stdout.split()
    assert (int(segments), int(cells)) == (3727, 3727)
    values = np.load(out)
    w = math.sqrt(1.0 + lam)
    pts = np.linspace(0.0, T, 101)
    lo, hi = np.minimum.outer(pts, pts), np.maximum.outer(pts, pts)
    exact = np.sin(w * lo) * np.sin(w * (hi - T)) / (w * math.sin(w * T))
    assert np.abs(values - exact).max() < 1e-8 * np.abs(exact).max()
    assert float(elapsed) < 10.0


def test_complex_lambda_char_det_has_boundary_determinant_argument(second_order_op):
    # the graph basis signs its QR columns by conj(r_jj)/|r_jj|, so det M is
    # the Dirichlet determinant sin(w)/w times a positive factor
    lam = 30.0 + 7.5j
    w = cmath.sqrt(lam)
    det = char_det_scan(second_order_op, BCKind.DIRICHLET, [lam])[0]
    assert abs(cmath.phase(det / (cmath.sin(w) / w))) < 1e-9


def test_shared_system_kernels_equal_separate_builds(quartic_weight_op):
    # every family built on one fundamental system (sharing its end matrices,
    # graph basis and grid factors) equals its own build_greens, bit for bit
    lam = 0.7
    for op, kinds in [
        (quartic_weight_op, [BCKind.NEUMANN, BCKind.DIRICHLET, BCKind.MIXED1, BCKind.MIXED2]),
        (extend_to_double(quartic_weight_op),
         [BCKind.PERIODIC, BCKind.ANTIPERIODIC, BCKind.NEUMANN, BCKind.DIRICHLET]),
    ]:
        fs = integrate_fundamental(op, lam)
        for kind in kinds:
            shared = GreensEvaluator(ProblemSpec(op, kind, lam), fs)
            single = build_greens(ProblemSpec(op, kind, lam))
            assert np.array_equal(shared.sample_grid(41), single.sample_grid(41))
            assert shared.resonance_margin == single.resonance_margin


def test_pointwise_calls_retain_bounded_factors(second_order_op):
    # G(t, s) evaluates one-point sets, which are not kept; distinct larger
    # sets are kept only up to a fixed count
    G = build_greens(ProblemSpec(second_order_op, BCKind.DIRICHLET, 2.0))
    pts = np.random.default_rng(3).uniform(0.0, 1.0, (10_000, 3))
    for i, (t, s, r) in enumerate(pts):
        G(t, s)
        if i % 100 == 0:
            G.eval_grid([t, s, r], [s, r])
        assert len(G.fs.memo.get("factors", ())) <= 8
        assert len(G.fs.memo.get("impulses", ())) <= 8
        assert len(G.fs.cells.memo) <= 8
        assert len(G._grids) <= 8


def test_stored_grids_factors_and_local_phi_cannot_be_altered(quartic_weight_op):
    # grids, grid factors and local Phi are kept for repeated requests, so
    # what a caller is handed must not write through to the stores
    G = kernel_source(0.7)(extend_to_double(quartic_weight_op), BCKind.PERIODIC)
    ts = np.linspace(0.0, G.length, 21)
    grid = G.eval_grid(ts, ts)
    expected = grid.copy()
    grid[:] = 0.0
    assert np.array_equal(G.eval_grid(ts, ts), expected)
    factor = G._factor(ts)
    phi = factor.phi.copy()
    for array in (factor.pts, factor.seg, factor.phi):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert np.array_equal(G._factor(ts).phi, phi)
    # the doubled system is mirrored copies of the base interval: its local
    # Phi is the root's, transformed where mirrored, so the root's stored
    # result must not be the one transformed
    local = G.fs.local_phi(factor.seg, ts)
    assert np.array_equal(local[:, 0], phi)
    local[:] = 0.0
    assert np.array_equal(G.fs.local_phi(factor.seg, ts)[:, 0], phi)


def test_boundary_norm_is_the_boundary_matrix_norm():
    for kind in BCKind:
        for n in (1, 2, 3):
            assert _boundary_norm(kind, n) == np.linalg.norm(_boundary_coeffs(kind, n), 2)


def test_boundary_coeffs_are_made_once_and_read_only():
    # every kernel build, scan and eigenfunction reads the same matrix, which
    # no caller can alter (_corner_problem changes a copy)
    for kind in BCKind:
        for n in (1, 2, 3):
            C = _boundary_coeffs(kind, n)
            assert _boundary_coeffs(kind, n) is C and not C.flags.writeable
            with pytest.raises(ValueError):
                C[0, 0] = 2.0


def test_pointwise_call_makes_one_local_phi_call(monkeypatch, second_order_op):
    # G(t, s) locates both points with one local Phi evaluation and keeps
    # neither; a one-point set per axis would take two
    G = build_greens(ProblemSpec(second_order_op, BCKind.DIRICHLET, 2.0))
    calls = []
    local_phi = FundamentalSystem.local_phi
    monkeypatch.setattr(FundamentalSystem, "local_phi",
                        lambda self, *args: calls.append(args) or local_phi(self, *args))
    points = [(0.2, 0.7), (0.7, 0.2), (0.5, 0.5), (1.0, 0.0)]
    values = [G(t, s) for t, s in points]
    assert len(calls) == len(points)
    assert not G.fs.memo.get("factors")
    assert values == [G.eval_grid([t], [s])[0, 0] for t, s in points]


# mu L / pi of the first root and the spacing of the roots, per family, for
# u'' + lam u (lam = mu^2) and u'''' + lam u (lam = -mu^4) on [0, L]
_ROOT_STEPS = {BCKind.NEUMANN: (1.0, 1.0), BCKind.DIRICHLET: (1.0, 1.0),
               BCKind.MIXED1: (0.5, 1.0), BCKind.MIXED2: (0.5, 1.0),
               BCKind.PERIODIC: (2.0, 2.0), BCKind.ANTIPERIODIC: (1.0, 2.0)}


def _constant_root(op, kind, k):
    first, step = _ROOT_STEPS[kind]
    mu = (first + k * step) * math.pi / op.length
    return mu ** 2 if op.n == 1 else -mu ** 4


def _twin(op):
    """op without the note of an operator it extends or reflects: integrated
    directly (operators.mirror_of)."""
    return LinearOperator(op.n, op.length, op.coeffs)


def _margins(op, kind, lam):
    """The kernel's resonance margin (None where it refuses) and sigma_min
    of the QR-marched graph matrix C W / ||C||_2, on one system."""
    fs = integrate_fundamental(op, lam)
    graph = np.linalg.norm(_graph_matrix(_boundary_coeffs(kind, op.n), fs)[0], -2)
    try:
        return GreensEvaluator(ProblemSpec(op, kind, lam), fs).resonance_margin, graph
    except ResonantProblemError:
        return None, graph


def test_block_reduction_margin_matches_graph_march(second_order_op, const_fourth_op,
                                                    quartic_weight_op):
    # the margin read off the block reduction, 1 / (||C|| ||Z||), is sigma_min of the
    # graph matrix, and the two refuse the same problems: six families, T, 2T
    # and 4T, lambda = root + delta down to delta = 0, and stiff lambda.  The
    # extensions are integrated directly, as twins without the note of their
    # base: on the derived 4T system, antiperiodic root + 1e-10 |root| puts the
    # two criteria 2.4e-16 apart on either side of RESONANCE_THRESHOLD
    cases = []
    for base in (second_order_op, const_fourth_op):
        for op in map(_twin, (base, extend_to_double(base), extend_to_quadruple(base))):
            for kind in BCKind:
                for root in (_constant_root(op, kind, 0), _constant_root(op, kind, 3)):
                    cases += [(op, kind, root + delta * abs(root))
                              for delta in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 0.0)]
    for op in (quartic_weight_op, _twin(extend_to_double(quartic_weight_op))):
        cases += [(op, kind, lam) for kind in BCKind for lam in (-37.3, 0.7, 60.1)]
    cases += [
        (second_order_op, BCKind.DIRICHLET, 0.5 * ((636 * math.pi) ** 2 + (637 * math.pi) ** 2)),
        (const_fourth_op, BCKind.NEUMANN, -0.5 * ((13 * math.pi) ** 4 + (14 * math.pi) ** 4)),
        (const_fourth_op, BCKind.PERIODIC, -0.5 * ((12 * math.pi) ** 4 + (14 * math.pi) ** 4)),
    ]
    refused = 0
    for op, kind, lam in cases:
        margin, graph = _margins(op, kind, lam)
        assert (margin is None) == (graph < RESONANCE_THRESHOLD), (op.length, kind, lam, graph)
        if margin is None:
            refused += 1
        else:
            # both are rounded at about 1e-15 absolute: relative above 1e-8
            assert abs(margin - graph) <= 1e-6 * max(graph, 1e-8), (op.length, kind, lam)
    assert 100 < refused < len(cases) - 100


def _dense_states(C, ends):
    """Homogeneous node states and margin from the dense reference solve."""
    N, d = ends.shape[:2]
    rhs = np.zeros((N + 1, d, d))
    rhs[N] = np.eye(d)
    H = block_solve(C, ends, rhs)
    return H, 1.0 / (np.linalg.norm(C, 2) * np.linalg.norm(H[[0, -1]].reshape(-1, d), 2))


@pytest.mark.parametrize("case", ["u2-D-4e6", "u4-N-1.72e6", "u4-P-1.72e6", "u4-N-2.88e6",
                                  "u4-P-2.88e6", "u4x4-P-2.88e6"])
def test_block_reduction_matches_dense_solve(case, second_order_op, const_fourth_op):
    # the level-by-level reduction against one dense LU of the whole block
    # system: the largest u'' system of the stiff benchmark (667 segments),
    # fourth-order lambda where a reduction without row scaling loses
    # accuracy, and the same on [0, 4] (56 segments, two levels at d = 4)
    name, code, value = case.split("-", 2)
    op = {"u2": second_order_op, "u4": const_fourth_op,
          "u4x4": extend_to_quadruple(const_fourth_op)}[name]
    kind = {"D": BCKind.DIRICHLET, "N": BCKind.NEUMANN, "P": BCKind.PERIODIC}[code]
    lam = 0.5 * ((636 * math.pi) ** 2 + (637 * math.pi) ** 2) if name == "u2" else -float(value)
    ends = integrate_fundamental(op, lam).segments[:, 0]
    N, d = ends.shape[:2]
    C = _boundary_coeffs(kind, op.n)
    system = greens_module._BlockReduction(C, ends)
    H, margin = _dense_states(C, ends)
    reduced = 1.0 / (np.linalg.norm(C, 2) * np.linalg.norm(system.end_states, 2))
    assert abs(reduced - margin) <= 1e-9 * margin
    assert np.abs(system.homogeneous() - H).max() <= 1e-12 * np.abs(H).max()
    # impulse right-hand sides: the first and last relations, and several
    # columns in one relation
    rng = np.random.default_rng(11)
    seg = np.r_[0, N - 1, rng.integers(0, N, 40), 0]
    vec = rng.standard_normal((len(seg), d))
    rhs = np.zeros((N + 1, d, len(seg)))
    rhs[seg, :, np.arange(len(seg))] = vec
    Y = block_solve(C, ends, rhs)
    assert np.abs(system.solve_impulses(seg, vec) - Y).max() <= 1e-12 * np.abs(Y).max()
    if name != "u4":
        assert N == {"u2": 667, "u4x4": 56}[name]


def test_exactly_singular_block_system_is_refused(second_order_op, const_fourth_op):
    # at lambda = 0 the N and P problems are exactly singular
    for op, kind in [(second_order_op, BCKind.PERIODIC), (second_order_op, BCKind.NEUMANN),
                     (const_fourth_op, BCKind.NEUMANN),
                     (extend_to_quadruple(const_fourth_op), BCKind.PERIODIC)]:
        with pytest.raises(ResonantProblemError):
            build_greens(ProblemSpec(op, kind, 0.0))
    # u'' with Neumann conditions on 200 exact segments of length 1/8, through
    # every level of the reduction: the dense LU meets an exactly zero pivot,
    # the reduction a singular pivot or a margin below the bar
    ends = np.broadcast_to(np.array([[1.0, 0.125], [0.0, 1.0]]), (200, 2, 2))
    C = _boundary_coeffs(BCKind.NEUMANN, 1)
    with pytest.raises(np.linalg.LinAlgError):
        _dense_states(C, ends)
    try:
        Z = greens_module._BlockReduction(C, ends).end_states
    except np.linalg.LinAlgError:
        return
    assert not np.isfinite(Z).all() or \
        1.0 / (np.linalg.norm(C, 2) * np.linalg.norm(Z, 2)) < RESONANCE_THRESHOLD


def test_kernels_never_march_the_graph(monkeypatch, second_order_op):
    # a kernel reads its margin off the block reduction it needs anyway; the
    # QR march over the segments is left to char_det_scan
    def march(*args):
        raise AssertionError("a kernel marched the solution graph")

    monkeypatch.setattr(greens_module, "_graph_matrix", march)
    lam = 0.5 * ((100 * math.pi) ** 2 + (101 * math.pi) ** 2)
    w = math.sqrt(lam)
    pts = np.linspace(0.0, 1.0, 41)
    lo, hi = np.minimum.outer(pts, pts), np.maximum.outer(pts, pts)
    exact = np.sin(w * lo) * np.sin(w * (hi - 1.0)) / (w * math.sin(w))
    for G in (build_greens(ProblemSpec(second_order_op, BCKind.DIRICHLET, lam)),
              kernel_source(lam)(second_order_op, BCKind.DIRICHLET)):
        assert np.abs(G.sample_grid(41) - exact).max() <= 1e-9 * np.abs(exact).max()


def test_eval_grid_matches_segment_loop(second_order_op, quartic_weight_op):
    # eval_grid has no loop over segments; a loop over the segments of t is
    # the reference, equal up to the order of the d-term sums
    for op, kind, lam in [
        (second_order_op, BCKind.DIRICHLET, 0.5 * ((60 * math.pi) ** 2 + (61 * math.pi) ** 2)),
        (extend_to_quadruple(quartic_weight_op), BCKind.PERIODIC, 0.7),
    ]:
        G = build_greens(ProblemSpec(op, kind, lam))
        ts, ss = np.linspace(0.0, G.length, 53), np.linspace(0.0, G.length, 47)
        ft, fsrc = G._factor(ts), G._factor(ss)
        xs = np.linalg.solve(fsrc.phi, np.eye(G.d)[:, -1:])[..., 0].T
        Y = G._node_states(fsrc.seg, xs)
        rows = ft.phi[:, 0, :]
        reference = np.empty((len(ts), len(ss)))
        for seg in np.unique(ft.seg):
            t_in, s_in = ft.seg == seg, fsrc.seg == seg
            reference[t_in] = rows[t_in] @ Y[seg]
            impulse = (rows[t_in] @ xs[:, s_in]) * (ts[t_in, None] >= ss[s_in])
            reference[np.ix_(t_in, s_in)] += impulse
        assert G.nseg > 5
        scale = np.abs(reference).max()
        assert np.abs(G.eval_grid(ft, fsrc) - reference).max() <= 1e-14 * scale


# u'''' with every lower-order coefficient nonzero: the adjoint boundary
# conditions differ from the problem's, and x_s' has an a_3 term
_FULL_OP = ("(t-2)^4", "0.7*t", "cos(t)", "0.5*t")


def test_s_derivative_matches_central_differences():
    op = LinearOperator.from_exprs(2, 2.0, list(_FULL_OP))
    G = build_greens(ProblemSpec(op, BCKind.MIXED2, 1.3))
    ts, ss, h = np.linspace(0.0, 2.0, 7), np.array([0.3, 0.9, 1.7]), 1e-5
    for component in (0, 1):
        fd = (G.eval_grid(ts, ss + h, component) - G.eval_grid(ts, ss - h, component)) / (2 * h)
        assert np.abs(G._grid(ts, ss, component, 1) - fd).max() <= 1e-8 * np.abs(fd).max()


@pytest.mark.parametrize("kind", [BCKind.DIRICHLET, BCKind.MIXED1, BCKind.MIXED2])
def test_kernel_vanishes_on_the_sides_of_its_vanishing_ends(kind):
    op = LinearOperator.from_exprs(2, 2.0, list(_FULL_OP))
    G = build_greens(ProblemSpec(op, kind, 1.3))
    pts = np.linspace(0.0, 2.0, 41)
    scale = np.abs(G.eval_grid(pts, pts)).max()
    for end in greens_module._vanishing_ends(kind):
        side = [2.0 * end]
        assert np.abs(G.eval_grid(side, pts)).max() <= 1e-13 * scale
        assert np.abs(G.eval_grid(pts, side)).max() <= 1e-13 * scale
        assert np.abs(G.eval_grid(side, pts, 1)).max() >= 0.1 * scale
        assert np.abs(G._grid(pts, side, 0, 1)).max() >= 0.1 * scale


@pytest.mark.parametrize("kind", [BCKind.NEUMANN, BCKind.DIRICHLET, BCKind.MIXED2,
                                  BCKind.PERIODIC])
def test_corner_coefficient_vanishes_at_the_changed_problems_eigenvalue(kind):
    # the leading coefficient d_t^j d_s^k G of each corner changes sign at
    # the first eigenvalue in (-80, 80) of the problem with one row changed
    op = LinearOperator.from_exprs(2, 2.0, list(_FULL_OP))
    vanishing = greens_module._vanishing_ends(kind)
    for t_end in (0, 1):
        for s_end in (0, 1):
            C, _ = greens_module._corner_problem(kind, op.n, t_end, s_end)
            lams = np.linspace(-80.0, 80.0, 801)
            dets = greens_module._char_dets(op, C, lams)
            i = np.flatnonzero(np.sign(dets[1:]) != np.sign(dets[:-1]))[0]
            [(root, _)] = spectrum_module._refine_brackets(
                lambda x: greens_module._char_dets(op, C, x),
                [(lams[i], lams[i + 1], dets[i], dets[i + 1])], 1e-9)
            signs = []
            for lam in (root - 1e-4, root + 1e-4):
                G = build_greens(ProblemSpec(op, kind, lam))
                j, k = int(t_end in vanishing), int(s_end in vanishing)
                signs.append(np.sign(G._grid([2.0 * t_end], [2.0 * s_end], j, k)[0, 0]))
            assert signs[0] == -signs[1] != 0


# the operators on which the derived systems of the extensions and the
# reflection are checked against direct integration
_ROUTE_OPS = {
    "quartic": (2, 2.0, ["(t-2)^4", "0", "0", "0"]),
    "parabolic": (2, 1.5, ["t*(t-3)", "0", "0", "0"]),
    "variable": (2, 2.0, list(_FULL_OP)),
    "second-order": (1, 1.0, ["10*t^2", "0.5"]),
}


@pytest.mark.parametrize("name", list(_ROUTE_OPS))
def test_derived_systems_match_direct_integration(name):
    # kernel_source derives the 2T, 4T, reflected and composed operators'
    # systems from the root operator's (integrate.mirror_fundamental); an
    # equal operator built from the fields has no note of its root and is
    # integrated.  reflect(extend_to_double(op)) equals extend_to_double(op),
    # so it comes first, before kernel_problem's 2T operator shares its system
    op = LinearOperator.from_exprs(*_ROUTE_OPS[name])
    problems = [(reflect(extend_to_double(op)), kind)
                for kind in (BCKind.PERIODIC, BCKind.MIXED1)]
    problems += [(extend_to_double(reflect(op)), kind) for kind in BCKind]
    problems += [kernel_problem(op, code) for code in KERNEL_CODES] + [
        (reflect(op), BCKind.MIXED1), (reflect(op), BCKind.MIXED2)]
    for lam in (2.25, -2.5, -30.0, 5.0, 1e4, -1e4, -2e5):
        derived, direct = kernel_source(lam), kernel_source(lam)
        for o, kind in problems:
            plain = LinearOperator(o.n, o.length, o.coeffs)
            try:
                G = direct(plain, kind)
            except ResonantProblemError:
                with pytest.raises(ResonantProblemError):
                    derived(o, kind)
                continue
            H = derived(o, kind)
            copied = isinstance(H.fs.cells, integrate_module._Copies)
            assert copied == (mirror_of(o) is not None)
            assert not isinstance(G.fs.cells, integrate_module._Copies)
            ref = G.sample_grid(41)
            assert np.abs(H.sample_grid(41) - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("name", list(_ROUTE_OPS))
def test_identities_hold_on_derived_and_direct_systems(monkeypatch, name):
    # run_identities integrates the base operator alone; with the notes
    # ignored it integrates every operator, and both stay inside their bars
    op = LinearOperator.from_exprs(*_ROUTE_OPS[name])
    for lam in (2.25, -30.0, 1e4):
        derived = run_identities(op, lam)
        with monkeypatch.context() as patch:
            patch.setattr(integrate_module, "mirror_of", lambda o: None)
            direct = run_identities(op, lam)
        assert [r.tag for r in derived] == [r.tag for r in direct]
        assert [r.skipped for r in derived] == [r.skipped for r in direct]
        assert all(r.passed for r in derived + direct)


def test_every_route_integrates_only_operators_without_a_note(monkeypatch, quartic_weight_op):
    # the extensions and the reflection derive their systems from the base
    # operator's on every route (integrate._system), so a kernel's digits do
    # not depend on the entry point that built it
    from greenbvp.signscan import sign_interval
    from greenbvp.spectrum import eigenfunction_at, find_eigenvalues, principal_eigenvalue

    op = quartic_weight_op
    received, integrate = [], integrate_module._integrate
    monkeypatch.setattr(integrate_module, "_integrate",
                        lambda o, *args: received.append(o) or integrate(o, *args))
    problems = [kernel_problem(op, code) for code in KERNEL_CODES] + [
        (reflect(op), BCKind.MIXED1), (reflect(op), BCKind.MIXED2)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for o, kind in problems:
            build_greens(ProblemSpec(o, kind, 0.7))
            char_det_scan(o, kind, np.linspace(-20.0, 5.0, 11))
            found = find_eigenvalues(o, kind, (-20.0, 5.0)).eigenvalues
            eigenfunction_at(o, kind, found[0].lam)
        o, kind = kernel_problem(op, "P2T")
        sign_interval(o, kind, "neg", principal_eigenvalue(o, kind, (-60.0, 10.0)))
        run_identities(op, 0.7, m=41)
    assert received and all(mirror_of(o) is None for o in received)
    for o, kind in (kernel_problem(op, "P2T"), kernel_problem(op, "P4T"),
                    (reflect(op), BCKind.MIXED1)):
        direct = build_greens(ProblemSpec(o, kind, 0.7)).sample_grid(41)
        assert np.array_equal(direct, kernel_source(0.7)(o, kind).sample_grid(41))


@pytest.mark.parametrize("case", ["u2-D-3.9e6", "variable-N", "variable-P4T"])
def test_grid_product_matches_the_sum_form(case, second_order_op):
    # _grid forms the homogeneous part by batched products over row blocks
    # and adds the impulse part in place; the reference sums the d terms of
    # each t's row times the node states of its segment
    if case == "u2-D-3.9e6":
        G = build_greens(ProblemSpec(second_order_op, BCKind.DIRICHLET, 3.9e6))
        assert G.nseg == 659
    else:
        op = LinearOperator.from_exprs(*_ROUTE_OPS["variable"])
        code = case.split("-")[1]
        G = kernel_source(2.25)(*kernel_problem(op, code))
    ft, fsrc = G._factor(np.linspace(0.0, G.length, 53)), G._factor(np.linspace(0.0, G.length, 47))
    same = (ft.seg[:, None] == fsrc.seg) & (ft.pts[:, None] >= fsrc.pts)
    for s_order in (0, 1):
        xs, Y = G._source(fsrc, s_order)
        for component in range(G.d):
            rows = ft.phi[:, component, :]
            ref = sum(rows[:, j, None] * Y[ft.seg, j] for j in range(G.d))
            ref = ref + np.where(same, rows @ xs, 0.0)
            grid = G._grid(ft, fsrc, component, s_order)
            assert np.abs(grid - ref).max() <= 1e-14 * np.abs(ref).max()


def test_kernel_source_frees_its_systems_without_the_cycle_collector(quartic_weight_op):
    # the systems of a kernel source, derived ones included, go with it by
    # reference counting alone: a pass's grids would otherwise stay in
    # memory until the cyclic collector runs
    import gc
    import weakref

    kernel = kernel_source(0.7)
    systems = [weakref.ref(kernel(*kernel_problem(quartic_weight_op, code)).fs)
               for code in ("N", "P2T", "P4T")]
    gc.disable()
    try:
        del kernel
        assert all(ref() is None for ref in systems)
    finally:
        gc.enable()
