import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from greenbvp import (
    BCKind,
    LinearOperator,
    ProblemSpec,
    ResonantProblemError,
    boundary_functionals,
    boundary_matrix,
    build_greens,
    char_det,
    extend_to_double,
    extend_to_quadruple,
    integrate_fundamental,
)
from greenbvp import integrate as integrate_module
from greenbvp.expressions import compile_expr, parse_expression
from greenbvp.operators import coeff_values

from conftest import fd_stencil


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
    fns = boundary_functionals(BCKind.NEUMANN, 1)
    assert [(f.order, f.where) for f in fns] == [(1, "left"), (1, "right")]


def test_boundary_functionals_dirichlet_n2():
    fns = boundary_functionals(BCKind.DIRICHLET, 2)
    assert [(f.order, f.where) for f in fns] == [
        (0, "left"), (0, "right"), (2, "left"), (2, "right")]


def test_boundary_functionals_antiperiodic_n1():
    fns = boundary_functionals(BCKind.ANTIPERIODIC, 1)
    assert [(f.order, f.where, f.sign) for f in fns] == [
        (0, "both", 1.0), (1, "both", 1.0)]


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
    assert abs(char_det(ProblemSpec(op, BCKind.PERIODIC))) < 1e-10
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
        a0 = coeff_values(quartic_weight_op, 0, np.array([t]), lam)[0]
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
    assert abs(char_det(ProblemSpec(op, kind, lam))) < 1e-8


def test_char_det_zero_mixed2(const_fourth_op):
    assert abs(char_det(ProblemSpec(const_fourth_op, BCKind.MIXED2,
                                    -math.pi ** 4 / 16))) < 1e-10


def test_char_det_nonzero_off_eigenvalue(const_fourth_op):
    assert abs(char_det(ProblemSpec(const_fourth_op, BCKind.MIXED2, -5.0))) > 1e-4


def test_strongly_growing_problem_stays_finite(second_order_op):
    # u'' Neumann far below the spectrum: Phi(T) overflows, but neither the
    # characteristic function nor the kernel forms it
    problem = ProblemSpec(second_order_op, BCKind.NEUMANN, -1e8 - 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = char_det(problem)
        build_greens(problem).sample_grid(41)
    assert math.isfinite(value) and abs(value) <= 1.0


def test_resonance_consistency_with_char_det():
    # build_greens refuses exactly where char_det vanishes
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


def test_long_interval_kernel_closed_form():
    # u'' + u on [0, 1e4] with Dirichlet conditions at lam = 0.25: about
    # 3 700 segments.  CPU time, so that load from other processes does not
    # count against the 10 s budget.
    T, lam = 1e4, 0.25
    op = LinearOperator.from_exprs(1, T, ["1", "0"])
    start = time.process_time()
    G = build_greens(ProblemSpec(op, BCKind.DIRICHLET, lam))
    values = G.sample_grid(101)
    elapsed = time.process_time() - start
    w = math.sqrt(1.0 + lam)
    pts = np.linspace(0.0, T, 101)
    lo, hi = np.minimum.outer(pts, pts), np.maximum.outer(pts, pts)
    exact = np.sin(w * lo) * np.sin(w * (hi - T)) / (w * math.sin(w * T))
    assert np.abs(values - exact).max() < 1e-8 * np.abs(exact).max()
    assert elapsed < 10.0
