import cmath
import re

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from greenbvp import (
    BCKind,
    LinearOperator,
    ProblemSpec,
    char_det_scan,
    extend_to_double,
    extend_to_quadruple,
    integrate_fundamental,
    integrate_fundamental_batch,
)
from greenbvp import integrate
from greenbvp.expressions import parse_expression
from greenbvp.integrate import MAX_CELLS, expm
from greenbvp.operators import CoeffSegment

from reference import boundary_matrix, cauchy_value, expm_stacked, phi, phi_end, transition


def test_double_integrator_fundamental(second_order_op):
    fs = integrate_fundamental(second_order_op)
    for t in (0.0, 0.3, 1.0):
        assert phi(fs, [t])[0] == pytest.approx(np.array([[1.0, t], [0.0, 1.0]]), abs=1e-12)


def test_fourth_order_polynomial_row(const_fourth_op):
    fs = integrate_fundamental(const_fourth_op)
    for t in (0.25, 0.8, 1.0):
        row = phi(fs, [t])[0][0]
        assert row == pytest.approx([1.0, t, t ** 2 / 2, t ** 3 / 6], abs=1e-12)


def test_harmonic_oscillator_closed_form():
    op = LinearOperator.from_exprs(1, 2.0, ["1", "0"])
    fs = integrate_fundamental(op)
    for t in (0.5, 1.0, 2.0):
        expected = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        assert phi(fs, [t])[0] == pytest.approx(expected, abs=1e-12)


def test_harmonic_oscillator_rk_path_matches():
    op = LinearOperator.from_exprs(1, 2.0, ["1", "0"])
    fs = integrate._rk_reference(op, 0.0, 1e-12)
    t = 1.7
    expected = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    assert phi(fs, [t])[0] == pytest.approx(expected, abs=1e-10)


def test_transition_identity_and_shift(second_order_op):
    op = LinearOperator.from_exprs(1, 3.0, ["0", "0"])
    fs = integrate_fundamental(op)
    assert transition(fs, 1.2, 1.2) == pytest.approx(np.eye(2), abs=1e-12)
    assert transition(fs, 1.0, 3.0) == pytest.approx(np.array([[1.0, 2.0], [0.0, 1.0]]),
                                                     abs=1e-11)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transition_group_property(n):
    rng = np.random.default_rng(1234 + n)
    coeffs = [f"{c:.4f}" for c in rng.uniform(-1.5, 1.5, size=2 * n)]
    op = LinearOperator.from_exprs(n, 2.0, coeffs)
    fs = integrate_fundamental(op)
    for _ in range(4):
        r, s, t = np.sort(rng.uniform(0, 2.0, size=3))
        lhs = transition(fs, s, t) @ transition(fs, r, s)
        rhs = transition(fs, r, t)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_cauchy_kernel_closed_forms(second_order_op, const_fourth_op):
    fs2 = integrate_fundamental(second_order_op)
    assert cauchy_value(fs2, 0.9, 0.2) == pytest.approx(0.7, abs=1e-12)
    fs4 = integrate_fundamental(const_fourth_op)
    assert cauchy_value(fs4, 0.9, 0.3) == pytest.approx(0.6 ** 3 / 6, abs=1e-12)
    osc = integrate_fundamental(LinearOperator.from_exprs(1, 2.0, ["1", "0"]))
    assert cauchy_value(osc, 1.5, 0.4) == pytest.approx(np.sin(1.1), abs=1e-11)


def test_cauchy_requires_ordered_arguments(second_order_op):
    fs = integrate_fundamental(second_order_op)
    with pytest.raises(ValueError):
        cauchy_value(fs, 0.2, 0.9)


def test_cauchy_diagonal_contact(const_fourth_op):
    # k(t, t) = 0 and its first 2n-2 t-derivatives vanish at t = s
    fs = integrate_fundamental(const_fourth_op)
    s = 0.4
    h = 1e-5
    vals = np.array([cauchy_value(fs, s + k * h, s) for k in range(5)])
    assert abs(vals[0]) < 1e-12
    d1 = (vals[1] - vals[0]) / h
    d2 = (vals[2] - 2 * vals[1] + vals[0]) / h ** 2
    assert abs(d1) < 1e-4
    assert abs(d2) < 1e-4


def test_tolerance_halving_is_convergent():
    # exercise the adaptive integrator (fast path disabled) against cos/sin
    op = LinearOperator.from_exprs(1, 2.0, ["1", "0"])
    t = 2.0
    expected = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    tols = [1e-5, 5e-6, 2.5e-6, 1.25e-6, 6.25e-7]
    errors = []
    for tol in tols:
        fs = integrate._rk_reference(op, 0.0, tol)
        errors.append(np.abs(phi(fs, [t])[0] - expected).max())
    for a, b in zip(errors, errors[1:]):
        assert b <= 4 * a + 1e-15
    assert errors[-1] < errors[0]


def test_segments_never_straddle_breakpoints(parabolic_weight_op):
    from greenbvp import extend_to_double

    ext = extend_to_double(parabolic_weight_op)
    fs = integrate_fundamental(ext, lam=1.0)
    for b in ext.breakpoints():
        assert np.min(np.abs(fs.nodes - b)) < 1e-12


def test_batched_matches_single(quartic_weight_op):
    lams = np.array([-2.0, 0.5, 2.0])
    batch = integrate_fundamental_batch(quartic_weight_op, lams)
    ends = phi_end(batch)
    for i, lam in enumerate(lams):
        single = integrate_fundamental(quartic_weight_op, lam)
        assert np.abs(ends[i] - phi_end(single)[0]).max() < 1e-7 * np.abs(ends[i]).max()


def test_nonsingular_transition_matrices(quartic_weight_op):
    fs = integrate_fundamental(quartic_weight_op, lam=2.0)
    for t in np.linspace(0, 2, 9):
        assert abs(np.linalg.det(phi(fs, [t])[0])) > 1e-8


def _mp_fundamental_end(pieces, lam):
    """Phi at the end of u'''' + (a0(t) + lam) u = 0 from mpmath's Taylor
    series integrator (20 digits), restarted at every piece boundary."""
    with mpmath.workdps(20):
        phi = mpmath.eye(4)
        for lo, hi, a0 in pieces:
            cols = []
            for j in range(4):
                sol = mpmath.odefun(lambda t, y: [y[1], y[2], y[3], -(a0(t) + lam) * y[0]],
                                    lo, [phi[i, j] for i in range(4)])
                cols.append(sol(hi))
            phi = mpmath.matrix([[cols[j][i] for j in range(4)] for i in range(4)])
        return np.array(phi.tolist(), dtype=float)


@pytest.mark.parametrize("case", ["quartic N[T]", "parabolic P[4T]"])
def test_magnus_matches_mpmath_reference(quartic_weight_op, parabolic_weight_op, case):
    # the coefficient pieces are written out here, independent of the
    # package's reflection code: t(t-3) is even about 3/2, so its quadruple
    # extension is s(s-3) with s = t mod 3
    if case == "quartic N[T]":
        op, lam, pieces = quartic_weight_op, 0.5, [(0, 2, lambda t: (t - 2) ** 4)]
    else:
        op, lam = extend_to_quadruple(parabolic_weight_op), 2.0
        pieces = [(0, 3, lambda t: t * (t - 3)), (3, 6, lambda t: (t - 3) * (t - 6))]
    ref = _mp_fundamental_end(pieces, lam)
    end = phi_end(integrate_fundamental(op, lam))[0]
    assert np.abs(end - ref).max() <= 1e-9 * np.abs(ref).max()


def test_large_batch_members_match_single_runs(quartic_weight_op):
    op = extend_to_double(quartic_weight_op)
    lams = np.linspace(-110.0, 1.0, 401)
    ends = phi_end(integrate_fundamental_batch(op, lams))
    for k in (0, 100, 200, 321, 400):
        single = phi_end(integrate_fundamental(op, lams[k]))[0]
        assert np.abs(ends[k] - single).max() <= 1e-10 * np.abs(single).max()


def test_complex_lambda_closed_form():
    # u'' + lam u: Phi = [[cos wt, sin(wt)/w], [-w sin wt, cos wt]], w = sqrt(lam),
    # and the Dirichlet determinant is sin(w)/w
    op = LinearOperator.from_exprs(1, 1.0, ["0", "0"])
    lam = 30.0 + 7.5j
    w = cmath.sqrt(lam)
    for fs in (integrate_fundamental(op, lam), integrate._rk_reference(op, lam, 1e-12)):
        assert fs.lams.tolist() == [lam]
        for t in (0.3, 1.0):
            exact = np.array([[cmath.cos(w * t), cmath.sin(w * t) / w],
                              [-w * cmath.sin(w * t), cmath.cos(w * t)]])
            assert np.abs(phi(fs, [t])[0] - exact).max() < 1e-10 * np.abs(exact).max()
        det = np.linalg.det(boundary_matrix(ProblemSpec(op, BCKind.DIRICHLET, lam), fs))
        assert abs(det - cmath.sin(w) / w) < 1e-10


@pytest.mark.parametrize("a0", ["sin(50*t)", "abs(t-0.3)", "1/(t+0.01)"])
def test_rough_coefficients_are_refined(a0):
    # oscillating, kinked and steep coefficients: cells are halved until the
    # Gauss rule resolves them, so Phi(T) meets the RK45 reference
    op = LinearOperator.from_exprs(1, 1.0, [a0, "0"])
    ref = phi_end(integrate._rk_reference(op, 0.0, 1e-12))[0]
    end = phi_end(integrate_fundamental(op, 0.0))[0]
    assert np.abs(end - ref).max() <= 1e-9 * np.abs(ref).max()


def test_refused_budget_counts_every_piece_and_checks_only_new_cells(monkeypatch):
    # u'''' + sin^3(-t^2) u''' + |sin t^4| (u'' + u' + u), T = 11.96, doubled:
    # the first piece resolves in 177 924 cells after 38 rounds of halving,
    # and the second piece passes the budget.  Each round checks only the
    # halves of the cells it flagged, so the checks stay within a small
    # multiple of the cells: work counts, not wall time.  Every piece's
    # cells are counted before any piece is propagated.  The twin without the
    # note of its base is integrated over 2T (the noted extension integrates
    # T alone and fits the budget)
    doubled = extend_to_double(LinearOperator.from_exprs(
        2, 11.96, ["abs(sin(t^4))", "abs(sin(t^4))", "abs(sin(t^4))", "sin(-t^2)^3"]))
    op = LinearOperator(doubled.n, doubled.length, doubled.coeffs)
    checked, unresolved = [], integrate._unresolved
    monkeypatch.setattr(integrate, "_unresolved",
                        lambda vals, bars: checked.append(vals[0].shape[1]) or unresolved(vals, bars))
    propagated, propagate = [], integrate._magnus_segments
    monkeypatch.setattr(integrate, "_magnus_segments",
                        lambda *args: propagated.append(args) or propagate(*args))
    with pytest.raises(integrate.IntegrationError) as refusal:
        integrate_fundamental(op, 0.0)
    assert not propagated
    assert sum(checked) <= 3 * MAX_CELLS
    message = re.match(r"(\S+) integration cells needed \((\d+) of them on earlier pieces\), "
                       f"more than the budget of {MAX_CELLS}", str(refusal.value))
    assert message is not None, str(refusal.value)
    total, earlier = float(message[1]), int(message[2])
    assert earlier == 177_924 and total > MAX_CELLS
    assert sum(checked) <= 3 * total


def test_derived_scan_over_the_memory_bound_is_refused_before_mirroring(monkeypatch):
    # a quadrupled operator's scan integrates the base alone, whose end
    # matrices fit MAX_BATCH_BYTES, and derives the 4T system from it; the
    # 4N end matrices of the 4T system do not fit, and are refused before
    # the mirroring inverts or allocates anything
    base = LinearOperator.from_exprs(1, 1.0, ["0", "0"])
    lams = np.linspace(1e6, 1.1e6, 9)
    ends = integrate_fundamental_batch(base, lams).segments
    monkeypatch.setattr(integrate, "MAX_BATCH_BYTES", 2 * ends.nbytes)
    inverted, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a.shape) or inv(a))
    with pytest.raises(integrate.IntegrationError, match=f"on {4 * len(ends)} segments"):
        char_det_scan(extend_to_quadruple(base), BCKind.PERIODIC, lams)
    # no 2T system was derived on the way, and nothing was inverted
    assert inverted == []


def test_quadrupled_system_repeats_the_base_propagators(quartic_weight_op):
    # the 4T operator is the periodic continuation of the 2T one, so its
    # third quarter of segments is the base's E_1 ... E_N, not an inversion
    # of the 2T system's inverses
    lams = np.linspace(-110.0, 10.0, 41)
    base = integrate_fundamental_batch(quartic_weight_op, lams)
    fs = integrate_fundamental_batch(extend_to_quadruple(quartic_weight_op), lams)
    N = len(base.segments)
    assert len(fs.segments) == 4 * N
    assert np.array_equal(fs.segments[:N], base.segments)
    assert np.array_equal(fs.segments[2 * N:3 * N], base.segments)
    assert np.array_equal(fs.nodes[2 * N:3 * N + 1], 4.0 + base.nodes)


def test_quadrupled_scan_inverts_the_base_propagators_once(monkeypatch, quartic_weight_op):
    # a P[4T] scan integrates the base alone and inverts its N end matrices
    # once; no derived system's end matrices are inverted
    lams = np.linspace(-110.0, 10.0, 41)
    N = len(integrate_fundamental_batch(quartic_weight_op, lams).segments)
    inverted, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a.shape) or inv(a))
    char_det_scan(extend_to_quadruple(quartic_weight_op), BCKind.PERIODIC, lams)
    assert inverted == [(N, len(lams), 4, 4)]


def test_cell_exponential_per_matrix_scaling():
    # stiff companion generators of widely different norms: each agrees with
    # scipy's expm, and a matrix gets bit for bit the same result alone as
    # inside the stack
    stack = []
    for lam, h in [(4e6, 0.067), (1e3, 0.3), (-2.0, 0.05), (0.0, 1e-3)]:
        A = np.diag(np.ones(3), 1)
        A[3, 0] = -lam
        stack.append(h * A)
    stack = np.array(stack)
    together = expm(stack)
    for k, X in enumerate(stack):
        ref = scipy_expm(X)
        assert np.abs(together[k] - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(expm(X[None])[0], together[k])


def _rows_at(rows0, lam):
    """Companion rows of the samples rows0 (taken at lambda 0) at lambda."""
    rows = np.array(rows0, dtype=np.result_type(rows0, lam))
    rows[..., 0] -= lam
    return rows


@pytest.mark.parametrize("d", [2, 4])
def test_polynomial_generator_matches_direct_form(d):
    # Omega_0 + lam Omega_1 (+ lam^2 Omega_2 for d = 2; zero for d > 2)
    # against the commutator form on the rows at lam, for cells as narrow as
    # the integrator makes them: h |lam|^(1/d) at most 1
    rng = np.random.default_rng(d)
    rows0 = rng.normal(size=(3, 40, 1, d))
    for lam in [0.0, 0.5, -7.0, 1e3, -1e4, 1e6, -1e6, 3.0 + 4.0j, -1e5 + 2e3j]:
        h = rng.uniform(0.05, 1.0, size=40) / max(1.0, abs(lam)) ** (1.0 / d)
        terms = integrate._magnus_polynomial(rows0, h)
        assert len(terms) == (3 if d == 2 else 2)
        poly = sum(o * lam ** k for k, o in enumerate(terms))
        direct = integrate._magnus_generator(_rows_at(rows0, lam), h)
        err = np.linalg.norm(poly - direct, axis=(-2, -1))
        assert np.all(err <= 1e-13 * np.linalg.norm(direct, axis=(-2, -1)))


def _members_on_batch_cells(op, lams):
    """Segment propagators of each lambda of a batch integrated alone, on the
    segments and cells the whole batch uses, shape (N, K, d, d)."""
    ends = []
    for interval, nodes, rate in integrate._segment_nodes(op, lams):
        members = [lams[k:k + 1] for k in range(len(lams))]
        assert interval.polynomial(lams) and not interval.polynomial(members[0])
        ends.append(np.concatenate([
            integrate._magnus_segments(interval, member, nodes,
                                       interval.cells(nodes, rate, 0, member), False)[0]
            for member in members], axis=1))
    return np.concatenate(ends)


@pytest.mark.parametrize("case", ["T", "2T", "4T", "2T complex"])
def test_polynomial_batch_matches_members_on_same_cells(quartic_weight_op, case):
    op = {"T": quartic_weight_op, "4T": extend_to_quadruple(quartic_weight_op)}.get(
        case, extend_to_double(quartic_weight_op))
    lams = np.linspace(-110.0, 10.0, 41)
    if case == "2T complex":
        lams = lams + 1j * np.linspace(-3.0, 3.0, 41)
    fs = integrate._integrate(op, lams, True)
    # a complex batch of real coefficient rows must stay complex
    assert fs.segments.dtype == lams.dtype and fs.cells.prefixes.dtype == lams.dtype
    ref = _members_on_batch_cells(op, lams)
    scale = np.abs(ref).max(axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(fs.segments - ref) <= 1e-13 * scale)


def test_polynomial_generators_only_for_lambda_free_batches(monkeypatch, quartic_weight_op):
    # constant coefficients and a single lambda keep the direct generator,
    # bit for bit
    lams = np.linspace(-50.0, 10.0, 15)
    cases = [(LinearOperator.from_exprs(2, 2.0, ["3", "0", "1", "0"]), lams),
             (quartic_weight_op, lams[:1])]
    calls, polynomial = [], integrate._magnus_polynomial
    monkeypatch.setattr(integrate, "_magnus_polynomial",
                        lambda rows, h: calls.append(h) or polynomial(rows, h))
    for op, batch in cases:
        for interval, nodes, rate in integrate._segment_nodes(op, batch):
            assert not interval.polynomial(batch)
            _, h, _, rows = interval.cells(nodes, rate, 0, batch)
            direct = (h[:, None, None, None] * integrate._companion(rows) if interval.constant
                      else integrate._magnus_generator(rows, h))
            assert np.array_equal(interval.generators(rows, h, batch), direct)
        integrate._integrate(op, batch, True).local_phi(0, [0.3])
    assert not calls
    integrate_fundamental_batch(quartic_weight_op, lams)  # the control: a (t-2)^4 batch
    assert calls


def _two_piece_op():
    """u'''' + a_0 u, a_0 = (t-2)^4 on [0, 1] and 3 on [1, 2], built fresh."""
    a0 = (CoeffSegment(0.0, 1.0, parse_expression("(t-2)^4")),
          CoeffSegment(1.0, 2.0, parse_expression("3")))
    zero = (CoeffSegment(0.0, 2.0, parse_expression("0")),)
    return LinearOperator(n=2, length=2.0, coeffs=(a0, zero, zero, zero))


def test_plan_samples_each_coefficient_once_per_operator(monkeypatch):
    # lambda is only the shift of a_0, so an operator's coefficient samples
    # serve every batch: the sups of the growth rate (17 points) and the
    # midpoint of the constant piece are taken once per segment, and a batch
    # that repeats its cell counts evaluates nothing.  Kept cells are
    # read-only.  A pickle carries no plan, and the restored operator makes
    # its own with the same results
    import pickle

    op = _two_piece_op()
    shapes, evaluate = [], CoeffSegment.evaluate
    monkeypatch.setattr(CoeffSegment, "evaluate",
                        lambda self, t: shapes.append(np.shape(t)) or evaluate(self, t))
    lams = np.linspace(-50.0, 10.0, 9)
    first = integrate_fundamental_batch(op, lams)
    assert shapes.count((17, 1)) == 8 and shapes.count((1,)) == 4
    shapes.clear()
    assert np.array_equal(integrate_fundamental_batch(op, lams).segments, first.segments)
    assert not shapes
    integrate_fundamental(op, 0.3)
    integrate_fundamental_batch(op, lams + 1j)
    assert shapes and (17, 1) not in shapes and (1,) not in shapes
    shapes.clear()
    kept = [cells for interval in op.__dict__["_plan"] for cells in interval.kept.values()]
    assert kept and not any(part.flags.writeable for cells in kept for part in cells)
    restored = pickle.loads(pickle.dumps(op))
    assert "_plan" in op.__dict__ and "_plan" not in restored.__dict__
    assert np.array_equal(integrate_fundamental_batch(restored, lams).segments, first.segments)
    assert shapes.count((17, 1)) == 8


_PLAN_OPERATORS = {
    "quartic": (2, 2.0, ["(t-2)^4", "0", "0", "0"]),
    "parabolic": (2, 1.5, ["t*(t-3)", "0", "0", "0"]),
    "u4": (2, 1.0, ["0", "0", "0", "0"]),
    "u4 T=1.5": (2, 1.5, ["0", "0", "0", "0"]),
    "u2": (1, 1.0, ["0", "0"]),
    "u2 - u": (1, 1.0, ["-1", "0"]),
}


@pytest.mark.parametrize("name", list(_PLAN_OPERATORS))
def test_warm_plan_equals_a_fresh_operator(name):
    # the oracle shares nothing: every integration of a warm plan (its cells
    # kept from the same batches) equals that of a freshly built operator,
    # segments and local Phi bit for bit
    def make():
        return LinearOperator.from_exprs(*_PLAN_OPERATORS[name])

    batches = [np.array([0.7]), np.array([-3.0, 2.0 + 0.5j]), np.linspace(-60.0, 10.0, 401)]
    warm = make()
    for lams in batches:
        integrate._integrate(warm, lams, True)
    ts = np.linspace(0.0, warm.length, 7)
    for lams in batches:
        kept, fresh = integrate._integrate(warm, lams, True), integrate._integrate(make(), lams, True)
        assert np.array_equal(kept.nodes, fresh.nodes)
        assert np.array_equal(kept.segments, fresh.segments)
        seg = kept.segment_index(ts)
        assert np.array_equal(kept.local_phi(seg, ts), fresh.local_phi(seg, ts))


def _generator_stack(d, lams, h, rng):
    """Companion generators h (A - lam e_d e_1^T) with random last rows, (K, d, d)."""
    A = np.zeros((len(lams), d, d), dtype=np.result_type(lams, float))
    A[:, np.arange(d - 1), np.arange(1, d)] = 1.0
    A[:, -1] = rng.normal(size=(len(lams), d))
    A[:, -1, 0] -= lams
    return h[:, None, None] * A


@pytest.mark.parametrize("d", [2, 4, 6])
def test_expm_equals_the_stacked_reference(d):
    # the powers in one array and the scalings by one skipped change no bit:
    # stacks that need no scaling, mixed ones, squarings and complex entries;
    # and a matrix alone equals itself inside a mixed stack
    rng = np.random.default_rng(d)
    small = _generator_stack(d, np.linspace(-2.0, 2.0, 12), np.full(12, 0.05), rng)
    assert integrate._frobenius(small).max() < 0.5  # neither scaled nor squared
    mixed = _generator_stack(d, np.array([4e6, -1e3, 0.5, 0.0, -7.0]),
                             np.array([0.067, 0.3, 0.05, 1e-3, 2.0]), rng)
    squared = _generator_stack(d, np.array([1e6, -1e4]), np.array([0.05, 0.1]), rng)
    complex_ = _generator_stack(d, np.array([3.0 + 4.0j, -1e5 + 2e3j, 0.1j]),
                                np.array([0.01, 0.02, 0.5]), rng)
    for stack in (small, mixed, squared, complex_, np.concatenate([small, mixed, squared])):
        assert np.array_equal(expm(stack), expm_stacked(stack))
    together = expm(np.concatenate([small, mixed]))
    for k, X in enumerate(np.concatenate([small, mixed])):
        assert np.array_equal(expm(X), together[k])


def test_constant_piece_exponentiates_each_distinct_width_once(monkeypatch, second_order_op):
    # u'' (the system of its Dirichlet kernel) at lambda = 4e6: 667 segments
    # of 11 distinct widths, exponentiated in one block of 11 matrices, each
    # end matrix bit for bit the exponential of its own segment
    lam = 4e6
    calls = []
    monkeypatch.setattr(integrate, "expm", lambda A: calls.append(A.shape) or expm(A))
    fs = integrate_fundamental(second_order_op, lam)
    widths = np.diff(fs.nodes)
    assert len(widths) == 667 and len(np.unique(widths)) == 11
    assert calls == [(11, 1, 2, 2)]
    A = np.array([[0.0, 1.0], [-lam, -0.0]])
    for h, end in zip(widths, fs.segments[:, 0]):
        assert np.array_equal(end, expm(h * A))
