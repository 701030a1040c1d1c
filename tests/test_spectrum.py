import math
import warnings

import numpy as np
import pytest

from greenbvp import (
    BCKind,
    LinearOperator,
    MultiplicityError,
    char_det_scan,
    eigenfunction_at,
    extend_to_double,
    extend_to_quadruple,
    find_eigenvalues,
    principal_eigenvalue,
    verify_first_eigenvalue_relations,
    verify_spectrum_unions,
)
from greenbvp.expressions import parse_expression
from greenbvp.operators import CoeffSegment
from greenbvp.spectrum import COUNT_NODES, _bracketed_roots, _refine_brackets, _root_counts


def test_second_order_dirichlet_eigenvalues():
    op = LinearOperator.from_exprs(1, 1.0, ["0", "0"])
    spec = find_eigenvalues(op, BCKind.DIRICHLET, (0.0, 50.0))
    assert [pytest.approx(e.lam, rel=1e-8) for e in spec.eigenvalues] == \
        [math.pi ** 2, 4 * math.pi ** 2]


def test_fourth_order_dirichlet_eigenvalue(const_fourth_op):
    spec = find_eigenvalues(const_fourth_op, BCKind.DIRICHLET, (-200.0, -1.0))
    assert len(spec.eigenvalues) == 1
    assert spec.eigenvalues[0].lam == pytest.approx(-math.pi ** 4, rel=1e-8)


def test_mixed2_eigenvalue_matches_reported_value(const_fourth_op):
    spec = find_eigenvalues(const_fourth_op, BCKind.MIXED2, (-10.0, -0.5))
    assert len(spec.eigenvalues) == 1
    assert spec.eigenvalues[0].lam == pytest.approx(-math.pi ** 4 / 16, rel=1e-10)


def test_reported_eigenvalues_have_small_char_det(const_fourth_op):
    spec = find_eigenvalues(const_fourth_op, BCKind.MIXED2, (-40.0, 1.0))
    for hit in spec.eigenvalues:
        assert abs(char_det_scan(const_fourth_op, BCKind.MIXED2, [hit.lam])[0]) <= 1e-8


def test_eigenfunction_shapes():
    op = LinearOperator.from_exprs(1, 1.0, ["0", "0"])
    ts, u, changes = eigenfunction_at(op, BCKind.DIRICHLET, math.pi ** 2)
    assert changes == 0
    assert np.abs(np.abs(u) - np.abs(np.sin(np.pi * ts))).max() < 1e-6
    _, _, changes = eigenfunction_at(op, BCKind.DIRICHLET, 4 * math.pi ** 2)
    assert changes == 1


def test_eigenfunction_constant_neumann(second_order_op, const_fourth_op):
    # at lambda = 0 exactly the block factor is exactly singular, and at the
    # search's root near 0 (about 1e-38) sigma_2 is lost to rounding; both
    # are solved again off the root and give the simple constant eigenfunction
    for op, window in ((second_order_op, (-5.0, 100.0)), (const_fourth_op, (-60.0, 10.0))):
        ts, u, changes = eigenfunction_at(op, BCKind.NEUMANN, 0.0)
        assert changes == 0
        assert np.ptp(u) < 1e-10
        [hit] = [e for e in find_eigenvalues(op, BCKind.NEUMANN, window).eigenvalues
                 if abs(e.lam) < 1e-6]
        assert (hit.even_multiplicity, hit.sign_changes) == (False, 0)


def test_eigenfunction_residual(const_fourth_op):
    # reconstructed eigenfunction satisfies the equation along the interval:
    # u'''' = -lam u, checked against the exact mixed-2 eigenfunction family
    lam = -math.pi ** 4 / 16
    ts, u, _ = eigenfunction_at(const_fourth_op, BCKind.MIXED2, lam)
    # expected shape: sin(pi t / 2) normalized
    expected = np.sin(np.pi * ts / 2)
    expected /= np.abs(expected).max()
    sign = np.sign(u[len(u) // 2] * expected[len(u) // 2])
    assert np.abs(u - sign * expected).max() < 1e-4


def test_multiplicity_detected_at_double_root(const_fourth_op):
    op2 = extend_to_double(const_fourth_op)
    with pytest.raises(MultiplicityError):
        eigenfunction_at(op2, BCKind.ANTIPERIODIC, -math.pi ** 4 / 16)


def test_simple_roots_of_extended_problems_are_not_flagged(quartic_weight_op):
    # (t-2)^4 on [0, 2]: A[2T] = M1[T] u M2[T] and N[4T] = N[2T] u M1[2T].
    # Each of these roots lies in one constituent spectrum, so it is simple
    window = (-40.0, -15.0)
    op2, op4 = extend_to_double(quartic_weight_op), extend_to_quadruple(quartic_weight_op)

    def hits(op, kind):
        return find_eigenvalues(op, kind, window).eigenvalues

    for found, parts, expected in [
        (hits(op2, BCKind.ANTIPERIODIC),
         [(quartic_weight_op, BCKind.MIXED1), (quartic_weight_op, BCKind.MIXED2)], {-35.1673: 3}),
        (hits(op4, BCKind.NEUMANN), [(op2, BCKind.NEUMANN), (op2, BCKind.MIXED1)],
         {-35.1673: 6, -18.6272: 5}),
    ]:
        constituents = [hits(*part) for part in parts]
        for lam, changes in expected.items():
            [hit] = [e for e in found if abs(e.lam - lam) < 1e-3]
            assert (hit.even_multiplicity, hit.sign_changes) == (False, changes)
            assert sum(any(abs(e.lam - hit.lam) < 1e-5 for e in spectrum)
                       for spectrum in constituents) == 1


def test_even_multiplicity_flagging(const_fourth_op):
    op2 = extend_to_double(const_fourth_op)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = find_eigenvalues(op2, BCKind.ANTIPERIODIC, (-10.0, -0.5))
    assert len(spec.eigenvalues) == 1
    hit = spec.eigenvalues[0]
    assert hit.even_multiplicity
    assert hit.lam == pytest.approx(-math.pi ** 4 / 16, rel=1e-6)


@pytest.mark.parametrize("kind,expected", [
    (BCKind.NEUMANN, 0.0),
    (BCKind.MIXED2, -math.pi ** 4 / 16),
    (BCKind.DIRICHLET, -math.pi ** 4),
])
def test_principal_eigenvalues(const_fourth_op, kind, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lam0 = principal_eigenvalue(const_fourth_op, kind, (-110.0, 1.0))
    assert lam0 == pytest.approx(expected, abs=1e-5)


def test_shrinking_scan_step_keeps_eigenvalues(const_fourth_op):
    coarse = find_eigenvalues(const_fourth_op, BCKind.MIXED2, (-40.0, 1.0))
    fine = find_eigenvalues(const_fourth_op, BCKind.MIXED2, (-40.0, 1.0),
                            scan_step=0.02)
    for hit in coarse.eigenvalues:
        assert any(abs(hit.lam - other.lam) < 1e-5 for other in fine.eigenvalues)


def test_zero_scan_step_is_refused(second_order_op):
    # 0 is a step, not "unset": it must not fall back to the default step
    with pytest.raises(ValueError, match="scan_step must be positive"):
        find_eigenvalues(second_order_op, BCKind.DIRICHLET, (0.0, 50.0), scan_step=0.0)


def test_window_validation(const_fourth_op):
    with pytest.raises(ValueError):
        find_eigenvalues(const_fourth_op, BCKind.NEUMANN, (1.0, -1.0))
    with pytest.raises(ValueError):
        find_eigenvalues(const_fourth_op, BCKind.NEUMANN, (0.0, 1.0), scan_step=-1.0)


@pytest.mark.parametrize("n,window", [(2, (-110.0, 1.0)), (1, (-5.0, 100.0))],
                         ids=["fourth", "second"])
def test_spectrum_unions_constant(n, window):
    op = LinearOperator.from_exprs(n, 1.0, ["0"] * (2 * n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        checks = verify_spectrum_unions(op, window)
    assert all(c.passed for c in checks), [c.tag for c in checks if not c.passed]
    tags = {c.tag for c in checks}
    assert "M1=M2 (reflection-symmetric coefficients)" in tags


def test_spectrum_unions_without_reflection_symmetry():
    # a_0 = t is not a_0(1 - t): M1 and M2 need not share eigenvalues, so
    # that row is left out, and the reflected rows still match
    op = LinearOperator.from_exprs(1, 1.0, ["t", "0"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        checks = {c.tag: c for c in verify_spectrum_unions(op, (-5.0, 30.0))}
    assert all(c.passed for c in checks.values()), [t for t, c in checks.items() if not c.passed]
    assert not any(tag.startswith("M1=M2 ") for tag in checks)
    M1, M2 = checks["M1=M2-reflected"].left, checks["M2=M1-reflected"].left
    assert len(M1) == len(M2) == 2 and abs(M1[0] - M2[0]) > 0.1


def test_root_counts_double_the_nodes_until_the_phase_steps_resolve():
    # 21 roots in [0.4, 0.6]: on the first COUNT_NODES intervals the phase of
    # det steps by up to about 21 / 8 rad, more than pi / 2, so a second
    # batch doubles the nodes of both boxes; [0, 0.3] holds no root
    roots = 0.5 + 0.01 * (np.arange(21) - 10)
    batches = []

    def det_batch(z):
        batches.append(len(z))
        return np.prod(z[:, None] - roots, axis=1)

    counts = _root_counts(det_batch, np.array([0.0, 0.0]), np.array([1.0, 0.3]))
    assert counts.tolist() == [21, 0]
    assert batches == [2 * (COUNT_NODES + 1), 2 * COUNT_NODES]


@pytest.mark.parametrize("kind,expected", [
    (BCKind.PERIODIC, [(0, False), (4, True), (16, True)]),
    (BCKind.ANTIPERIODIC, [(1, True), (9, True)]),
], ids=["periodic", "antiperiodic"])
def test_second_order_periodic_double_roots(second_order_op, kind, expected):
    # u'' on [0, 1]: periodic eigenvalues (2 k pi)^2 and antiperiodic ones
    # ((2 k + 1) pi)^2, all double except lambda = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = find_eigenvalues(second_order_op, kind, (-5.0, 200.0))
    assert [(e.lam, e.even_multiplicity) for e in spec.eigenvalues] == \
        [(pytest.approx(k * math.pi ** 2, abs=1e-5), even) for k, even in expected]


def test_close_pairs_in_one_scan_cell():
    # u'' + a0 u with a0 = 0 on [0, 0.3) and 10 on [0.3, 1]: the periodic
    # spectrum on [0, 2] is the union of the Neumann and Dirichlet spectra,
    # whose pairs near 32.6 and 81.9 each fall inside one unit scan cell
    zero, ten = parse_expression("0"), parse_expression("10")
    op = LinearOperator(n=1, length=1.0, coeffs=(
        (CoeffSegment(0.0, 0.3, zero), CoeffSegment(0.3, 1.0, ten)),
        (CoeffSegment(0.0, 1.0, zero),)))
    window = (-5.0, 100.0)
    expected = sorted(find_eigenvalues(op, BCKind.NEUMANN, window).lams()
                      + find_eigenvalues(op, BCKind.DIRICHLET, window).lams())
    spec = find_eigenvalues(extend_to_double(op), BCKind.PERIODIC, window, scan_step=1.0)
    assert len(expected) == 6
    assert spec.lams() == pytest.approx(expected, abs=1e-5)
    assert not any(e.even_multiplicity for e in spec.eigenvalues)


def test_union_identity_values(const_fourth_op):
    # the paper family: Lambda_N[1] = {0, -pi^4}, Lambda_D[1] = {-pi^4},
    # Lambda_P[2] = {0, -pi^4} on the window
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        checks = {c.tag: c for c in
                  verify_spectrum_unions(const_fourth_op, (-110.0, 1.0))}
    np_check = checks["N+D=P2T"]
    assert sorted(np_check.left) == pytest.approx([-math.pi ** 4, 0.0], abs=1e-5)
    assert sorted(np_check.right) == pytest.approx([-math.pi ** 4, 0.0], abs=1e-5)
    a_check = checks["M1+M2=A2T"]
    assert a_check.left == pytest.approx([-math.pi ** 4 / 16], abs=1e-5)


def test_first_eigenvalue_relations_constant(const_fourth_op):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = verify_first_eigenvalue_relations(const_fourth_op, (-110.0, 1.0))
    assert rep.all_passed
    assert rep.principals["N[T]"] == pytest.approx(0.0, abs=1e-5)
    assert rep.principals["M2[T]"] == pytest.approx(-math.pi ** 4 / 16, abs=1e-5)
    assert rep.principals["D[2T]"] == pytest.approx(-math.pi ** 4 / 16, abs=1e-5)
    assert rep.principals["A[2T]"] == pytest.approx(-math.pi ** 4 / 16, abs=1e-5)
    # the ordering rows report without asserting a direction
    assert all(row["relation"] in "<>=" for row in rep.orderings)


def test_spectrum_serialization(const_fourth_op):
    spec = find_eigenvalues(const_fourth_op, BCKind.MIXED2, (-10.0, -0.5))
    payload = spec.to_json()
    assert payload["kind"] == "mixed2"
    assert payload["window"] == [-10.0, -0.5]
    assert payload["eigenvalues"][0]["lambda"] == pytest.approx(-math.pi ** 4 / 16)
    assert "sign_changes" in payload["eigenvalues"][0]


def test_variable_coefficient_principal(quartic_weight_op):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lam0 = principal_eigenvalue(quartic_weight_op, BCKind.NEUMANN, (-8.0, 4.0))
    assert lam0 == pytest.approx(-1.746, abs=2e-3)


def test_principal_missing_in_window(const_fourth_op):
    # the Dirichlet principal (-pi^4) lies far outside this window
    with pytest.raises(ValueError, match="no constant-sign"):
        principal_eigenvalue(const_fourth_op, BCKind.DIRICHLET, (-10.0, 1.0))


def test_eigenvalue_on_the_window_end_is_reported(const_fourth_op):
    # lambda = 0 is a Neumann eigenvalue, and the window is closed: its end
    # is an ordinary scan point where det is exactly 0.0, a root of width 0,
    # reported next to -pi^4 with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = find_eigenvalues(const_fourth_op, BCKind.NEUMANN, (-100.0, 0.0))
    low, end = spec.eigenvalues
    assert abs(low.lam + math.pi ** 4) < 1e-6
    assert (end.lam, end.bracket_width) == (0.0, 0.0)


def test_refine_brackets_k_section_rounds():
    # three simple roots, one of them on a bisection midpoint, located to
    # lam_tol from at most 15 lambdas per bracket
    roots = np.array([0.123456789, math.sqrt(3.0), 2.5])
    calls = []

    def det_batch(xs):
        xs = np.asarray(xs, dtype=float)
        calls.append(len(xs))
        return np.prod(xs[:, None] - roots, axis=1)

    lam_tol, w0 = 1e-6, 0.1
    brackets = [(r0, r0 + w0, *det_batch([r0, r0 + w0])) for r0 in (0.1, 1.7, 2.45)]
    calls.clear()
    found = _refine_brackets(det_batch, brackets, lam_tol)
    assert np.abs(np.array([x for x, _ in found]) - roots).max() <= lam_tol
    assert sum(calls) <= 15 * len(brackets)


def test_refine_brackets_stops_at_float_spacing():
    # lam_tol below the float spacing at pi^2 (1.8e-15): the bracket ends on
    # neighbouring floats and the search stops instead of spinning
    calls = []

    def det_batch(xs):
        calls.append(len(xs))
        if len(calls) > 30:
            raise AssertionError("the search does not terminate")
        return np.sin(np.sqrt(np.asarray(xs, dtype=float)))

    [(x, width)] = _refine_brackets(det_batch, [(5.0, 15.0, *det_batch([5.0, 15.0]))], 1e-16)
    assert x == pytest.approx(math.pi ** 2, rel=1e-14)
    assert width <= 4 * np.spacing(math.pi ** 2)


def _count_scans(monkeypatch, limit=None):
    import greenbvp.spectrum as spectrum

    scans = []
    scan = spectrum.char_det_scan

    def counted(*args, **kwargs):
        scans.append(1)
        if limit is not None and len(scans) > limit:
            raise AssertionError("search does not terminate")
        return scan(*args, **kwargs)

    monkeypatch.setattr(spectrum, "char_det_scan", counted)
    return scans


def test_find_eigenvalues_lam_tol_below_float_spacing(monkeypatch):
    _count_scans(monkeypatch, limit=60)
    op = LinearOperator.from_exprs(1, 1.0, ["0", "0"])
    spec = find_eigenvalues(op, BCKind.DIRICHLET, (5.0, 15.0), lam_tol=1e-16)
    assert [e.lam for e in spec.eigenvalues] == [pytest.approx(math.pi ** 2, rel=1e-12)]


def test_periodic_close_pairs_match_neumann_dirichlet_union():
    # u'' + 10 t^2 u on [0, 1]: P[2T] = N[T] u D[T] holds the pairs
    # 85.468/85.569, 154.565/154.624, 243.396/243.435 and 351.965/351.992,
    # each inside one scan cell without a sign change between scan points
    op = LinearOperator.from_exprs(1, 1.0, ["10*t^2", "0"])
    window = (-5.0, 400.0)
    expected = sorted(find_eigenvalues(op, BCKind.NEUMANN, window).lams()
                      + find_eigenvalues(op, BCKind.DIRICHLET, window).lams())
    spec = find_eigenvalues(extend_to_double(op), BCKind.PERIODIC, window)
    assert len(expected) == 13
    assert spec.lams() == pytest.approx(expected, abs=1e-5)
    assert not any(e.even_multiplicity for e in spec.eigenvalues)


def test_coarse_scan_finds_double_root():
    # u'' + 0.5 u' on [0, 1] doubled: pi^2 + 1/16 is a Neumann and a
    # Dirichlet eigenvalue, so a double periodic root; the scan points of a
    # step of 2 sit one to two units from it
    op = extend_to_double(LinearOperator.from_exprs(1, 1.0, ["0", "0.5"]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = find_eigenvalues(op, BCKind.PERIODIC, (-5.0, 100.0), scan_step=2.0)
    [hit] = [e for e in spec.eigenvalues if abs(e.lam - 9.9) < 1.0]
    assert hit.lam == pytest.approx(math.pi ** 2 + 1 / 16, abs=1e-6)
    assert hit.even_multiplicity


def test_dip_zoom_lam_tol_below_float_spacing(monkeypatch, second_order_op):
    # the dip cell around the double root 4 pi^2 is zoomed to the float
    # spacing and counted there; at that width det is below its rounding
    # level, so the closing count may drop the root but never misplaces it
    _count_scans(monkeypatch, limit=40)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = find_eigenvalues(second_order_op, BCKind.PERIODIC, (5.0, 50.0), lam_tol=1e-16)
    assert all(abs(lam - 4 * math.pi ** 2) < 1e-6 for lam in spec.lams())


def test_dip_scans_do_not_grow_with_dip_cells(monkeypatch, second_order_op):
    # u'' on [0, 1], periodic: one double root in (5, 50), five in (5, 1000);
    # every dip cell shares the count and zoom sweeps of its search
    scans = _count_scans(monkeypatch)
    calls = []
    for window, doubles in (((5.0, 50.0), [4]), ((5.0, 1000.0), [4, 16, 36, 64, 100])):
        scans.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = find_eigenvalues(second_order_op, BCKind.PERIODIC, window, scan_step=0.5)
        assert [(e.lam, e.even_multiplicity) for e in spec.eigenvalues] == \
            [(pytest.approx(k * math.pi ** 2, abs=1e-6), True) for k in doubles]
        calls.append(len(scans))
    assert calls[1] == calls[0]


def test_scan_over_the_memory_bound_is_refused_before_integrating(monkeypatch):
    # u'' D over (0, 1e7) at 50 001 points: the end matrices of its 1 055
    # segments would take 1.69 GB, so the scan is refused before any cell is
    # propagated
    from greenbvp import IntegrationError, integrate

    def propagate(*args, **kwargs):
        raise AssertionError("a batch over MAX_BATCH_BYTES reached the propagator")

    monkeypatch.setattr(integrate, "_magnus_segments", propagate)
    op = LinearOperator.from_exprs(1, 1.0, ["0", "0"])
    with pytest.raises(IntegrationError, match="MAX_BATCH_BYTES"):
        find_eigenvalues(op, BCKind.DIRICHLET, (0.0, 1e7), scan_step=200.0)


def _count_integrations(monkeypatch):
    """(calls, lambdas) of every integration from now on."""
    from greenbvp import integrate

    calls, lams = [], []
    original = integrate._integrate

    def counted(op, batch, *args):
        calls.append(1)
        lams.append(np.size(batch))
        return original(op, batch, *args)

    monkeypatch.setattr(integrate, "_integrate", counted)
    return calls, lams


def test_principal_search_takes_five_integrations(monkeypatch, const_fourth_op):
    # the scan, three solver rounds and the eigenfunction: from the scan's
    # bracket the secant of each round's three points closes on the root
    calls, _ = _count_integrations(monkeypatch)
    lam = principal_eigenvalue(const_fourth_op, BCKind.MIXED2, (-10.0, 2.0))
    assert lam == pytest.approx(-6.088068189625154, rel=1e-9)
    assert len(calls) <= 5


def test_reproduce_work_counts(monkeypatch):
    # every threshold row starts with a principal search; 142 integrations of
    # 2 848 lambdas with a scan uniform in lambda and no secant step
    from greenbvp import reproduce_counterexamples

    calls, lams = _count_integrations(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert reproduce_counterexamples().all_passed
    assert len(calls) <= 142
    assert sum(lams) <= 700


def test_one_point_probe_closes_its_bracket():
    # a probe of one point, as sign_interval's tracker makes, has no secant:
    # the first end value is unknown, so the first step is the midpoint, and
    # the next are regula falsi points
    proposals = []

    def probe(x):
        proposals.append(float(x[0]))
        f = x ** 3 - 2.0
        return x[:, None], f[:, None], (f < 0)[:, None]

    [root], [a], [b] = _bracketed_roots(probe, [0.0], [3.0], [np.nan], [25.0], 1e-6)
    assert a < 2 ** (1 / 3) < b and b - a <= 1e-6
    assert root == pytest.approx(2 ** (1 / 3), abs=1e-12)
    assert proposals[:3] == [1.5, 0.75, pytest.approx(1.5 - 1.375 * 0.75 / (1.375 + 1.578125))]
    assert len(proposals) <= 9
