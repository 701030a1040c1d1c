import math
import warnings

import numpy as np
import pytest

from greenbvp import (
    BCKind,
    LinearOperator,
    ProblemSpec,
    build_greens,
    classify_problem,
    classify_sign,
    extend_to_double,
    extend_to_quadruple,
    principal_eigenvalue,
    reproduce_counterexamples,
    sign_interval,
    sweep_extrema,
    verify_sign_corollary,
)
from greenbvp import greens as greens_module
from greenbvp import integrate as integrate_module
from greenbvp import operators as operators_module
from greenbvp import signscan as signscan_module
from greenbvp import spectrum as spectrum_module
from greenbvp.greens import KERNEL_CODES, GreensEvaluator, kernel_problem
from greenbvp.integrate import FundamentalSystem
from greenbvp.signscan import EIGEN_TOL, NONNEGATIVE, NONPOSITIVE, SIGN_CHANGING, THRESHOLD_TOL, \
    ZERO_BAND, SignSearchError, _load_fixtures, _operator_from_fixture


def test_string_kernel_is_nonpositive(second_order_op):
    G = build_greens(ProblemSpec(second_order_op, BCKind.DIRICHLET))
    report = classify_sign(G)
    assert report.classification == NONPOSITIVE
    assert report.max_value <= 1e-12
    assert report.min_value == pytest.approx(-0.25, abs=1e-6)


def test_neumann_nonnegative_inside_reported_interval():
    # inside (0, 24.7192) the Neumann kernel on [0, 3/2] is nonnegative
    op = LinearOperator.from_exprs(2, 1.5, ["0", "0", "0", "0"])
    assert classify_problem(op, BCKind.NEUMANN, 10.0)[0] == NONNEGATIVE


def test_extended_dirichlet_changes_sign_at_15(parabolic_weight_op):
    # reported behaviour of the parabolic-weight operator on [0, 3]
    op2 = extend_to_double(parabolic_weight_op)
    assert classify_problem(op2, BCKind.DIRICHLET, 15.0)[0] == SIGN_CHANGING


def test_classification_monotone_in_resolution(parabolic_weight_op):
    op2 = extend_to_double(parabolic_weight_op)
    G = build_greens(ProblemSpec(op2, BCKind.DIRICHLET, 15.0))
    assert classify_sign(G, m=101).classification == SIGN_CHANGING
    assert classify_sign(G, m=202).classification == SIGN_CHANGING


def test_minimum_grid_enforced(second_order_op):
    G = build_greens(ProblemSpec(second_order_op, BCKind.DIRICHLET))
    with pytest.raises(ValueError):
        classify_sign(G, m=21)


def test_sign_interval_neumann_neg_side():
    op = LinearOperator.from_exprs(2, 1.5, ["0", "0", "0", "0"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = sign_interval(op, BCKind.NEUMANN, "neg",
                            principal_eigenvalue(op, BCKind.NEUMANN, (-4.0, 4.0)))
    assert res.lam_hi == pytest.approx(0.0, abs=1e-5)
    assert res.lam_lo == pytest.approx(-6.1798, abs=1e-2)
    assert res.endpoint_status == "threshold-found"
    assert res.principal == pytest.approx(0.0, abs=1e-6)


def test_sign_interval_neumann_pos_side_longer():
    op = LinearOperator.from_exprs(2, 3.0, ["0", "0", "0", "0"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = sign_interval(op, BCKind.NEUMANN, "pos",
                            principal_eigenvalue(op, BCKind.NEUMANN, (-0.9, 4.0)))
    assert res.lam_lo == pytest.approx(0.0, abs=1e-5)
    assert res.lam_hi == pytest.approx(1.5449, abs=1e-2)


def test_sign_interval_mixed2_pos_side(const_fourth_op):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = sign_interval(const_fourth_op, BCKind.MIXED2, "pos",
                            principal_eigenvalue(const_fourth_op, BCKind.MIXED2, (-10.0, 2.0)))
    assert res.lam_lo == pytest.approx(-math.pi ** 4 / 16, abs=1e-5)
    assert res.lam_hi == pytest.approx(389.6365, abs=0.5)


def test_interval_endpoint_is_principal(const_fourth_op):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = sign_interval(const_fourth_op, BCKind.MIXED2, "neg",
                            principal_eigenvalue(const_fourth_op, BCKind.MIXED2, (-10.0, 2.0)))
    assert res.lam_hi == res.principal
    assert res.threshold() == res.lam_lo


def test_classification_flips_beyond_threshold(const_fourth_op):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = sign_interval(const_fourth_op, BCKind.MIXED2, "neg",
                            principal_eigenvalue(const_fourth_op, BCKind.MIXED2, (-10.0, 2.0)))
    inside = 0.5 * (res.lam_lo + res.lam_hi)
    assert classify_problem(const_fourth_op, BCKind.MIXED2, inside)[0] == NONPOSITIVE
    beyond = res.lam_lo - 10 * res.lam_tol
    assert classify_problem(const_fourth_op, BCKind.MIXED2, beyond)[0] == SIGN_CHANGING


def test_classify_problem_returns_the_report_of_its_kernel(const_fourth_op):
    lam = -20.0
    classification, report = classify_problem(const_fourth_op, BCKind.MIXED2, lam)
    assert report == classify_sign(build_greens(ProblemSpec(const_fourth_op, BCKind.MIXED2, lam)))
    assert classification == report.classification == NONPOSITIVE


def test_classify_problem_reports_a_resonant_problem_without_a_report():
    op = LinearOperator.from_exprs(1, 1.0, ["0", "0"])
    assert classify_problem(op, BCKind.DIRICHLET, math.pi ** 2) == ("resonant", None)


def test_sign_interval_searches_no_eigenvalue_when_given_its_principal(const_fourth_op,
                                                                         monkeypatch):
    principal = principal_eigenvalue(const_fourth_op, BCKind.MIXED2, (-10.0, 2.0))

    def refused(*args, **kwargs):
        raise AssertionError("eigenvalue search")

    monkeypatch.setattr(spectrum_module, "find_eigenvalues", refused)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = sign_interval(const_fourth_op, BCKind.MIXED2, "neg", principal)
    assert res.principal == principal == pytest.approx(-6.0881, abs=1e-4)
    assert res.lam_lo == pytest.approx(-31.2852, abs=1e-4)
    assert res.changed_row == "u''(0) -> u'(0)"


def test_sign_corollary_on_quartic(quartic_weight_op):
    rows = verify_sign_corollary(quartic_weight_op, [-2.0, 2.0])
    assert all(r["pass"] for r in rows)
    applicable = [r for r in rows if r["applicable"]]
    assert applicable, "premises never satisfied"
    # at lambda = -2 the periodic premise is nonpositive and the Neumann
    # kernel follows it
    neg = [r for r in applicable if r["lambda"] == -2.0 and "P2T<=0" in r["tag"]]
    assert neg and neg[0]["conclusion"] == NONPOSITIVE


def test_sign_corollary_d2t_mixed2(const_fourth_op):
    # lambda = -1 sits in the nonnegative band of D[2T] (above the principal
    # -pi^4/16), lambda = -10 in the nonpositive band; the mixed-2 kernel
    # inherits the sign in both cases
    rows = verify_sign_corollary(const_fourth_op, [-1.0, -10.0])
    pos = next(r for r in rows if "D2T>=0" in r["tag"] and r["lambda"] == -1.0)
    assert pos["applicable"] and pos["conclusion"] == NONNEGATIVE and pos["pass"]
    neg = next(r for r in rows if "D2T<=0" in r["tag"] and r["lambda"] == -10.0)
    assert neg["applicable"] and neg["conclusion"] == NONPOSITIVE and neg["pass"]


def test_sign_corollary_skips_a_resonant_premise(const_fourth_op):
    # at -pi^4 the periodic problem on [0, 2] is resonant: it has no kernel,
    # so neither P[2T] premise holds or fails
    rows = verify_sign_corollary(const_fourth_op, [-math.pi ** 4])
    p2t = [r for r in rows if r["tag"].startswith("P2T")]
    assert len(p2t) == 2
    assert all(r["premise"] == "resonant" and not r["applicable"] and r["pass"] for r in p2t)


def test_sign_interval_stops_at_the_end_of_its_window(const_fourth_op):
    # the u'''' Neumann kernel on [0, 1] keeps its sign from the principal
    # eigenvalue 0 to the end of the window: no flip, the window's end
    res = sign_interval(const_fourth_op, BCKind.NEUMANN, "pos",
                        principal_eigenvalue(const_fourth_op, BCKind.NEUMANN, (-1.0, 1.0)),
                        search_window=(-1.0, 1.0))
    assert res.endpoint_status == "window-exhausted"
    assert res.lam_lo == pytest.approx(0.0, abs=1e-6) and res.lam_hi == 1.0
    assert res.flip is None and res.changed_row is None and res.bracket is None


def test_resolve_kernel_codes(quartic_weight_op, monkeypatch):
    # the base codes give the operator itself, the 2T codes its kept doubling
    # and P4T that doubling's: the nine codes of a fresh operator build two
    # operators, and an unknown code is refused by name
    op = quartic_weight_op
    for code in ("N", "D", "M1", "M2"):
        assert kernel_problem(op, code)[0] is op
    for code in ("P2T", "A2T", "N2T", "D2T"):
        assert kernel_problem(op, code)[0] is extend_to_double(op)
    op4, kind = kernel_problem(op, "P4T")
    assert op4 is extend_to_quadruple(op) and op4.length == 8.0 and kind is BCKind.PERIODIC
    built, mirror = [], operators_module._mirror
    monkeypatch.setattr(operators_module, "_mirror",
                        lambda *args: built.append(args[1]) or mirror(*args))
    fresh = LinearOperator(op.n, op.length, op.coeffs)
    problems = {code: kernel_problem(fresh, code) for code in KERNEL_CODES}
    assert built == [4.0, 8.0]
    assert {code: (o.length, kind) for code, (o, kind) in problems.items()} == {
        code: (2.0 * multiple, kind) for code, (multiple, kind) in KERNEL_CODES.items()}
    with pytest.raises(ValueError, match="unknown kernel code 'Q'"):
        kernel_problem(op, "Q")


def test_sweep_extrema_rows(const_fourth_op):
    rows = sweep_extrema(const_fourth_op, BCKind.MIXED2, [-5.0, -6.2, 1.0])
    assert len(rows) == 3
    for lam, mn, mx in rows:
        assert mn <= mx or math.isnan(mn)


def test_sweep_marks_resonant_nan(const_fourth_op):
    rows = sweep_extrema(const_fourth_op, BCKind.MIXED2, [-math.pi ** 4 / 16])
    assert math.isnan(rows[0][1]) and math.isnan(rows[0][2])


def test_reproduction_suite_passes():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = reproduce_counterexamples()
    assert len(report.rows) >= 20
    failures = [r for r in report.rows if not r["pass"]]
    assert not failures, failures


def test_classify_sign_integrates_each_point_set_once(second_order_op, monkeypatch):
    # the grid's points take one local Phi, which the sides' normal
    # derivatives of the vanishing Dirichlet kernel and the polish's
    # neighbours reuse: at most the grid and the polish's two Newton steps
    G = build_greens(ProblemSpec(second_order_op, BCKind.DIRICHLET))
    assert G.nseg == 1
    calls = []
    original = FundamentalSystem.local_phi

    def counted(self, seg, ts):
        calls.append(len(ts))
        return original(self, seg, ts)

    monkeypatch.setattr(FundamentalSystem, "local_phi", counted)
    assert classify_sign(G, m=101).classification == NONPOSITIVE
    assert len(calls) <= 3 and calls[0] == 101


def test_sign_interval_k_section_pinned(const_fourth_op, monkeypatch):
    # the M2 threshold is the eigenvalue of the problem with one boundary
    # row changed, found with 13 of the 42 integrations of a serial
    # bisection: the false-position point of its EIGEN_TOL bracket, across
    # which the characteristic function of the problem changed at the
    # corner (0, 0) changes sign within 1e-9
    calls = []
    original = integrate_module._integrate

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(integrate_module, "_integrate", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = sign_interval(const_fourth_op, BCKind.MIXED2, "neg",
                            principal_eigenvalue(const_fourth_op, BCKind.MIXED2, (-10.0, 2.0)))
    assert res.lam_lo == pytest.approx(-31.285243858777164, rel=1e-9)
    assert abs(res.lam_lo - -31.285245122913707) <= EIGEN_TOL
    assert res.lam_hi == pytest.approx(-6.088068189625154, rel=1e-9)
    assert len(calls) <= 13
    C, _ = greens_module._corner_problem(BCKind.MIXED2, 2, 0, 0)
    dets = greens_module._char_dets(const_fourth_op, C, [res.lam_lo - 1e-9, res.lam_lo + 1e-9])
    assert dets[0] * dets[1] < 0


def test_periodic_changed_problems_are_k_sectioned_once(monkeypatch):
    # a periodic kind gives each of its two changed problems at two
    # corners; each distinct problem is searched and confirmed once, and
    # only for a flip at a corner: this one flips on an edge, so the
    # changed problems are not scanned at all and the tracker ends it, at
    # the false-position point of its final bracket
    op = LinearOperator.from_exprs(2, 1.5, ["t*(t-3)", "0", "0", "0"])
    o, kind = kernel_problem(op, "P4T")
    calls, integrations = [], []
    original = signscan_module.classify_problem
    integrate = integrate_module._integrate

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(signscan_module, "classify_problem", counted)
    monkeypatch.setattr(integrate_module, "_integrate",
                        lambda *args: integrations.append(1) or integrate(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = sign_interval(o, kind, "neg", principal_eigenvalue(o, kind, (-60.0, 10.0)))
    assert res.threshold() == pytest.approx(1.2572607773043083, rel=1e-12)
    assert abs(res.threshold() - 1.257260777566494) <= THRESHOLD_TOL
    assert (res.flip, res.changed_row) == ("edge", None)
    assert res.bracket == pytest.approx((1.2572906221223508, 1.2572406221223507), rel=1e-12)
    assert len(calls) <= 17
    assert len(integrations) <= 28


def test_tracker_ends_near_the_zoomed_root(monkeypatch):
    # quartic P4T flips on an edge on its positive side: the tracker's
    # threshold lies within 1e-5 of the root of the zoomed local minimum,
    # -1.4316964286, in at most 20 classifications
    op = LinearOperator.from_exprs(2, 2.0, ["(t-2)^4", "0", "0", "0"])
    o, kind = kernel_problem(op, "P4T")
    calls = []
    original = signscan_module.classify_problem
    monkeypatch.setattr(signscan_module, "classify_problem",
                        lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = sign_interval(o, kind, "pos", principal_eigenvalue(o, kind, (-60.0, 10.0)))
    assert res.flip == "edge"
    assert abs(res.threshold() - -1.4316964286) <= 1e-5
    assert len(calls) <= 20


def test_classification_rows_integrate_each_operator_and_lambda_once(monkeypatch):
    # the codes of one scenario, and scenarios of one lambda, share their
    # fundamental systems, and the 2T and 4T operators derive theirs from the
    # base operator's: one integration per distinct (base operator, lambda)
    fixtures = _load_fixtures()
    scenarios = fixtures["classification_scenarios"]
    pairs = {(kernel_problem(_operator_from_fixture(s["operator"]), code)[0], s["lambda"])
             for s in scenarios for code in s["expected"]}
    bases = {(_operator_from_fixture(s["operator"]), s["lambda"]) for s in scenarios}
    calls = []
    original = integrate_module._integrate

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(integrate_module, "_integrate", counted)
    report = reproduce_counterexamples({"classification_scenarios": scenarios, "thresholds": []})
    assert len(report.rows) == 20 and report.all_passed
    assert len(pairs) == 9 and len(bases) == 6
    assert len(calls) == len(bases)


@pytest.mark.parametrize("name", ["lambda_1", "lambda_3", "lambda_4", "lambda_5",
                                  "lambda_6", "lambda_7"])
def test_neumann_threshold_rows_flip_at_a_corner(name):
    # the Neumann constant-sign intervals end where G(0, 0) or G(0, T)
    # changes sign: both corners keep the side's sign lam_tol inside the
    # returned threshold, and one of them has lost it lam_tol outside
    [row] = [r for r in _load_fixtures()["thresholds"] if r["name"] == name]
    assert row["kernel"] == "N"
    op = _operator_from_fixture(row["operator"])
    side = "neg" if row["type"] == "nonpositive" else "pos"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        principal = principal_eigenvalue(op, BCKind.NEUMANN, tuple(row["principal_window"]))
        res = sign_interval(op, BCKind.NEUMANN, side, principal)
    d = -1.0 if side == "neg" else 1.0

    def corners(lam):
        G = build_greens(ProblemSpec(op, BCKind.NEUMANN, lam))
        return d * np.array([G(0.0, 0.0), G(0.0, op.length)])

    assert (corners(res.threshold() - d * res.lam_tol) > 0).all()
    assert (corners(res.threshold() + d * res.lam_tol) < 0).any()


def _fixture_problem(name):
    """(operator, kind, side, principal window) of a threshold row."""
    [row] = [r for r in _load_fixtures()["thresholds"] if r["name"] == name]
    op, kind = kernel_problem(_operator_from_fixture(row["operator"]), row["kernel"])
    side = "neg" if row["type"] == "nonpositive" else "pos"
    return op, kind, side, tuple(row["principal_window"])


def _threshold_result(name, m=101):
    op, kind, side, window = _fixture_problem(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return op, kind, sign_interval(op, kind, side, principal_eigenvalue(op, kind, window), m=m)


def test_no_threshold_lies_past_an_eigenvalue_of_its_own_problem():
    # the kernel has a pole at each eigenvalue of its problem, so no
    # constant-sign interval reaches past one: between the principal and
    # each fixture threshold the problem has no other eigenvalue.  For
    # lambda_6 (u'''' N on [0, 3]) the first probe lies past -(pi/3)^4
    names = [r["name"] for r in _load_fixtures()["thresholds"] if r["type"] != "principal"]
    for name in names:
        op, kind, res = _threshold_result(name)
        assert res.endpoint_status == "threshold-found"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spectrum = spectrum_module.find_eigenvalues(op, kind, (res.lam_lo, res.lam_hi))
        assert all(lam == pytest.approx(res.principal, abs=1e-6) for lam in spectrum.lams()), name


def test_mixed2_corner_lobe_counts_as_a_sign_change(const_fourth_op):
    # 0.015 past the threshold the positive lobe of u'''' M2 at the corner
    # (0, 0) stays inside the zero band, but d_t d_s G(0, 0) has the wrong sign
    G = build_greens(ProblemSpec(const_fourth_op, BCKind.MIXED2, -31.30))
    report = classify_sign(G)
    assert report.max_value <= ZERO_BAND * abs(report.min_value)
    assert report.classification == SIGN_CHANGING
    assert report.sites["positive"] == ("corner", (0.0, 0.0))


@pytest.mark.parametrize("name, threshold", [
    ("lambda_8", -31.28524),
    ("lambda_9", 4 * math.pi ** 4),
    ("lambda_10", -14.85757),
    ("lambda_11", 59.43027),
])
def test_dirichlet_and_mixed2_thresholds_are_the_changed_problems_eigenvalues(name, threshold):
    # the four D and M2 rows end where a corner coefficient of G changes
    # sign: an eigenvalue of the problem with one boundary row changed
    op, kind, res = _threshold_result(name)
    assert abs(res.threshold() - threshold) <= THRESHOLD_TOL
    assert res.flip == "corner" and res.changed_row is not None
    inside, outside = res.bracket
    want = NONPOSITIVE if res.side.startswith("nonpositive") else NONNEGATIVE
    assert classify_problem(op, kind, inside)[0] == want
    assert classify_problem(op, kind, outside)[0] == SIGN_CHANGING


@pytest.mark.parametrize("sections", [8, 32])
def test_thresholds_do_not_depend_on_the_section_count(sections, monkeypatch):
    # every search ends at the false-position point of its final bracket,
    # so the cells of the changed-problem scan change no answer
    names = ("lambda_8", "lambda_11")
    default = [_threshold_result(name)[2] for name in names]
    monkeypatch.setattr(spectrum_module, "SECTIONS", sections)
    for name, res in zip(names, default):
        other = _threshold_result(name)[2]
        assert other.threshold() == pytest.approx(res.threshold(), abs=1e-9)
        assert other.principal == pytest.approx(res.principal, abs=1e-9)


def test_sign_interval_reports_the_changed_row(const_fourth_op):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = sign_interval(const_fourth_op, BCKind.MIXED2, "neg",
                            principal_eigenvalue(const_fourth_op, BCKind.MIXED2, (-10.0, 2.0)))
    payload = res.to_json()
    assert payload["flip"] == "corner"
    assert payload["changed_row"] == "u''(0) -> u'(0)"
    assert payload["bracket"] == pytest.approx([res.lam_lo + THRESHOLD_TOL,
                                                res.lam_lo - THRESHOLD_TOL], abs=1e-12)


def test_interior_lobe_between_grid_points_is_polished():
    # at 4.1140 the negative lobe of lambda_2's P2T kernel opens around
    # (0.8652, 3.1348), between the points of the 101-grid, where every
    # sample is still positive: the polished minimum shows it
    op, kind, *_ = _fixture_problem("lambda_2")
    report = classify_sign(build_greens(ProblemSpec(op, kind, 4.1140)), m=101)
    assert report.classification == SIGN_CHANGING
    assert report.sites["negative"][0] == "interior"
    assert sorted(report.argmin) == pytest.approx([0.8652, 3.1348], abs=1e-3)


# the root of the polished minimum of lambda_2's P2T kernel over max|G|
LAMBDA_2 = 4.11272


def test_interior_flip_is_the_root_of_the_polished_minimum():
    # lambda_2 (P2T) flips away from the corners: no changed problem has a
    # confirmed eigenvalue between the probes, and the tracked root of f
    # does not depend on the grid
    thresholds = []
    for m in (101, 201):
        _, _, res = _threshold_result("lambda_2", m=m)
        assert res.changed_row is None
        assert abs(res.threshold() - LAMBDA_2) <= THRESHOLD_TOL
        good, bad = res.bracket
        assert good < res.threshold() < bad and bad - good <= THRESHOLD_TOL
        thresholds.append(res.threshold())
    assert abs(thresholds[0] - thresholds[1]) <= THRESHOLD_TOL


def test_lambda_2_agrees_with_a_fine_grid(monkeypatch):
    # another route to lambda_2: the 801-grid alone, without the polish,
    # keeps the sign THRESHOLD_TOL inside the tracked root and loses it
    # THRESHOLD_TOL outside
    monkeypatch.setattr(signscan_module, "POLISH_BAND", 0.0)
    op, kind, *_ = _fixture_problem("lambda_2")
    assert classify_problem(op, kind, LAMBDA_2 - THRESHOLD_TOL, m=801)[0] == NONNEGATIVE
    assert classify_problem(op, kind, LAMBDA_2 + THRESHOLD_TOL, m=801)[0] == SIGN_CHANGING


def test_reproduction_searches_each_principal_once(monkeypatch):
    # the 12 threshold rows need the principal eigenvalues of 6 problems
    calls = []
    original = spectrum_module.find_eigenvalues

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(spectrum_module, "find_eigenvalues", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = reproduce_counterexamples()
    assert report.all_passed
    assert len(calls) == 6


def test_resolving_a_base_code_builds_no_extension(quartic_weight_op, monkeypatch):
    calls = []

    def counted(op):
        calls.append(op)
        return extend_to_double(op)

    monkeypatch.setattr(greens_module, "extend_to_double", counted)
    assert kernel_problem(quartic_weight_op, "N") == (quartic_weight_op, BCKind.NEUMANN)
    assert kernel_problem(quartic_weight_op, "M2") == (quartic_weight_op, BCKind.MIXED2)
    assert not calls
    op4, _ = kernel_problem(quartic_weight_op, "P4T")
    assert op4.length == 8.0 and len(calls) == 2


def test_vanishing_sides_are_classified_without_refinement(const_fourth_op, monkeypatch):
    # a Dirichlet kernel vanishes on all four sides: their normal derivatives
    # carry the sign, so no cell along them is refined
    G = build_greens(ProblemSpec(const_fourth_op, BCKind.DIRICHLET, -3.3))
    points = []
    original = GreensEvaluator.eval_grid

    def counted(self, ts, ss, component=0):
        values = original(self, ts, ss, component)
        points.append(values.size)
        return values

    monkeypatch.setattr(GreensEvaluator, "eval_grid", counted)
    report = classify_sign(G)
    assert report.classification == NONNEGATIVE
    assert sum(points) <= 101 ** 2 + 2 * 101


def test_second_order_diagonal_corner_is_classified_by_its_sides():
    # a second-order kernel behaves like c min(t, s) at a diagonal corner;
    # for u'' + u'/2 + (2 + lam) u M2 c stays -1 above the principal
    # eigenvalue 0.003643, so the kernel is never nonnegative there, though
    # at 0.00385 its negative lobe is narrower than 1e-4 of the length
    op = LinearOperator.from_exprs(1, 1.0, ["2", "0.5"])
    report = classify_sign(build_greens(ProblemSpec(op, BCKind.MIXED2, 0.00385)))
    assert report.classification == SIGN_CHANGING
    assert report.sites["negative"] == ("corner", (0.0, 0.0))
    with pytest.raises(SignSearchError):
        sign_interval(op, BCKind.MIXED2, "pos",
                      principal_eigenvalue(op, BCKind.MIXED2, (-60.0, 10.0)))


def test_polish_skips_ties_and_takes_at_most_polish_max():
    # u'' N at lambda = -1e6 decays like exp(-1000 |t - s|): most samples are
    # exactly zero, a plateau of tied minima that the polish leaves alone,
    # and the rest of that region is rounding noise, whose strict minima it
    # takes up to POLISH_MAX of; so it does of samples with 81 minima
    op = LinearOperator.from_exprs(1, 1.0, ["0", "0"])
    G = build_greens(ProblemSpec(op, BCKind.NEUMANN, -1e6))
    pts = np.linspace(0.0, G.length, 101)
    values = G.eval_grid(pts, pts)
    assert (values == 0.0).sum() > len(pts) ** 2 / 3
    i, j, polished, moved = signscan_module._polish(G, pts, values, np.abs(values).max())
    assert len(i) <= signscan_module.POLISH_MAX and (values[i, j] != 0.0).all()
    assert classify_sign(G).classification == NONPOSITIVE
    ripple = 1e-3 + np.add.outer(*2 * [np.sin(10 * np.pi * pts) ** 2])
    i, j, polished, moved = signscan_module._polish(G, pts, ripple, np.abs(ripple).max())
    assert len(i) == len(polished) == len(moved) == signscan_module.POLISH_MAX
