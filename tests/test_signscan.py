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
    reproduce_counterexamples,
    sign_interval,
    sweep_extrema,
    verify_sign_corollary,
)
from greenbvp import integrate as integrate_module
from greenbvp.integrate import FundamentalSystem
from greenbvp.signscan import NONNEGATIVE, NONPOSITIVE, SIGN_CHANGING, _load_fixtures, \
    _operator_from_fixture, resolve_kernel


def test_string_kernel_is_nonpositive(second_order_op):
    G = build_greens(ProblemSpec(second_order_op, BCKind.DIRICHLET))
    report = classify_sign(G)
    assert report.classification == NONPOSITIVE
    assert report.max_value <= 1e-12
    assert report.min_value == pytest.approx(-0.25, abs=1e-6)


def test_neumann_nonnegative_inside_reported_interval():
    # inside (0, 24.7192) the Neumann kernel on [0, 3/2] is nonnegative
    op = LinearOperator.from_exprs(2, 1.5, ["0", "0", "0", "0"])
    assert classify_problem(op, BCKind.NEUMANN, 10.0) == NONNEGATIVE


def test_extended_dirichlet_changes_sign_at_15(parabolic_weight_op):
    # reported behaviour of the parabolic-weight operator on [0, 3]
    op2 = extend_to_double(parabolic_weight_op)
    assert classify_problem(op2, BCKind.DIRICHLET, 15.0) == SIGN_CHANGING


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
        res = sign_interval(op, BCKind.NEUMANN, "neg", principal_window=(-4.0, 4.0))
    assert res.lam_hi == pytest.approx(0.0, abs=1e-5)
    assert res.lam_lo == pytest.approx(-6.1798, abs=1e-2)
    assert res.endpoint_status == "threshold-found"
    assert res.principal == pytest.approx(0.0, abs=1e-6)


def test_sign_interval_neumann_pos_side_longer():
    op = LinearOperator.from_exprs(2, 3.0, ["0", "0", "0", "0"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = sign_interval(op, BCKind.NEUMANN, "pos", principal_window=(-0.9, 4.0))
    assert res.lam_lo == pytest.approx(0.0, abs=1e-5)
    assert res.lam_hi == pytest.approx(1.5449, abs=1e-2)


def test_sign_interval_mixed2_pos_side(const_fourth_op):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = sign_interval(const_fourth_op, BCKind.MIXED2, "pos",
                            principal_window=(-10.0, 2.0))
    assert res.lam_lo == pytest.approx(-math.pi ** 4 / 16, abs=1e-5)
    assert res.lam_hi == pytest.approx(389.6365, abs=0.5)


def test_interval_endpoint_is_principal(const_fourth_op):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = sign_interval(const_fourth_op, BCKind.MIXED2, "neg",
                            principal_window=(-10.0, 2.0))
    assert res.lam_hi == res.principal
    assert res.threshold() == res.lam_lo


def test_classification_flips_beyond_threshold(const_fourth_op):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = sign_interval(const_fourth_op, BCKind.MIXED2, "neg",
                            principal_window=(-10.0, 2.0))
    inside = 0.5 * (res.lam_lo + res.lam_hi)
    assert classify_problem(const_fourth_op, BCKind.MIXED2, inside) == NONPOSITIVE
    beyond = res.lam_lo - 10 * res.lam_tol
    assert classify_problem(const_fourth_op, BCKind.MIXED2, beyond) == SIGN_CHANGING


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


def test_resolve_kernel_codes(quartic_weight_op):
    op2, kind = resolve_kernel(quartic_weight_op, "P2T")
    assert kind is BCKind.PERIODIC
    assert op2.length == 4.0
    op4, kind = resolve_kernel(quartic_weight_op, "P4T")
    assert op4.length == 8.0
    with pytest.raises(ValueError):
        resolve_kernel(quartic_weight_op, "Q")


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
    # the Dirichlet kernel vanishes on the boundary, so the refinement pass
    # adds midpoints in t and in s: three point sets, one local Phi each
    G = build_greens(ProblemSpec(second_order_op, BCKind.DIRICHLET))
    assert G.nseg == 1
    calls = []
    original = FundamentalSystem.local_phi

    def counted(self, seg, ts):
        calls.append(len(ts))
        return original(self, seg, ts)

    monkeypatch.setattr(FundamentalSystem, "local_phi", counted)
    assert classify_sign(G).classification == NONPOSITIVE
    assert len(calls) <= 3


def test_sign_interval_k_section_pinned(const_fourth_op, monkeypatch):
    # thresholds of the serial bisection search, reached with less than
    # half of its 42 integrations
    calls = []
    original = integrate_module._integrate

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(integrate_module, "_integrate", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = sign_interval(const_fourth_op, BCKind.MIXED2, "neg",
                            principal_window=(-10.0, 2.0))
    assert res.lam_lo == pytest.approx(-31.361620130543123, rel=1e-9)
    assert res.lam_hi == pytest.approx(-6.088068189625154, rel=1e-9)
    assert len(calls) < 21


def test_classification_rows_integrate_each_operator_and_lambda_once(monkeypatch):
    # the codes of one scenario, and scenarios of one lambda, share their
    # fundamental systems: one integration per distinct (operator, lambda)
    fixtures = _load_fixtures()
    scenarios = fixtures["classification_scenarios"]
    pairs = {(resolve_kernel(_operator_from_fixture(s["operator"]), code)[0], s["lambda"])
             for s in scenarios for code in s["expected"]}
    calls = []
    original = integrate_module._integrate

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(integrate_module, "_integrate", counted)
    report = reproduce_counterexamples({"classification_scenarios": scenarios, "thresholds": []})
    assert len(report.rows) == 20 and report.all_passed
    assert len(pairs) == 9
    assert len(calls) == len(pairs)


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
        res = sign_interval(op, BCKind.NEUMANN, side,
                            principal_window=tuple(row["principal_window"]))
    d = -1.0 if side == "neg" else 1.0

    def corners(lam):
        G = build_greens(ProblemSpec(op, BCKind.NEUMANN, lam))
        return d * np.array([G(0.0, 0.0), G(0.0, op.length)])

    assert (corners(res.threshold() - d * res.lam_tol) > 0).all()
    assert (corners(res.threshold() + d * res.lam_tol) < 0).any()
