import math
import warnings

import numpy as np
import pytest

from greenbvp import (
    BCKind,
    LinearOperator,
    MultiplicityError,
    ProblemSpec,
    char_det,
    eigenfunction_at,
    extend_to_double,
    find_eigenvalues,
    principal_eigenvalue,
    verify_first_eigenvalue_relations,
    verify_spectrum_unions,
)
from greenbvp.expressions import parse_expression
from greenbvp.operators import CoeffSegment


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
        assert abs(char_det(ProblemSpec(const_fourth_op, BCKind.MIXED2, hit.lam))) <= 1e-8


def test_eigenfunction_shapes():
    op = LinearOperator.from_exprs(1, 1.0, ["0", "0"])
    ts, u, changes = eigenfunction_at(op, BCKind.DIRICHLET, math.pi ** 2)
    assert changes == 0
    assert np.abs(np.abs(u) - np.abs(np.sin(np.pi * ts))).max() < 1e-6
    _, _, changes = eigenfunction_at(op, BCKind.DIRICHLET, 4 * math.pi ** 2)
    assert changes == 1


def test_eigenfunction_constant_neumann(const_fourth_op):
    ts, u, changes = eigenfunction_at(const_fourth_op, BCKind.NEUMANN, 0.0)
    assert changes == 0
    assert np.ptp(u) < 1e-10


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
        checks = verify_spectrum_unions(op, window, lam_tol=1e-6)
    assert all(c.passed for c in checks), [c.tag for c in checks if not c.passed]
    tags = {c.tag for c in checks}
    assert "M1=M2 (reflection-symmetric coefficients)" in tags


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


def test_resonant_window_endpoint_shrinks_and_warns(const_fourth_op):
    # lambda = 0 is a Neumann eigenvalue; using it as a window endpoint
    # triggers the shrink-and-warn path without losing interior roots
    with pytest.warns(UserWarning, match="nearly resonant"):
        spec = find_eigenvalues(const_fourth_op, BCKind.NEUMANN, (-100.0, 0.0))
    assert any(abs(e.lam + math.pi ** 4) < 1e-4 for e in spec.eigenvalues)
