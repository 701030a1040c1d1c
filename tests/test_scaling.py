"""Scale covariance of the spectra: with t = c tau and v(tau) = u(c tau),
u'''' + a(t) u + lam u on [0, T] becomes v'''' + c^4 a(c tau) v + c^4 lam v on
[0, T / c], and every boundary family maps to itself, so the eigenvalues
scale by c^4.  The law needs no reference value; at large |lam| the same
searches are checked against the closed forms of constant operators, and on
wide windows against the root counts that the frequency scan finds."""

import math
import warnings

import numpy as np
import pytest

from greenbvp import BCKind, LinearOperator, extend_to_double, find_eigenvalues, \
    verify_spectrum_unions
from greenbvp.greens import kernel_problem
from greenbvp.spectrum import LAM_TOL


def _quartic(c):
    """u'''' + c^4 (ct - 2)^4 u on [0, 2/c]: the quartic weight with t scaled by c."""
    return LinearOperator.from_exprs(2, 2.0 / c, [f"{c ** 4}*({c}*t-2)^4", "0", "0", "0"])


def _search(op, kind, window):
    """find_eigenvalues, with any warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return find_eigenvalues(op, kind, window)


@pytest.mark.parametrize("c", [3, 10])
@pytest.mark.parametrize("kind", [BCKind.DIRICHLET, BCKind.PERIODIC, BCKind.NEUMANN])
def test_scaled_quartic_eigenvalues_scale_by_c4(kind, c):
    # over (-110, 60) c^4 the scaled operator has the c = 1 eigenvalues times c^4
    ref = np.array(_search(_quartic(1), kind, (-110.0, 60.0)).lams())
    got = np.array(_search(_quartic(c), kind, (-110.0 * c ** 4, 60.0 * c ** 4)).lams())
    assert len(got) == len(ref) > 0
    np.testing.assert_allclose(got / c ** 4, ref, rtol=1e-9, atol=0)


def test_u4_dirichlet_roots_far_out_are_closed_forms():
    # the window holds the ten eigenvalues -(k pi)^4; no scan point far from
    # them is taken for a root.  Near -1e6 a root sits 3.6e-5 from its closed
    # form, so the bar is relative.  -pi^4 and -16 pi^4 share the last scan
    # cell, where det keeps one sign, so at least the other eight are found
    op = LinearOperator.from_exprs(2, 1.0, ["0", "0", "0", "0"])
    closed = -(np.pi * np.arange(1, 11)) ** 4
    lams = _search(op, BCKind.DIRICHLET, (-1e6, 10.0)).lams()
    nearest = [int(np.argmin(np.abs(lam / closed - 1))) for lam in lams]
    assert all(abs(lam / closed[k] - 1) <= 1e-9 for lam, k in zip(lams, nearest))
    assert len(set(nearest)) == len(lams) >= 8


def test_u6_periodic_double_root_is_pi6():
    # u^(6) on [0, 2], periodic: pi^6 = 961.389 is a double eigenvalue,
    # between the scan points 960 and 975
    op = extend_to_double(LinearOperator.from_exprs(3, 1.0, ["0"] * 6))
    spec = _search(op, BCKind.PERIODIC, (-3000.0, 3000.0))
    assert any(e.even_multiplicity and abs(e.lam - math.pi ** 6) <= LAM_TOL
               for e in spec.eigenvalues)


def test_u6_dirichlet_has_no_root_far_out():
    # the Dirichlet eigenvalues of u^(6) are positive and above the window,
    # though det M is below 1e-9 at lam = -1e5
    op = LinearOperator.from_exprs(3, 1.0, ["0"] * 6)
    assert _search(op, BCKind.DIRICHLET, (-1e5, 100.0)).eigenvalues == []


def test_u2_dirichlet_wide_window_finds_every_root():
    # (k pi)^2 for k = 1..100: a scan uniform in lambda puts several of the
    # low ones in one cell, the scan in mu = sqrt(lam) one per 16 cells
    op = LinearOperator.from_exprs(1, 1.0, ["0", "0"])
    lams = np.array(_search(op, BCKind.DIRICHLET, (0.0, 1e5)).lams())
    np.testing.assert_allclose(lams, (np.pi * np.arange(1, 101)) ** 2, rtol=1e-9, atol=0)


def test_u4_dirichlet_far_out_finds_all_ten_roots():
    # the window of test_u4_dirichlet_roots_far_out_are_closed_forms: in
    # mu = -|lam|^(1/4) the pair -pi^4, -16 pi^4 is as far apart as any other
    op = LinearOperator.from_exprs(2, 1.0, ["0", "0", "0", "0"])
    lams = np.array(_search(op, BCKind.DIRICHLET, (-1e6, 10.0)).lams())
    np.testing.assert_allclose(lams, -(np.pi * np.arange(10, 0, -1)) ** 4, rtol=1e-9, atol=0)


def test_u6_quadrupled_periodic_double_root_near_zero():
    # u^(6) on [0, 4], periodic: (pi/2)^6 = 15.02 is a double root next to the
    # simple root 0
    op = LinearOperator.from_exprs(3, 1.0, ["0"] * 6)
    spec = _search(*kernel_problem(op, "P4T"), (-3000.0, 3000.0))
    assert any(e.even_multiplicity and abs(e.lam - (math.pi / 2) ** 6) <= LAM_TOL
               for e in spec.eigenvalues)


def test_u8_cosine_doubled_neumann_finds_three_roots():
    # -38.0 and -0.84 shared one cell of the 401-point grid uniform in lambda
    op = LinearOperator.from_exprs(4, 1.0, ["cos(t)"] + ["0"] * 7)
    lams = _search(*kernel_problem(op, "N2T"), (-2e4, 2e4)).lams()
    assert len(lams) == 3


def test_wide_window_campaign_case_finds_nineteen_roots():
    # a self-adjoint Dirichlet problem: its k-th eigenfunction has k - 1
    # interior sign changes, so the 19 found are the 19 lowest
    op = LinearOperator.from_exprs(1, 1.0, ["-7.81+4.28*t+17.86*t^2", "0"])
    spec = _search(op, BCKind.DIRICHLET, (-26068.0, 3763.0))
    assert [e.sign_changes for e in spec.eigenvalues] == list(range(19))


@pytest.mark.parametrize("n, a0, window", [(3, "0", (-3000.0, 3000.0)),
                                           (4, "cos(t)", (-2e4, 2e4))], ids=["u6", "u8-cos"])
def test_spectrum_unions_on_wide_windows(n, a0, window):
    op = LinearOperator.from_exprs(n, 1.0, [a0] + ["0"] * (2 * n - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        checks = verify_spectrum_unions(op, window)
    assert [c.tag for c in checks if not c.passed] == []
