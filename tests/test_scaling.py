"""Scale covariance of the spectra: with t = c tau and v(tau) = u(c tau),
u'''' + a(t) u + lam u on [0, T] becomes v'''' + c^4 a(c tau) v + c^4 lam v on
[0, T / c], and every boundary family maps to itself, so the eigenvalues
scale by c^4.  The law needs no reference value; at large |lam| the same
searches are checked against the closed forms of constant operators."""

import math
import warnings

import numpy as np
import pytest

from greenbvp import BCKind, LinearOperator, extend_to_double, find_eigenvalues
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
