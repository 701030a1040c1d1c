import numpy as np
import pytest

from greenbvp import (
    BCKind,
    HypothesisError,
    LinearOperator,
    ProblemSpec,
    build_greens,
    check_kernel_domination,
    check_solution_comparison,
    solve_bvp,
)
from greenbvp import operators as operators_module

from reference import solve_bvp_loop


def test_poisson_string_solution(second_order_op):
    G = build_greens(ProblemSpec(second_order_op, BCKind.DIRICHLET))
    sol = solve_bvp(G, "1", m=41)
    exact = sol.ts * (sol.ts - 1.0) / 2.0
    assert np.abs(sol.values - exact).max() < 1e-9
    mid = len(sol.ts) // 2
    assert sol.values[mid] == pytest.approx(-0.125, abs=1e-10)


def test_zero_source_gives_zero(const_fourth_op):
    G = build_greens(ProblemSpec(const_fourth_op, BCKind.DIRICHLET))
    sol = solve_bvp(G, "0", m=41)
    assert np.abs(sol.values).max() == 0.0


def test_beam_constant_load(const_fourth_op):
    G = build_greens(ProblemSpec(const_fourth_op, BCKind.DIRICHLET))
    sol = solve_bvp(G, "24", m=81)
    exact = sol.ts ** 4 - 2 * sol.ts ** 3 + sol.ts
    assert np.abs(sol.values - exact).max() < 1e-9
    mid = len(sol.ts) // 2
    assert sol.values[mid] == pytest.approx(0.3125, abs=1e-10)


def test_solve_requires_odd_grid(second_order_op):
    G = build_greens(ProblemSpec(second_order_op, BCKind.DIRICHLET))
    with pytest.raises(ValueError):
        solve_bvp(G, "1", m=40)
    with pytest.raises(ValueError):
        solve_bvp(G, "1", m=21)


def test_simpson_fourth_order_convergence():
    # smooth non-polynomial source against a tight reference solve
    op = LinearOperator.from_exprs(1, 1.0, ["-1", "0"])
    G = build_greens(ProblemSpec(op, BCKind.NEUMANN))
    ref = solve_bvp(G, "sin(3*t)", m=641).values
    errors = []
    for m in (41, 81, 161):
        vals = solve_bvp(G, "sin(3*t)", m=m).values
        stride = 640 // (m - 1)
        errors.append(np.abs(vals - ref[::stride]).max())
    # halving h cuts the error by about 2^4 until the kernel accuracy floor
    assert errors[1] < errors[0] / 8
    assert errors[2] < errors[1] / 8 or errors[2] < 1e-11


@pytest.mark.parametrize("m", [41, 81, 161])
def test_solve_matches_the_row_loop(m, quartic_weight_op, const_fourth_op):
    # the weights of every row at once against the row-by-row Simpson sums
    for op, kind, lam, sigma in [
        (quartic_weight_op, BCKind.NEUMANN, 2.0, "sin(3*t) + t"),
        (LinearOperator.from_exprs(2, 2.0, ["(t-2)^4", "0.7*t", "cos(t)", "0.5*t"]),
         BCKind.MIXED2, -1.0, "1 + t^2/4"),
        (const_fourth_op, BCKind.MIXED1, -0.2, "0-1-t"),
    ]:
        G = build_greens(ProblemSpec(op, kind, lam))
        ref = solve_bvp_loop(G, sigma, m)
        values = solve_bvp(G, sigma, m).values
        assert np.abs(values - ref).max() <= 1e-13 * np.abs(ref).max()


def test_linearity(quartic_weight_op):
    G = build_greens(ProblemSpec(quartic_weight_op, BCKind.NEUMANN, 2.0))
    u1 = solve_bvp(G, "1", m=41).values
    u2 = solve_bvp(G, "t", m=41).values
    combo = solve_bvp(G, "3*1 - 2*t", m=41).values
    assert np.abs(combo - (3 * u1 - 2 * u2)).max() < 1e-10


def test_kernel_domination_quartic_positive(quartic_weight_op):
    rows = check_kernel_domination(quartic_weight_op, 2.0)
    nd = next(r for r in rows if r.tag.startswith("ND"))
    assert nd.applicable and nd.premise == "nonnegative" and nd.passed


def test_kernel_domination_negative_band():
    op = LinearOperator.from_exprs(2, 1.5, ["0", "0", "0", "0"])
    rows = check_kernel_domination(op, -3.0)
    nd = next(r for r in rows if r.tag.startswith("ND"))
    assert nd.applicable and nd.premise == "nonpositive" and nd.passed


def test_kernel_domination_mixed2_band(const_fourth_op):
    rows = check_kernel_domination(const_fourth_op, -1.0)
    m2d = next(r for r in rows if r.tag.startswith("M2D"))
    assert m2d.applicable and m2d.premise == "nonnegative" and m2d.passed


def test_kernel_domination_not_applicable(parabolic_weight_op):
    # at lambda = 15 the extended Dirichlet kernel changes sign
    rows = check_kernel_domination(parabolic_weight_op, 15.0)
    m2d = next(r for r in rows if r.tag.startswith("M2D"))
    assert not m2d.applicable


def test_solution_comparison_case1(quartic_weight_op):
    report = check_solution_comparison("ND", 1, quartic_weight_op, 2.0,
                                       "2", "sin(3*t)", m=81)
    assert report.applicable and report.passed
    assert report.conclusions[0]["conclusion"] == "|u2| <= u1"


def test_solution_comparison_case2_neumann_mixed1():
    # the premise kernel N[2T] is nonpositive only on (-0.3862, 0), so the
    # probe must sit inside that band
    op = LinearOperator.from_exprs(2, 1.5, ["0", "0", "0", "0"])
    report = check_solution_comparison("NM1", 2, op, -0.2, "1", "t/2", m=81)
    assert report.applicable and report.passed
    names = [c["conclusion"] for c in report.conclusions]
    assert names == ["u1 <= 0", "u1 <= u2"]


def test_solution_comparison_nm1_not_applicable_outside_band():
    op = LinearOperator.from_exprs(2, 1.5, ["0", "0", "0", "0"])
    report = check_solution_comparison("NM1", 2, op, -3.0, "1", "t/2", m=81)
    assert not report.applicable
    assert report.premise == "sign-changing"


def test_solution_comparison_case3():
    op = LinearOperator.from_exprs(2, 1.5, ["0", "0", "0", "0"])
    report = check_solution_comparison("ND", 3, op, -3.0, "0-1", "0-t/3", m=81)
    assert report.applicable and report.passed


def test_zero_sources_are_tight(quartic_weight_op):
    report = check_solution_comparison("ND", 1, quartic_weight_op, 2.0, "0", "0", m=41)
    assert report.applicable and report.passed
    assert report.primary is not None
    assert np.abs(report.primary.values).max() == 0.0


def test_hypothesis_rejected_before_solving(quartic_weight_op):
    with pytest.raises(HypothesisError):
        check_solution_comparison("ND", 1, quartic_weight_op, 2.0, "1", "2", m=41)
    with pytest.raises(HypothesisError):
        check_solution_comparison("ND", 2, quartic_weight_op, 2.0, "1", "0-t", m=41)
    with pytest.raises(HypothesisError):
        check_solution_comparison("ND", 3, quartic_weight_op, 2.0, "0-1", "t", m=41)


def test_premise_mismatch_is_not_applicable(quartic_weight_op):
    # at lambda = 2 the periodic premise kernel is nonnegative, so the
    # nonpositive cases do not apply
    report = check_solution_comparison("ND", 2, quartic_weight_op, 2.0, "1", "t/4", m=41)
    assert not report.applicable
    assert report.premise == "nonnegative"


def test_unknown_tag_and_case(quartic_weight_op):
    with pytest.raises(ValueError):
        check_solution_comparison("XY", 1, quartic_weight_op, 2.0, "1", "0", m=41)
    with pytest.raises(ValueError):
        check_solution_comparison("ND", 4, quartic_weight_op, 2.0, "1", "0", m=41)


def test_kernel_domination_builds_no_quadruple_interval(quartic_weight_op, monkeypatch):
    # the comparison premises live on the doubled interval; only the
    # identities need the quadrupled one.  A fresh operator holds no doubling
    # yet, so each interval's operator is built (operators._mirror) once
    op = LinearOperator(quartic_weight_op.n, quartic_weight_op.length, quartic_weight_op.coeffs)
    built, mirror = [], operators_module._mirror
    monkeypatch.setattr(operators_module, "_mirror",
                        lambda *args: built.append(args[1]) or mirror(*args))
    check_kernel_domination(op, -2.0)
    assert built == [2 * op.length]
