import math

import numpy as np
import pytest

from greenbvp import (
    BCKind,
    GreensEvaluator,
    IntegrationError,
    LinearOperator,
    ProblemSpec,
    build_greens,
    check_connecting,
    check_decomposition,
    check_mixed_reflection,
    check_slope_constancy,
    check_symmetry,
    extend_to_double,
    extend_to_quadruple,
    integrate_fundamental,
    reflect,
    run_identities,
)
from greenbvp.greens import kernel_problem, kernel_source
from greenbvp.identities import DEFAULT_TOLERANCE, SELF_TOLERANCE


@pytest.fixture(scope="module")
def quartic_kernels(quartic_weight_op):
    lam = 2.0
    op2 = extend_to_double(quartic_weight_op)
    return {
        "N": build_greens(ProblemSpec(quartic_weight_op, BCKind.NEUMANN, lam)),
        "D": build_greens(ProblemSpec(quartic_weight_op, BCKind.DIRICHLET, lam)),
        "P2T": build_greens(ProblemSpec(op2, BCKind.PERIODIC, lam)),
    }


def test_symmetry_extended_quartic(quartic_kernels):
    report = check_symmetry(quartic_kernels["P2T"], m=41)
    assert report.residual <= 1e-7
    assert report.passed


def test_symmetry_constant_coefficient():
    op = extend_to_double(LinearOperator.from_exprs(2, 1.0, ["1", "0", "0", "0"]))
    G = build_greens(ProblemSpec(op, BCKind.PERIODIC, 0.0))
    assert check_symmetry(G, m=41).residual <= 1e-8


def test_symmetry_negative_control():
    # an asymmetric coefficient that is NOT an even extension breaks the
    # reflection symmetry of the periodic kernel
    op = LinearOperator.from_exprs(1, 2.0, ["t", "0"])
    G = build_greens(ProblemSpec(op, BCKind.PERIODIC, 0.5))
    assert check_symmetry(G, m=41).residual > 0.01


def test_decomposition_neumann_periodic(quartic_kernels):
    report = check_decomposition("N-P2T", quartic_kernels["N"], quartic_kernels["P2T"], m=41)
    assert report.residual <= 1e-6
    assert report.passed


def test_decomposition_mixed2_antiperiodic(const_fourth_op):
    lam = 1.0
    base = build_greens(ProblemSpec(const_fourth_op, BCKind.MIXED2, lam))
    big = build_greens(ProblemSpec(extend_to_double(const_fourth_op),
                                   BCKind.ANTIPERIODIC, lam))
    assert check_decomposition("M2-A2T", base, big, m=41).residual <= 1e-6


def test_decomposition_four_term():
    op = LinearOperator.from_exprs(2, 1.5, ["0", "0", "0", "0"])
    lam = 1.0
    base = build_greens(ProblemSpec(op, BCKind.NEUMANN, lam))
    big = build_greens(ProblemSpec(extend_to_quadruple(op), BCKind.PERIODIC, lam))
    assert check_decomposition("N-P4T", base, big, m=41).residual <= 1e-6


def test_decomposition_interval_mismatch(quartic_kernels):
    with pytest.raises(ValueError, match="mismatched"):
        check_decomposition("N-P2T", quartic_kernels["N"], quartic_kernels["N"], m=11)


def test_connecting_relations(const_fourth_op):
    lam = 1.0
    op2 = extend_to_double(const_fourth_op)
    op4 = extend_to_quadruple(const_fourth_op)
    N = build_greens(ProblemSpec(const_fourth_op, BCKind.NEUMANN, lam))
    D = build_greens(ProblemSpec(const_fourth_op, BCKind.DIRICHLET, lam))
    M1 = build_greens(ProblemSpec(const_fourth_op, BCKind.MIXED1, lam))
    M2 = build_greens(ProblemSpec(const_fourth_op, BCKind.MIXED2, lam))
    P2 = build_greens(ProblemSpec(op2, BCKind.PERIODIC, lam))
    A2 = build_greens(ProblemSpec(op2, BCKind.ANTIPERIODIC, lam))
    P4 = build_greens(ProblemSpec(op4, BCKind.PERIODIC, lam))
    assert check_connecting("P2T-ND", [N, D], P2, m=41).residual <= 1e-6
    assert check_connecting("A2T-M2M1", [M2, M1], A2, m=41).residual <= 1e-6
    assert check_connecting("P4T-QUARTER", [N, D, M1, M2], P4, m=41).residual <= 1e-6


def test_mixed_reflection_constant(const_fourth_op):
    reports = run_identities(const_fourth_op, 1.0, tags=["mixed-reflection"], m=41)
    assert all(r.residual <= 1e-6 for r in reports)


def test_mixed_reflection_parabolic(parabolic_weight_op):
    reports = run_identities(parabolic_weight_op, 1.5, tags=["mixed-reflection"], m=41)
    assert all(r.residual <= 1e-6 for r in reports)


def test_run_identities_checks_mixed_reflection_through_the_public_check(
        monkeypatch, parabolic_weight_op):
    # both rows come from check_mixed_reflection, so a caller and the traced
    # public check see the same computation
    from greenbvp import identities

    calls = []
    check = identities.check_mixed_reflection

    def counted(G, G_reflected, m):
        calls.append((G.problem.kind, G_reflected.problem.kind))
        return check(G, G_reflected, m)

    monkeypatch.setattr(identities, "check_mixed_reflection", counted)
    reports = run_identities(parabolic_weight_op, 1.5, tags=["mixed-reflection"], m=21)
    assert [r.tag for r in reports] == ["M1-reflection", "M2-reflection"]
    assert calls == [(BCKind.MIXED1, BCKind.MIXED2), (BCKind.MIXED2, BCKind.MIXED1)]


def test_check_mixed_reflection_refuses_a_neumann_kernel(quartic_kernels, quartic_weight_op):
    kernels = kernel_source(2.0)
    with pytest.raises(ValueError, match="needs an M1 or M2 kernel"):
        check_mixed_reflection(quartic_kernels["N"],
                               kernels(reflect(quartic_weight_op), BCKind.MIXED2), m=21)


def test_mixed_reflection_negative_control(quartic_weight_op):
    # comparing M1 of L against M2 of L itself (not of the reflected
    # operator) must fail for a reflection-asymmetric operator
    lam = 1.0
    T = quartic_weight_op.length
    GM1 = build_greens(ProblemSpec(quartic_weight_op, BCKind.MIXED1, lam))
    GM2 = build_greens(ProblemSpec(quartic_weight_op, BCKind.MIXED2, lam))
    ts = np.linspace(0, T, 41)
    diff = GM1.eval_grid(T - ts, T - ts) - GM2.eval_grid(ts, ts)
    assert np.abs(diff).max() > 0.01


def test_slope_constancy_constant_coefficients():
    op = extend_to_double(LinearOperator.from_exprs(2, 1.5, ["0", "0", "0", "0"]))
    G = build_greens(ProblemSpec(op, BCKind.PERIODIC, 1.0))
    assert check_slope_constancy(G, m=41).residual <= 1e-7


def test_slope_constancy_cosh_closed_form():
    # u'' + lam at lam = -1 on [0,2]: kernel built from cosh/sinh, compare to
    # the translation-invariant closed form
    op = LinearOperator.from_exprs(1, 1.0, ["0", "0"])
    op2 = extend_to_double(op)
    G = build_greens(ProblemSpec(op2, BCKind.PERIODIC, -1.0))
    report = check_slope_constancy(G, m=41)
    assert report.residual <= 1e-8
    # closed form: for u'' - u periodic on [0,L], G(t,0) = -cosh(L/2 - t)/(2 sinh(L/2))
    L = 2.0
    for t in (0.0, 0.7, 1.9):
        expected = -math.cosh(L / 2 - t) / (2 * math.sinh(L / 2))
        assert G(t, 0.0) == pytest.approx(expected, abs=1e-9)


def test_slope_constancy_negative_control(parabolic_weight_op):
    op2 = extend_to_double(parabolic_weight_op)
    G = build_greens(ProblemSpec(op2, BCKind.PERIODIC, 1.0))
    assert check_slope_constancy(G, m=41).residual > 0.01


def test_run_identities_all_pass(parabolic_weight_op):
    reports = run_identities(parabolic_weight_op, 1.0, m=21)
    assert len(reports) >= 17
    for r in reports:
        assert r.passed or r.skipped, f"{r.tag}: residual {r.residual}"
    # the variable-coefficient operator cannot satisfy slope-one; it is skipped
    slope = [r for r in reports if r.tag == "slope-one"]
    assert slope and slope[0].skipped


def test_run_identities_skips_resonant(const_fourth_op):
    # the mixed problems resonate at -pi^4/16 while Neumann/periodic do not;
    # identities touching a resonant problem are skipped rather than failed
    lam = -np.pi ** 4 / 16
    reports = run_identities(const_fourth_op, lam, m=21,
                             tags=["M2-A2T", "N-P2T"])
    by_tag = {r.tag: r for r in reports}
    assert by_tag["M2-A2T"].skipped
    assert "resonant" in by_tag["M2-A2T"].reason
    assert not by_tag["N-P2T"].skipped
    assert by_tag["N-P2T"].passed


def test_mixed_reflection_skips_below_the_skip_margin(const_fourth_op):
    # just off the first mixed eigenvalue -(pi/2)^4 the M1 and M2 kernels
    # exist, with a margin of about 1.2e-9, below SKIP_MARGIN: mixed-reflection
    # is skipped, as every other row that touches them is
    lam = -(math.pi / 2) ** 4 * (1 + 1e-8)
    reports = run_identities(const_fourth_op, lam, tags=["M1-A2T", "mixed-reflection"])
    assert [(r.tag, r.skipped) for r in reports] == [("M1-A2T", True),
                                                     ("mixed-reflection", True)]
    assert reports[1].reason == "resonant: M1, M2, reflected M1, reflected M2"


def test_identity_bars_scale_with_the_kernels_near_a_mixed_eigenvalue(const_fourth_op):
    # just off -(pi/2)^4 the M1 margin (1.2e-7) is above SKIP_MARGIN and max|G|
    # is about 3.3e5: residuals of 1e-5 to 3.7e-4 are about 1e-9 of the
    # kernels, and the rows that touch them pass against bars of that size
    lam = -(math.pi / 2) ** 4 * (1 + 1e-6)
    reports = run_identities(const_fourth_op, lam, m=41)
    assert not any(r.skipped for r in reports)
    assert all(r.passed for r in reports), [(r.tag, r.residual, r.tol) for r in reports]
    scaled = [r for r in reports if r.residual > SELF_TOLERANCE]
    assert len(scaled) == 13 and min(r.residual for r in scaled) > 1e-5
    # a wrong combination still fails: M2 is not M1's half of A[2T]
    kernels = kernel_source(lam)
    wrong = check_decomposition("M1-A2T", kernels(*kernel_problem(const_fourth_op, "M2")),
                                kernels(*kernel_problem(const_fourth_op, "A2T")), m=41)
    assert not wrong.passed and wrong.residual > 1e5


def test_identity_bars_stay_put_for_kernels_within_one(quartic_weight_op):
    reports = run_identities(quartic_weight_op, 0.7, m=21)
    assert {r.tol for r in reports} == {DEFAULT_TOLERANCE, SELF_TOLERANCE}


def test_residual_shrinks_with_grid_and_tolerance(monkeypatch, quartic_weight_op):
    from greenbvp import integrate

    lam = 0.5
    op2 = extend_to_double(quartic_weight_op)

    def kernel(op, kind, tol):
        monkeypatch.setattr(integrate, "DEFAULT_TOL", tol)
        return GreensEvaluator(ProblemSpec(op, kind, lam), integrate_fundamental(op, lam))

    r_coarse = check_decomposition("N-P2T", kernel(quartic_weight_op, BCKind.NEUMANN, 1e-6),
                                   kernel(op2, BCKind.PERIODIC, 1e-6), m=21).residual
    r_fine = check_decomposition("N-P2T", kernel(quartic_weight_op, BCKind.NEUMANN, 1e-11),
                                 kernel(op2, BCKind.PERIODIC, 1e-11), m=41).residual
    assert r_fine <= 4 * r_coarse


def test_mixed_reflection_skips_only_resonance(monkeypatch, parabolic_weight_op):
    # a failure other than resonance must not become a passing skipped row
    from greenbvp import identities

    def broken(op):
        raise IntegrationError("budget")

    monkeypatch.setattr(identities, "reflect", broken)
    with pytest.raises(IntegrationError, match="budget"):
        run_identities(parabolic_weight_op, 1.5, tags=["mixed-reflection"])


def test_report_row_shape(quartic_kernels):
    row = check_decomposition("N-P2T", quartic_kernels["N"],
                              quartic_kernels["P2T"], m=21).to_row()
    assert set(row) >= {"tag", "lambda", "m", "residual", "location", "pass"}
    assert isinstance(row["location"], list) and len(row["location"]) == 2


def test_residual_symmetric_under_side_swap(quartic_kernels):
    # |base - combo| is symmetric in which side is called the reference
    base, big = quartic_kernels["N"], quartic_kernels["P2T"]
    ts = np.linspace(0, 2, 21)
    combo = big.eval_grid(ts, ts) + big.eval_grid(4.0 - ts, ts)
    direct = np.abs(base.eval_grid(ts, ts) - combo).max()
    swapped = np.abs(combo - base.eval_grid(ts, ts)).max()
    assert direct == swapped


def test_run_identities_integrates_each_operator_once(monkeypatch, quartic_weight_op):
    # op alone is integrated: its doubled and quadrupled extensions and its
    # reflection derive their fundamental systems from op's, and each system
    # is shared by all its kernels and grid factors
    from greenbvp import integrate

    calls = {"integrate": 0, "local_phi": 0}
    original = integrate._integrate
    local_phi = integrate.FundamentalSystem.local_phi

    def counted(*args, **kwargs):
        calls["integrate"] += 1
        return original(*args, **kwargs)

    def counted_local_phi(self, *args, **kwargs):
        calls["local_phi"] += 1
        return local_phi(self, *args, **kwargs)

    monkeypatch.setattr(integrate, "_integrate", counted)
    monkeypatch.setattr(integrate.FundamentalSystem, "local_phi", counted_local_phi)
    reports = run_identities(quartic_weight_op, 0.7, m=41)
    assert len(reports) == 24 and all(r.passed for r in reports)
    assert calls["integrate"] == 1
    # one local Phi per distinct point set of a system: t and T - t on op,
    # four sets on each extension and one on the reflection
    assert calls["local_phi"] <= 11


def test_run_identities_computes_each_grid_and_root_local_phi_once(monkeypatch,
                                                                  quartic_weight_op):
    # the checks read the same kernels at the same points again and again:
    # each kernel computes a grid key once, each root system a local Phi
    # point set once for itself and all its copies (extensions, reflection),
    # and the kernels of one system share its impulse states
    from greenbvp import greens, integrate

    kernels, grids, phi_requests, phi_computed = [], [], [], []
    init, evaluate = greens.GreensEvaluator.__init__, greens.GreensEvaluator._evaluate
    source, owners, shared = greens.GreensEvaluator._source, {}, []
    local_phi, compute_phi = integrate._Cells.local_phi, integrate._Cells._local_phi

    def counted_init(self, *args):
        kernels.append(self)
        init(self, *args)

    def counted_evaluate(self, ft, fsrc, component, s_order):
        grids.append((id(self), ft.pts.tobytes(), fsrc.pts.tobytes(), component, s_order))
        return evaluate(self, ft, fsrc, component, s_order)

    def counted_source(self, fsrc, s_order):
        # a hit of the system's impulse store returns the kept state itself
        key = (id(self.fs), fsrc.pts.tobytes(), s_order)
        kept = self.fs.memo.get("impulses", {}).get(key[1:])
        xs, Y = source(self, fsrc, s_order)
        if kept is None:
            owners.setdefault(key, self)
        elif owners[key] is not self:
            assert xs is kept
            shared.append(key)
        return xs, Y

    def phi_key(cells, seg, ts):
        return id(cells), seg.tobytes(), ts.tobytes()

    def counted_local_phi(self, seg, ts):
        phi_requests.append((self, phi_key(self, seg, ts)))
        return local_phi(self, seg, ts)

    def counted_compute_phi(self, seg, ts):
        phi_computed.append(phi_key(self, seg, ts))
        return compute_phi(self, seg, ts)

    monkeypatch.setattr(greens.GreensEvaluator, "__init__", counted_init)
    monkeypatch.setattr(greens.GreensEvaluator, "_evaluate", counted_evaluate)
    monkeypatch.setattr(greens.GreensEvaluator, "_source", counted_source)
    monkeypatch.setattr(integrate._Cells, "local_phi", counted_local_phi)
    monkeypatch.setattr(integrate._Cells, "_local_phi", counted_compute_phi)
    eval_grid_calls = []
    eval_grid = greens.GreensEvaluator.eval_grid
    monkeypatch.setattr(greens.GreensEvaluator, "eval_grid",
                        lambda self, *args: eval_grid_calls.append(1) or eval_grid(self, *args))
    reports = run_identities(quartic_weight_op, 0.7, m=101)
    assert len(reports) == 24 and all(r.passed for r in reports)
    assert len(grids) == len(set(grids)) < len(eval_grid_calls)
    distinct_phi = {key for _, key in phi_requests}
    assert len(phi_computed) == len(set(phi_computed)) == len(distinct_phi) < len(phi_requests)
    assert len(shared) > len({id(G.fs) for G in kernels})


def test_shared_stores_equal_a_fresh_store_free_source_per_check(monkeypatch, quartic_weight_op):
    # every row of run_identities, field for field, against its check run on
    # the kernels of a fresh kernel_source that keeps no grid, factor,
    # impulse state or local Phi
    from greenbvp import greens, integrate
    from greenbvp.identities import CONNECTING_TAGS, DECOMPOSITION_TAGS

    lam, m, op = 0.7, 101, quartic_weight_op
    reports = run_identities(op, lam, m=m)
    for module in (greens, integrate):
        monkeypatch.setattr(module, "_keep_last", lambda store, key, value, size: value)
    ref = reflect(op)

    def table(code):
        return kernel_problem(op, code)

    def fresh(*problems):
        kernels = kernel_source(lam)
        return [kernels(*problem) for problem in problems]

    oracle = [check_decomposition(tag, *fresh(table(base), table(big)), m)
              for tag, (base, big, _) in DECOMPOSITION_TAGS.items()]
    oracle += [check_connecting(tag, fresh(*(table(c) for c in pair)), *fresh(table(big)), m)
               for tag, (big, pair, _) in CONNECTING_TAGS.items()]
    oracle += [check_symmetry(*fresh(table(code)), m) for code in ("P2T", "A2T", "N2T", "D2T")]
    oracle += [check_mixed_reflection(*fresh(table("M1"), (ref, BCKind.MIXED2)), m),
               check_mixed_reflection(*fresh(table("M2"), (ref, BCKind.MIXED1)), m)]
    assert reports[-1].tag == "slope-one" and reports[-1].skipped
    assert reports[:-1] == oracle


@pytest.mark.parametrize("m", [1, 0, -3])
def test_grid_below_two_points_is_refused(quartic_weight_op, quartic_kernels, m):
    # one point would check every identity at (0, 0) alone; none would end
    # in a numpy reshape error
    with pytest.raises(ValueError, match="m must be at least 2"):
        run_identities(quartic_weight_op, 0.5, m=m)
    kernels = kernel_source(0.5)
    with pytest.raises(ValueError, match="m must be at least 2"):
        check_mixed_reflection(kernels(quartic_weight_op, BCKind.MIXED1),
                               kernels(reflect(quartic_weight_op), BCKind.MIXED2), m)
    with pytest.raises(ValueError, match="m must be at least 2"):
        check_decomposition("N-P2T", quartic_kernels["N"], quartic_kernels["P2T"], m)
