import numpy as np
import pytest

from greenbvp import LinearOperator, extend_to_double, extend_to_quadruple, reflect
from greenbvp.operators import coeff_values, mirror_of


def coeff_value(op, k, t):
    return coeff_values(op, k, np.array([t]))[0]


def test_double_extension_of_symmetric_quartic(quartic_weight_op):
    # (t-2)^4 on [0,2] is already symmetric about t=2, so the even extension
    # continues the same formula on [0,4]
    ext = extend_to_double(quartic_weight_op)
    assert ext.length == 4.0
    for t in np.linspace(0, 4, 17):
        assert coeff_value(ext, 0, t) == pytest.approx((t - 2) ** 4, abs=1e-14)


def test_double_extension_of_parabolic(parabolic_weight_op):
    ext = extend_to_double(parabolic_weight_op)
    assert ext.length == 3.0
    for t in np.linspace(0, 3, 13):
        assert coeff_value(ext, 0, t) == pytest.approx(t * (t - 3), abs=1e-13)


def test_odd_extension_of_constant_flips_sign():
    op = LinearOperator.from_exprs(1, 1.0, ["0", "5"])
    ext = extend_to_double(op)
    assert coeff_value(ext, 1, 0.5) == pytest.approx(5.0)
    assert coeff_value(ext, 1, 1.5) == pytest.approx(-5.0)


def test_quadruple_extension_odd_coefficient_pattern():
    # odd extension twice: quarters carry (c, -c, c, -c)
    op = LinearOperator.from_exprs(1, 1.0, ["0", "3"])
    ext = extend_to_quadruple(op)
    assert ext.length == 4.0
    quarters = [0.5, 1.5, 2.5, 3.5]
    values = [coeff_value(ext, 1, t) for t in quarters]
    assert values == pytest.approx([3.0, -3.0, 3.0, -3.0])


def test_quadruple_extension_even_pointwise(quartic_weight_op):
    ext = extend_to_quadruple(quartic_weight_op)
    assert ext.length == 8.0
    # mirror about t=4: value at 5 equals value at 3
    assert coeff_value(ext, 0, 5.0) == pytest.approx(coeff_value(ext, 0, 3.0))
    assert coeff_value(ext, 0, 5.0) == pytest.approx(1.0)


def test_double_extension_restriction_is_exact(parabolic_weight_op):
    ext = extend_to_double(parabolic_weight_op)
    ts = np.linspace(0, 1.5, 23)
    for k in range(4):
        for t in ts:
            assert coeff_value(ext, k, t) == coeff_value(parabolic_weight_op, k, t)


def test_extension_symmetry_property():
    # even-index coefficients satisfy a(t) = a(2T - t); odd-index ones flip
    op = LinearOperator.from_exprs(2, 1.0, ["t^2+1", "t", "sin(t)", "2"])
    ext = extend_to_double(op)
    ts = np.linspace(0, 2, 41)
    # odd extensions are two-valued at the seam t = T and at the endpoints
    keep = (np.abs(ts - 1.0) > 1e-9) & (ts > 1e-9) & (ts < 2.0 - 1e-9)
    for k in range(4):
        vals = np.array([coeff_value(ext, k, t) for t in ts[keep]])
        mirrored = np.array([coeff_value(ext, k, 2.0 - t) for t in ts[keep]])
        sign = 1.0 if k % 2 == 0 else -1.0
        assert vals == pytest.approx(sign * mirrored, abs=1e-12)


def test_reflect_examples():
    op = LinearOperator.from_exprs(1, 1.0, ["t", "4"])
    ref = reflect(op)
    for t in np.linspace(0, 1, 9):
        assert coeff_value(ref, 0, t) == pytest.approx(1.0 - t)
        assert coeff_value(ref, 1, t) == pytest.approx(-4.0)


def test_reflect_is_an_involution(parabolic_weight_op):
    twice = reflect(reflect(parabolic_weight_op))
    ts = np.linspace(0, 1.5, 31)
    for k in range(4):
        for t in ts:
            assert coeff_value(twice, k, t) == pytest.approx(
                coeff_value(parabolic_weight_op, k, t), abs=1e-14)


def test_coeff_value_examples(quartic_weight_op):
    ext = extend_to_double(quartic_weight_op)
    assert coeff_value(ext, 0, 4.0) == pytest.approx(16.0)
    odd = extend_to_double(LinearOperator.from_exprs(1, 1.0, ["0", "1"]))
    assert coeff_value(odd, 1, 1.5) == pytest.approx(-1.0)


def test_operator_validation():
    with pytest.raises(ValueError):
        LinearOperator.from_exprs(2, 1.0, ["0", "0"])  # wrong count
    with pytest.raises(ValueError):
        LinearOperator.from_exprs(1, -1.0, ["0", "0"])
    with pytest.raises(ValueError):
        LinearOperator.from_exprs(0, 1.0, [])


def test_coefficients_must_not_use_lambda():
    # lambda enters only as the problem's shift of a_0
    with pytest.raises(ValueError, match="lambda"):
        LinearOperator.from_exprs(2, 1.0, ["lambda*t", "0", "0", "0"])


def test_breakpoints_multiples_of_base(parabolic_weight_op):
    ext = extend_to_quadruple(parabolic_weight_op)
    assert np.allclose(ext.breakpoints(), [0.0, 1.5, 3.0, 4.5, 6.0])


def test_operator_hash_is_computed_once(monkeypatch):
    # operators key every kernel lookup; the field hash walks every expression
    # tree, so it runs once per operator, and equal operators still hash equal.
    # Each base is fresh: an extension is kept on its base, with its hash
    import pickle

    from greenbvp.operators import CoeffSegment

    def fresh():
        return LinearOperator.from_exprs(2, 2.0, ["(t-2)^4", "0", "0", "0"])

    op = extend_to_quadruple(fresh())
    calls = []
    segment_hash = CoeffSegment.__hash__
    monkeypatch.setattr(CoeffSegment, "__hash__",
                        lambda self: calls.append(1) or segment_hash(self))
    first = hash(op)
    assert calls
    calls.clear()
    assert all(hash(op) == first for _ in range(5)) and not calls
    twin = extend_to_quadruple(fresh())
    assert twin == op and hash(twin) == first
    restored = pickle.loads(pickle.dumps(op))
    assert restored == op and hash(restored) == first


def test_derived_operators_are_made_once_per_operator():
    # the doubled extension and the reflection are kept on the operator they
    # come from, outside its fields: asking again returns the same object,
    # and a pickle carries the fields alone (no hash, plan or derived operator)
    import pickle

    from greenbvp import integrate_fundamental

    op = LinearOperator.from_exprs(2, 2.0, ["(t-2)^4", "0", "0", "0"])
    double, reflected = extend_to_double(op), reflect(op)
    assert extend_to_double(op) is double and reflect(op) is reflected
    assert extend_to_quadruple(op) is extend_to_double(double)
    hash(op)
    integrate_fundamental(op)
    restored = pickle.loads(pickle.dumps(op))
    assert set(restored.__dict__) == {"n", "length", "coeffs"}
    assert extend_to_double(restored) == double and extend_to_double(restored) is not double


def test_extensions_note_their_base_outside_equality_and_pickles(quartic_weight_op):
    # extend_to_double and reflect note their root operator and the copies
    # (mirrored, origin) of its interval that they lay out, composed through
    # every step; an equal operator built from the fields has no note and
    # still compares and hashes equal, and a pickle drops the note
    import pickle

    root = quartic_weight_op
    assert mirror_of(root) is None
    for op, copies in [(extend_to_double(root), ((False, 0.0), (True, 4.0))),
                       (extend_to_quadruple(root),
                        ((False, 0.0), (True, 4.0), (False, 4.0), (True, 8.0))),
                       (reflect(root), ((True, 2.0),)),
                       (extend_to_double(reflect(root)), ((True, 2.0), (False, 2.0))),
                       (reflect(extend_to_double(root)), ((False, 0.0), (True, 4.0)))]:
        assert mirror_of(op) == (root, copies)
        for twin in (LinearOperator(op.n, op.length, op.coeffs),
                     pickle.loads(pickle.dumps(op))):
            assert mirror_of(twin) is None
            assert twin == op and hash(twin) == hash(op)
