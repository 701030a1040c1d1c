"""Even-order linear differential operators with piecewise coefficients.

An operator of order ``2n`` is ``u^(2n) + a_{2n-1} u^(2n-1) + ... + a_0 u``
on ``[0, L]`` with unit leading coefficient.  Coefficients are stored as
piecewise segments whose evaluation maps are affine in ``t``, so the even and
odd reflection extensions (to the doubled and quadrupled intervals) and the
coefficient reflection are represented exactly rather than resampled, and
note the copies of their root operator's interval they are made of.
Breakpoints between segments fall on multiples of the base interval length,
and integrators must treat them as hard boundaries: odd extensions of
nonvanishing coefficients jump there.  Coefficients are functions of ``t``
only: the spectral parameter enters solely as the problem's shift of
``a_0`` (``ProblemSpec.lam``), so an expression that uses ``lambda`` is
refused.

An operator is immutable, so what it derives without lambda is made once
and kept on the object (noted): its hash, its doubled extension and its
reflection, the note of the copies of its root operator's interval that
a derived operator is made of (mirror_of), and the integration plan
(integrate._plan).  None of it is a field, so equality, hashing and
pickles ignore it, and nothing that depends on lambda is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .expressions import ExprAst, compile_expr, parse_expression, uses_lambda, uses_t

__all__ = [
    "CoeffSegment",
    "LinearOperator",
    "extend_to_double",
    "extend_to_quadruple",
    "reflect",
]


@dataclass(frozen=True)
class CoeffSegment:
    """One piece of a coefficient: value(t) = sign * expr(shift + scale*t)."""

    lo: float
    hi: float
    expr: ExprAst
    shift: float = 0.0
    scale: float = 1.0
    sign: float = 1.0

    def evaluate(self, t):
        f = compile_expr(self.expr)
        with np.errstate(all="ignore"):  # nan and inf are refused by finiteness checks
            return self.sign * f(self.shift + self.scale * np.asarray(t, dtype=float), 0.0)

    def mapped(self, about: float, flip_sign: bool) -> "CoeffSegment":
        """Segment for the reflection t -> about - t, on [about - hi, about - lo]."""
        return CoeffSegment(lo=about - self.hi, hi=about - self.lo, expr=self.expr,
                            shift=self.shift + self.scale * about, scale=-self.scale,
                            sign=-self.sign if flip_sign else self.sign)

    def is_constant(self) -> bool:
        return not uses_t(self.expr)


@dataclass(frozen=True)
class LinearOperator:
    """Operator u^(2n) + sum a_k u^(k) on [0, length]."""

    n: int
    length: float
    coeffs: tuple[tuple[CoeffSegment, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("half-order n must be a positive integer")
        if not self.length > 0:
            raise ValueError("interval length must be positive")
        if len(self.coeffs) != 2 * self.n:
            raise ValueError(f"expected {2 * self.n} coefficients, got {len(self.coeffs)}")
        for k, segs in enumerate(self.coeffs):
            cursor = 0.0
            for seg in segs:
                if not math.isclose(seg.lo, cursor, abs_tol=1e-12 * max(1.0, self.length)):
                    raise ValueError(f"coefficient {k}: segments do not partition the interval")
                cursor = seg.hi
                if uses_lambda(seg.expr):
                    raise ValueError(f"coefficient {k}: uses 'lambda'; the spectral parameter "
                                     "is the problem's shift of a_0, not part of a coefficient")
                try:
                    vals = seg.evaluate(np.linspace(seg.lo, seg.hi, 9))
                except ZeroDivisionError:  # a constant divided by zero
                    vals = np.nan
                if not np.all(np.isfinite(vals)):
                    raise ValueError(f"coefficient {k}: non-finite values on [{seg.lo}, {seg.hi}]")
            if not math.isclose(cursor, self.length, abs_tol=1e-12 * max(1.0, self.length)):
                raise ValueError(f"coefficient {k}: segments stop at {cursor}, not {self.length}")

    def __hash__(self) -> int:
        # the field hash walks every coefficient's expression tree, and operators
        # key every kernel lookup (greens.kernel_source)
        return noted(self, "_hash", lambda: hash((self.n, self.length, self.coeffs)))

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_exprs(cls, n: int, length: float, coeffs) -> "LinearOperator":
        """Build from 2n expression strings or ASTs, lowest order (a_0) first,
        each covering the whole interval."""
        length = float(length)
        segs = tuple((CoeffSegment(0.0, length, parse_expression(c) if isinstance(c, str) else c),)
                     for c in coeffs)
        return cls(n=n, length=length, coeffs=segs)

    @property
    def order(self) -> int:
        return 2 * self.n

    def breakpoints(self) -> np.ndarray:
        """Sorted union of all segment boundaries, including 0 and length."""
        pts = {0.0, self.length}
        for segs in self.coeffs:
            for seg in segs:
                pts.add(seg.lo)
                pts.add(seg.hi)
        return np.array(sorted(pts))

    def coeff_segment_at(self, k: int, t: float) -> CoeffSegment:
        segs = self.coeffs[k]
        for seg in segs[:-1]:
            if t < seg.hi:
                return seg
        return segs[-1]

    def is_t_constant_on(self, lo: float, hi: float) -> bool:
        """True when every coefficient is constant in t throughout [lo, hi]."""
        mid = 0.5 * (lo + hi)
        return all(self.coeff_segment_at(k, mid).is_constant() for k in range(self.order))


def extend_to_double(op: LinearOperator) -> LinearOperator:
    """Extend to [0, 2L]: even-index coefficients reflect evenly about L,
    odd-index ones oddly (value -a(2L - t) on the new half)."""
    return noted(op, "_double", lambda: _mirror(op, 2 * op.length, True))


def extend_to_quadruple(op: LinearOperator) -> LinearOperator:
    """Two successive doublings, yielding the operator on [0, 4L]."""
    return extend_to_double(extend_to_double(op))


def reflect(op: LinearOperator) -> LinearOperator:
    """Coefficient reflection: a_k(t) becomes (-1)^k a_k(L - t)."""
    return noted(op, "_reflected", lambda: _mirror(op, op.length, False))


def _mirror(op: LinearOperator, about: float, keep: bool) -> LinearOperator:
    """The operator on [0, about] with coefficients (-1)^k a_k(about - t), after
    op's own where keep (about = 2L), noted as copies (mirrored, origin) of
    its root's interval: a copy holds the root's coefficients at t - origin,
    or (-1)^k times them at origin - t.  Reflection flips each copy, maps its
    origin to about - origin and reverses their order, so 4L is ((F, 0),
    (T, 2L), (F, 2L), (T, 4L)).  The note is not a field: equality and
    hashing ignore it, and pickles drop it (integrate.mirror_fundamental)."""
    coeffs = tuple((segs if keep else ()) + tuple(seg.mapped(about, k % 2 == 1)
                                                  for seg in reversed(segs))
                   for k, segs in enumerate(op.coeffs))
    root, copies = mirror_of(op) or (op, ((False, 0.0),))
    mirrored = tuple((not flag, about - origin) for flag, origin in reversed(copies))
    out = LinearOperator(n=op.n, length=about, coeffs=coeffs)
    out.__dict__["_mirror"] = (root, (copies if keep else ()) + mirrored)
    return out


def noted(op: LinearOperator, name: str, make):
    """op's lambda-free value name, made by make() on first use and kept on
    op outside its fields, so equality, hashing and pickles ignore it."""
    try:
        return op.__dict__[name]
    except KeyError:
        value = op.__dict__[name] = make()
        return value


def mirror_of(op: LinearOperator) -> tuple | None:
    """(root, copies) of an operator made by extend_to_double or reflect,
    else None (see _mirror)."""
    return op.__dict__.get("_mirror")


def coeff_values(op: LinearOperator, k: int, ts: np.ndarray) -> np.ndarray:
    """Vectorized coefficient sampling (t values may span several segments)."""
    ts = np.asarray(ts, dtype=float)
    out = np.empty_like(ts)
    segs = op.coeffs[k]
    bounds = np.array([seg.hi for seg in segs[:-1]])
    idx = np.searchsorted(bounds, ts, side="right")
    for i, seg in enumerate(segs):
        mask = idx == i
        if np.any(mask):
            out[mask] = seg.evaluate(ts[mask])
    return out
