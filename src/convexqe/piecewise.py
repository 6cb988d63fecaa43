"""Continuous piecewise-affine functions with exact rational breakpoints.

Unary functions have rational breakpoints (positions are multiples of the
unit element) and per-piece affine maps x -> slope*x + const, where const is
a variable-free term (a rational combination of the unit, e_in and e_out).
Binary functions are given by a parallel fan of cells: a rational direction
(dx, dy), sorted thresholds, and a per-cell affine map.  This covers every
binary shape the toolkit needs (a*x + b*y + c and H(x + y) compositions)
while keeping continuity and monotonicity checks exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import (ConstantPieceUnsupportedError, MalformedModelError,
                     PreconditionViolatedError)
from .models import (ModelDescriptor, Point, json_rational, rat_text,
                     term_value)
from .syntax import Term

ZERO = Fraction(0)
ONE = Fraction(1)


def _const_term(x) -> Term:
    if isinstance(x, Term):
        if x.vars():
            raise MalformedModelError("piece constants must be variable-free")
        return x
    return Term.const(Fraction(x))


@dataclass(frozen=True)
class AffinePiece:
    slope: Fraction
    const: Term

    @staticmethod
    def of(slope, const=0) -> "AffinePiece":
        return AffinePiece(Fraction(slope), _const_term(const))

    def value_term(self, at: Fraction) -> Term:
        """Formal value at a unit-scale position."""
        return Term.const(self.slope * at) + self.const


@dataclass(frozen=True)
class UnaryPiecewiseLinear:
    breakpoints: tuple[Fraction, ...]
    pieces: tuple[AffinePiece, ...]

    def __post_init__(self):
        if len(self.pieces) != len(self.breakpoints) + 1:
            raise MalformedModelError("need exactly one more piece than breakpoints")
        if any(b1 >= b2 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise MalformedModelError("breakpoints must be strictly increasing")

    @staticmethod
    def of(breakpoints, pieces) -> "UnaryPiecewiseLinear":
        bps = tuple(Fraction(b) for b in breakpoints)
        ps = tuple(p if isinstance(p, AffinePiece) else AffinePiece.of(*p)
                   for p in pieces)
        return UnaryPiecewiseLinear(bps, ps)

    @staticmethod
    def affine(slope, const=0) -> "UnaryPiecewiseLinear":
        return UnaryPiecewiseLinear((), (AffinePiece.of(slope, const),))

    def piece_index(self, m: ModelDescriptor, x: Point) -> int:
        # piece i covers (b_{i-1}, b_i]; the last piece is open on the right
        for i, b in enumerate(self.breakpoints):
            if not m.unit.scale(b).lex_lt(x):  # x <= b*unit
                return i
        return len(self.pieces) - 1

    def eval(self, m: ModelDescriptor, x: Point) -> Point:
        p = self.pieces[self.piece_index(m, x)]
        return x.scale(p.slope) + term_value(m, p.const, {})

    def continuity_defects(self) -> list[int]:
        """Boundary indices where the adjacent formal values disagree."""
        bad = []
        for i, b in enumerate(self.breakpoints):
            if not (self.pieces[i].value_term(b)
                    - self.pieces[i + 1].value_term(b)).is_zero:
                bad.append(i)
        return bad

    def require_continuous(self) -> None:
        if self.continuity_defects():
            raise PreconditionViolatedError("function is not continuous")

    def is_strictly_increasing(self) -> bool:
        return not self.continuity_defects() and all(p.slope > 0 for p in self.pieces)

    def canonical(self) -> "UnaryPiecewiseLinear":
        """Merge adjacent pieces that carry the same affine map."""
        bps: list[Fraction] = []
        ps: list[AffinePiece] = [self.pieces[0]]
        for b, p in zip(self.breakpoints, self.pieces[1:]):
            if p == ps[-1]:
                continue
            bps.append(b)
            ps.append(p)
        return UnaryPiecewiseLinear(tuple(bps), tuple(ps))


def normalize_monotone(g: UnaryPiecewiseLinear) -> UnaryPiecewiseLinear:
    """Right-to-left reflection cascade turning a continuous function whose
    final piece increases without bound into a strictly increasing one.

    At each boundary where the (already transformed) left piece decreases,
    the left part is replaced by its reflection 2*H(b) - H, which matches
    values at b and flips the slope sign; walking right to left keeps the
    segment to the right strictly increasing at every stage.
    """
    g.require_continuous()
    if any(p.slope == 0 for p in g.pieces):
        raise ConstantPieceUnsupportedError(
            "constant pieces cannot be reflected into a strictly increasing map")
    if g.pieces[-1].slope < 0:
        raise PreconditionViolatedError(
            "the final piece must increase without bound")

    sigma = ONE
    tau = Term()
    out: list[Optional[AffinePiece]] = [None] * len(g.pieces)
    out[-1] = g.pieces[-1]
    for i in range(len(g.breakpoints) - 1, -1, -1):
        b = g.breakpoints[i]
        left = g.pieces[i]
        if sigma * left.slope < 0:
            v = left.value_term(b)  # continuity: equals the right limit
            tau = v.scale(2 * sigma) + tau
            sigma = -sigma
        out[i] = AffinePiece(sigma * left.slope, left.const.scale(sigma) + tau)
    return UnaryPiecewiseLinear(g.breakpoints, tuple(out)).canonical()  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Binary piecewise-linear functions (parallel-fan cells)


@dataclass(frozen=True)
class BinaryPiece:
    coef_x: Fraction
    coef_y: Fraction
    const: Term

    @staticmethod
    def of(coef_x, coef_y, const=0) -> "BinaryPiece":
        return BinaryPiece(Fraction(coef_x), Fraction(coef_y), _const_term(const))


@dataclass(frozen=True)
class BinaryPiecewiseLinear:
    direction: tuple[Fraction, Fraction]
    thresholds: tuple[Fraction, ...]
    pieces: tuple[BinaryPiece, ...]

    def __post_init__(self):
        if self.direction == (0, 0):
            raise MalformedModelError("cell direction must be nonzero")
        if len(self.pieces) != len(self.thresholds) + 1:
            raise MalformedModelError("need exactly one more piece than thresholds")
        if any(t1 >= t2 for t1, t2 in zip(self.thresholds, self.thresholds[1:])):
            raise MalformedModelError("thresholds must be strictly increasing")

    @staticmethod
    def affine(coef_x, coef_y, const=0) -> "BinaryPiecewiseLinear":
        return BinaryPiecewiseLinear((ONE, ONE), (),
                                     (BinaryPiece.of(coef_x, coef_y, const),))

    def cell_index(self, m: ModelDescriptor, x: Point, y: Point) -> int:
        dx, dy = self.direction
        d = x.scale(dx) + y.scale(dy)
        for i, t in enumerate(self.thresholds):
            if not m.unit.scale(t).lex_lt(d):  # d <= t*unit
                return i
        return len(self.pieces) - 1

    def eval(self, m: ModelDescriptor, x: Point, y: Point) -> Point:
        p = self.pieces[self.cell_index(m, x, y)]
        return (x.scale(p.coef_x) + y.scale(p.coef_y)
                + term_value(m, p.const, {}))


@dataclass(frozen=True)
class PluslikeReport:
    pluslike: bool
    reason: Optional[str] = None
    witness: Optional[tuple] = None  # offending pair/boundary data


def check_pluslike(f: BinaryPiecewiseLinear) -> PluslikeReport:
    """Continuity across cell boundaries plus strict monotonicity in each
    argument, all checked with exact arithmetic."""
    dx, dy = f.direction
    for i, t in enumerate(f.thresholds):
        p, q = f.pieces[i], f.pieces[i + 1]
        da, db = p.coef_x - q.coef_x, p.coef_y - q.coef_y
        dc = p.const - q.const
        # the difference map must vanish on the line dx*x + dy*y = t*unit
        parallel = da * dy == db * dx
        if dx != 0:
            match = (dc + Term.const(da * t / dx)).is_zero
        else:
            match = (dc + Term.const(db * t / dy)).is_zero
        if not (parallel and match):
            return PluslikeReport(False, "discontinuous across a cell boundary",
                                  witness=(i, t))
    for i, p in enumerate(f.pieces):
        if p.coef_x <= 0:
            return PluslikeReport(False, "not strictly increasing in the first argument",
                                  witness=_flat_pair(f, i, first_arg=True))
        if p.coef_y <= 0:
            return PluslikeReport(False, "not strictly increasing in the second argument",
                                  witness=_flat_pair(f, i, first_arg=False))
    return PluslikeReport(True)


def _flat_pair(f: BinaryPiecewiseLinear, i: int, first_arg: bool):
    """Two rational argument pairs inside cell i, differing in one argument,
    on which the piece fails to increase."""
    dx, dy = f.direction
    ts = f.thresholds
    if not ts:
        eta, width = ZERO, None
    elif i == 0:
        eta, width = ts[0] - 1, Fraction(2)
    elif i == len(f.pieces) - 1:
        eta, width = ts[-1] + 1, Fraction(2)
    else:
        eta, width = (ts[i - 1] + ts[i]) / 2, ts[i] - ts[i - 1]
    if dx != 0:
        x0, y0 = eta / dx, ZERO
    else:
        x0, y0 = ZERO, eta / dy
    moving = dx if first_arg else dy
    if moving != 0 and width is not None:
        step = width / (4 * abs(moving))
    else:
        step = ONE
    if first_arg:
        return ((x0, y0), (x0 + step, y0))
    return ((x0, y0), (x0, y0 + step))


def pluslike_from_unary(h: UnaryPiecewiseLinear) -> BinaryPiecewiseLinear:
    """F(x, y) := H(x + y); pluslike whenever H is strictly increasing."""
    if not h.is_strictly_increasing():
        raise PreconditionViolatedError("H must be strictly increasing and continuous")
    pieces = tuple(BinaryPiece(p.slope, p.slope, p.const) for p in h.pieces)
    return BinaryPiecewiseLinear((ONE, ONE), h.breakpoints, pieces)


# ---------------------------------------------------------------------------
# JSON serialization


def _piece_const_to_json(t: Term) -> dict:
    out = {"intercept": rat_text(t.offset)}
    if t.e_in:
        out["e_in"] = rat_text(t.e_in)
    if t.e_out:
        out["e_out"] = rat_text(t.e_out)
    return out


def _piece_const_from_json(d: dict) -> Term:
    return Term((), e_in=json_rational(d.get("e_in", 0)),
                e_out=json_rational(d.get("e_out", 0)),
                offset=json_rational(d.get("intercept", 0)))


def unary_to_json(f: UnaryPiecewiseLinear) -> dict:
    return {"breakpoints": [rat_text(b) for b in f.breakpoints],
            "pieces": [{"slope": rat_text(p.slope), **_piece_const_to_json(p.const)}
                       for p in f.pieces]}


def unary_from_json(d: dict) -> UnaryPiecewiseLinear:
    try:
        bps = tuple(json_rational(b) for b in d["breakpoints"])
        pieces = tuple(AffinePiece(json_rational(p["slope"]),
                                   _piece_const_from_json(p))
                       for p in d["pieces"])
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise MalformedModelError(f"bad piecewise function: {exc}") from exc
    return UnaryPiecewiseLinear(bps, pieces)


def binary_from_json(d: dict) -> BinaryPiecewiseLinear:
    try:
        direction = (json_rational(d["direction"][0]),
                     json_rational(d["direction"][1]))
        ts = tuple(json_rational(t) for t in d["thresholds"])
        pieces = tuple(BinaryPiece(json_rational(p["coef_x"]),
                                   json_rational(p["coef_y"]),
                                   _piece_const_from_json(p)) for p in d["pieces"])
    except (KeyError, ValueError, TypeError, IndexError,
            ZeroDivisionError) as exc:
        raise MalformedModelError(f"bad piecewise function: {exc}") from exc
    return BinaryPiecewiseLinear(direction, ts, pieces)


def fn_from_json(d: dict) -> Union[UnaryPiecewiseLinear, BinaryPiecewiseLinear]:
    if isinstance(d, dict) and d.get("arity", 1) == 2:
        return binary_from_json(d)
    return unary_from_json(d)
