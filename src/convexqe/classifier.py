"""Cut classification, stabilizer computation, pluslike translation tests,
monotone normalization, and cut canonicalization.

Everything here is decided with exact arithmetic: rational lexicographic
comparisons plus interval refinement of the provably irrational threshold
entries.  Limits of the form "for all sufficiently small positive epsilon"
are decided by ``cutarith.edge_sign`` over dual numbers (pairs u + v*delta
compared by the sign of u, then of v), which is exact because the
condition tested is monotone in epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .cutarith import (edge_gap, edge_member, edge_sign, escape_witness,
                       limit_sign, top_coset_rep)
from .errors import (NonvaluationalInterpretationError,
                     PreconditionViolatedError)
from .models import (DEFAULT_PRECISION_BITS, CutClass, DownwardCut,
                     ModelDescriptor, PlusInf, Point, SubgroupLevel,
                     rat_text, term_value, u_member)
from .piecewise import BinaryPiecewiseLinear, check_pluslike

F0 = Fraction(0)
F1 = Fraction(1)

RATIONAL_CUT = "rational"
IRRATIONAL_VALUATIONAL = "irrational-valuational"
IRRATIONAL_NONVALUATIONAL = "irrational-nonvaluational"


@dataclass(frozen=True)
class ClassificationReport:
    cut_kind: str
    epsilon_witness: Optional[Point]
    # falsifier(eps, budget=DEFAULT_PRECISION_BITS), within budget bits
    falsifier: Optional[Callable[..., Point]]
    stabilizer_level: int
    uniquely_realizable: bool

    def to_json(self, m: Optional[ModelDescriptor] = None) -> dict:
        out: dict = {"cut_kind": self.cut_kind,
                     "stabilizer_level": self.stabilizer_level,
                     "uniquely_realizable": self.uniquely_realizable,
                     "epsilon_witness": (None if self.epsilon_witness is None
                                         else [rat_text(c) for c in self.epsilon_witness.coords])}
        if self.falsifier is not None and m is not None:
            eps = Point.unit(m.dim, m.dim - 1)
            a = self.falsifier(eps)
            out["falsifier_demo"] = {"epsilon": [rat_text(c) for c in eps.coords],
                                     "inside": [rat_text(c) for c in a.coords],
                                     "escapes": [rat_text(c) for c in (a + eps).coords]}
        else:
            out["falsifier_demo"] = None
        return out


def _nonvaluational_falsifier(m: ModelDescriptor) -> Callable[..., Point]:
    """Given any eps > 0, produce a in C with a + eps outside C: a member
    within eps of the edge, or any member when eps is decided before the
    deciding coordinate, refining the edge within budget bits."""

    def falsify(eps: Point, budget: int = DEFAULT_PRECISION_BITS) -> Point:
        if eps.lex_sign() <= 0:
            raise PreconditionViolatedError("epsilon must be positive")
        return edge_member(m, gap=edge_gap(m, F1, eps), budget=budget)

    return falsify


def classify(m: ModelDescriptor) -> ClassificationReport:
    """Cut kind, valuational witness or falsifier, stabilizer level, and the
    unique-realizability label (subgroups classify via their downward
    closure)."""
    cls, k = m.cut.cls, m.cut.stabilizer
    if cls is CutClass.RATIONAL_CUT:
        return ClassificationReport(RATIONAL_CUT, None, None, k, False)
    if cls is CutClass.NONVALUATIONAL:
        return ClassificationReport(IRRATIONAL_NONVALUATIONAL, None,
                                    _nonvaluational_falsifier(m), k, True)
    eps = Point.unit(m.dim, k)  # first coordinate after the prefix
    return ClassificationReport(IRRATIONAL_VALUATIONAL, eps, None, k, False)


# ---------------------------------------------------------------------------
# stabilizer, computed independently of classify


def _virtual_entries(m: ModelDescriptor):
    if isinstance(m.u_interp, DownwardCut):
        return m.u_interp.threshold
    k = m.u_interp.level  # the closure cut of the subgroup
    return tuple([F0] * k + [PlusInf()] * (m.dim - k))


def _axis_stabilizes(m: ModelDescriptor, i: int) -> bool:
    """Does adding the i-th unit vector leave the cut's lower set fixed?
    Decided constructively from the threshold entries."""
    entries = _virtual_entries(m)
    for q in range(i):
        if not isinstance(entries[q], Fraction):
            return True  # comparison is always settled before coordinate i
    return isinstance(entries[i], PlusInf)


def stabilizer(m: ModelDescriptor) -> int:
    """Level k with I = {x : x_1 = ... = x_k = 0}: the last coordinate whose
    unit vector moves the cut."""
    level = 0
    for i in range(m.dim):
        if not _axis_stabilizes(m, i):
            level = i + 1
    return level


def stabilizer_escape(m: ModelDescriptor, i: int) -> Optional[tuple[Point, Point]]:
    """For a non-stabilizing axis, a concrete pair (a, a + e_i) with a in C
    and a + e_i outside C; None when the axis stabilizes."""
    if _axis_stabilizes(m, i):
        return None
    entries = _virtual_entries(m)
    prefix = [Fraction(e) for e in entries[:i]]  # all rational here
    e = entries[i]
    if isinstance(e, Fraction):
        a = Point(tuple(prefix + [e - Fraction(1, 2)] + [F0] * (m.dim - i - 1)))
    else:  # the cut's own irrational entry: a member within 1 of it
        a = edge_member(m, gap=F1)
    return a, a + Point.unit(m.dim, i)


# ---------------------------------------------------------------------------
# pluslike translation test


@dataclass(frozen=True)
class FValuationalResult:
    valuational: bool
    epsilon: Optional[Point] = None
    falsifier: Optional[Callable[[Point], Point]] = None


def _top_cell_index(m: ModelDescriptor, f: BinaryPiecewiseLinear,
                    eps_base: Point, eps_drift: Point) -> int:
    """Cell met by (a, eps) as a approaches sup C from below, with
    eps = base + delta*drift for small delta >= 0."""
    dx, dy = f.direction
    idx = 0
    for t in f.thresholds:
        # the cell boundary is dx*a + d = 0 with d = dy*eps - t*unit
        d = eps_base.scale(dy) - m.unit.scale(t)
        d_drift = eps_drift.scale(dy)
        if dx == 0:
            above = limit_sign(d, d_drift)
        else:
            # edge_sign(m, 2, d/dx) is the sign of sup C - (-d/dx): where
            # sup C sits against the boundary in a
            s = edge_sign(m, 2, d.scale(F1 / dx), d_drift.scale(F1 / dx))
            above = s if dx > 0 else -s
        # sup C on the boundary: the top coset of a valuational cut runs on
        # past it; a rational edge is met from below, or at itself when it
        # belongs to C
        if above == 0 and dx != 0:
            above = dx if m.cut.stabilizer < m.dim else (
                -dx if m.u_interp.strict else 0)
        if above > 0:
            idx += 1
    return idx


def _condition_at(m: ModelDescriptor, f: BinaryPiecewiseLinear,
                  eps_base: Point, eps_drift: Point) -> bool:
    """Does F(., eps) map C into C, with eps = base + delta*drift for small
    delta >= 0 (exact dual-number decision)?"""
    idx = _top_cell_index(m, f, eps_base, eps_drift)
    piece = f.pieces[idx]
    cbase = eps_base.scale(piece.coef_y) + term_value(m, piece.const, {})
    cdrift = eps_drift.scale(piece.coef_y)
    return edge_sign(m, piece.coef_x, cbase, cdrift) <= 0


def _epsilon_scale(m: ModelDescriptor, f: BinaryPiecewiseLinear) -> Fraction:
    """A delta > 0 at which eps = delta*e_n keeps every sign that
    _condition_at reads in the limit delta -> 0+: each cell boundary's
    against sup C, and the top piece's at sup C.  Only the last coordinate
    moves with delta, so only a sign decided there can change: at delta
    past its value's size over delta's coefficient."""
    if m.cut.stabilizer < m.dim:  # the signs are read before coordinate n
        return F1
    dx, dy = f.direction
    piece = f.pieces[_top_cell_index(m, f, Point.zero(m.dim),
                                     Point.unit(m.dim, m.dim - 1))]
    sizes = [(edge_gap(m, piece.coef_x, term_value(m, piece.const, {})),
              piece.coef_y)]
    for t in f.thresholds:
        if dx != 0:  # sup C - (t*unit - dy*eps)/dx
            sizes.append((edge_gap(m, 2, m.unit.scale(-t / dx)), dy / dx))
        elif m.dim == 1:  # dy*eps - t*unit, read whole
            sizes.append((abs(t) or None, dy))
    return min([F1] + [h / abs(v) / 2 for h, v in sizes
                       if h is not None and v != 0])


def f_valuational(m: ModelDescriptor, f: BinaryPiecewiseLinear) -> FValuationalResult:
    """Decide whether some eps > 0 satisfies: for all a in C, F(a, eps) in C.

    The condition is antitone in eps (F increases in its second argument and
    C is downward closed), so existence is equivalent to the limit condition
    along eps = delta * e_n as delta -> 0+, decided with dual numbers; a
    concrete witness is then read off the sizes of the signs involved.
    """
    rep = check_pluslike(f)
    if not rep.pluslike:
        raise PreconditionViolatedError(f"not pluslike: {rep.reason}")
    last = Point.unit(m.dim, m.dim - 1)
    zero = Point.zero(m.dim)
    if _condition_at(m, f, zero, last):
        eps = last.scale(_epsilon_scale(m, f))
        assert _condition_at(m, f, eps, zero), "epsilon left the limit cell"
        return FValuationalResult(True, epsilon=eps)

    def falsify(eps: Point) -> Point:
        if eps.lex_sign() <= 0:
            raise PreconditionViolatedError("epsilon must be positive")
        idx = _top_cell_index(m, f, eps, zero)
        piece = f.pieces[idx]
        q = piece.coef_x
        cval = eps.scale(piece.coef_y) + term_value(m, piece.const, {})
        dx, dy = f.direction
        # the cell's lower end in a; its upper end, if any, lies above C
        i = idx - 1 if dx > 0 else idx
        lo_pt = None
        if dx != 0 and 0 <= i < len(f.thresholds):
            lo_pt = (m.unit.scale(f.thresholds[i]) - eps.scale(dy)).scale(F1 / dx)
            # with dx < 0 the cell is closed at its lower end, which may
            # itself be the witness (F is continuous)
            if dx < 0 and u_member(m, lo_pt) \
                    and not u_member(m, lo_pt.scale(q) + cval):
                return lo_pt
        return escape_witness(m, q, cval, lo_pt)

    return FValuationalResult(False, falsifier=falsify)


# ---------------------------------------------------------------------------
# canonicalization toward a symmetric convex set


@dataclass(frozen=True)
class CanonicalCut:
    """Symmetric convex set V obtained by reflecting the cut to contain 0
    and intersecting with its own reflection, plus the transport record."""

    reflected: bool
    shift: Point  # kept for the record; always zero over these fixtures
    stabilizer_level: int
    edge_rep: Optional[Point]  # coset-scale edge of V, when it has one
    edge_included: Optional[bool]
    oracle_edge: Optional[str]  # tag of the irrational edge, when present

    def describe(self) -> dict:
        return {"reflected": self.reflected,
                "shift": [rat_text(c) for c in self.shift.coords],
                "stabilizer_level": self.stabilizer_level,
                "edge_rep": (None if self.edge_rep is None
                             else [rat_text(c) for c in self.edge_rep.coords]),
                "edge_included": self.edge_included,
                "oracle_edge": self.oracle_edge}


def canonical_member(m: ModelDescriptor, canon: CanonicalCut, p: Point) -> bool:
    """Membership in the symmetric set V, evaluated from the base model."""
    if isinstance(m.u_interp, SubgroupLevel):
        return u_member(m, p)

    def base(x: Point) -> bool:
        if canon.reflected:
            return not u_member(m, -x)
        return u_member(m, x)

    return base(p) and base(-p)


def canonicalize_cut(m: ModelDescriptor) -> CanonicalCut:
    """Reflect so 0 lies inside, record the (vacuous) positive shift, and
    symmetrize; the result is a symmetric convex set around 0 whose edge
    data is returned exactly."""
    cls, k = m.cut.cls, m.cut.stabilizer
    zero = Point.zero(m.dim)
    if cls is CutClass.SUBGROUP:
        return CanonicalCut(False, zero, k, zero, True, None)
    if cls in (CutClass.RATIONAL_CUT, CutClass.NONVALUATIONAL):
        raise NonvaluationalInterpretationError(
            "canonicalization targets valuational cuts")
    reflected = not u_member(m, zero)
    if cls is CutClass.COSET_CUT:
        rep = top_coset_rep(m)
        if reflected:
            return CanonicalCut(True, zero, k, -rep, False, None)
        return CanonicalCut(False, zero, k, rep, True, None)
    tag = m.cut.oracle.tag
    return CanonicalCut(reflected, zero, k, None, None,
                        ("-" + tag) if reflected else tag)

