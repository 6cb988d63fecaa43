"""Exact arithmetic at the cut: the one sign at the supremum of U, and the
one search for members of the cut.  Both read the cut's shape,
``ModelDescriptor.cut``.

For a downward cut C with virtual supremum g, ``edge_sign`` gives the sign
of the virtual value (q-1)*g + c, also in the limit along c + delta*drift
as delta -> 0+ (dual numbers u + v*delta, compared by the sign of u, then
of v).  It is the only comparison against sup C in the package: an affine
map q*x + c with q > 0 maps C into itself exactly when the sign is <= 0,
and the Skolem obstruction reads the same sign.  ``cut_members`` walks the
points of C cofinally toward g; every witness search filters it, except
resistance's two searches in ``cutqe``: ``_march_down`` toward -infinity
and ``_descending_witness`` toward a piece's left end.  The
arithmetic is coordinate comparisons plus oracle refinement, so
everything here is exact and terminating.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .errors import MalformedModelError, SearchExhaustedError
from .models import (START_BITS, CutClass, DownwardCut, ModelDescriptor,
                     PlusInf, Point, u_member)

F0 = Fraction(0)
_SEARCH_LIMIT = 2000


def top_coset_rep(m: ModelDescriptor) -> Point:
    """Representative of the topmost stabilizer coset contained in a
    coset-topped cut (or the subgroup itself)."""
    if m.cut.cls not in (CutClass.SUBGROUP, CutClass.COSET_CUT):
        raise MalformedModelError("the cut has no topmost coset")
    prefix = m.cut.prefix
    return Point(prefix + (F0,) * (m.dim - len(prefix)))


# ---------------------------------------------------------------------------
# the sign at sup C, over dual coordinates u + v*delta (delta -> 0+)


Dual = tuple[Fraction, Fraction]


def _dual_sign(ds: Iterable[Dual]) -> int:
    """Lexicographic sign of a dual vector for every small delta > 0."""
    for u, v in ds:
        if u or v:
            x = u if u else v
            return 1 if x > 0 else -1
    return 0


def _duals(c: Point, drift: Optional[Point]) -> list[Dual]:
    if drift is None:
        return [(u, F0) for u in c.coords]
    return list(zip(c.coords, drift.coords))


def limit_sign(c: Point, drift: Point) -> int:
    """Lexicographic sign of c + delta*drift for every small delta > 0."""
    return _dual_sign(_duals(c, drift))


def _dual_u_member(m: ModelDescriptor, p: list[Dual]) -> bool:
    """Membership of base + delta*drift in the cut, for small delta > 0."""
    assert isinstance(m.u_interp, DownwardCut)
    for (u, v), entry in zip(p, m.u_interp.threshold):
        if isinstance(entry, PlusInf):
            return True
        if isinstance(entry, Fraction):
            s = _dual_sign([(u - entry, v)])
            if s:
                return s < 0
            continue
        return entry.compare(u) < 0  # u is rational, never equal to the value
    return not m.u_interp.strict


def edge_sign(m: ModelDescriptor, q: Fraction, c: Point,
              drift: Optional[Point] = None) -> int:
    """Limit sign of (q-1)*g + c + delta*drift as delta -> 0+, where
    g = sup C (C is U, or the downward closure of a subgroup U), read at
    the stabilizer scale; no drift means an exact point.

    0 means exactly at the edge: never for an irrational edge unless q = 1.
    x |-> q*x + c with q > 0 maps C into itself iff the sign is <= 0, and
    the sign of sup C - p is edge_sign(m, 2, -p).
    """
    cut = m.cut
    cs = _duals(c, drift)
    if cut.oracle is not None and q != 1:
        # (q-1)*g + c = (q-1)*(g - z) with z = c/(1-q) rational, so z != g
        z = [(u / (1 - q), v / (1 - q)) for u, v in cs]
        s = 1 if _dual_u_member(m, z) else -1
        return s if q > 1 else -s
    # g is rational at the stabilizer scale k, its coordinates the prefix
    # (none for a subgroup, and with q = 1 the shift is 0)
    p = cut.prefix
    cs = [((q - 1) * t + u, v) for t, (u, v) in zip(p, cs)] + cs[len(p):]
    return _dual_sign(cs[:cut.stabilizer])


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The smallest-denominator rational strictly between lo and hi."""
    if not lo < hi:
        raise ValueError("empty interval")
    if lo < 0 < hi:
        return Fraction(0)
    sign = 1
    if hi <= 0:
        sign, lo, hi = -1, -hi, -lo
    # 0 <= lo < hi: peel continued-fraction terms fl off lo and hi while
    # they agree, the rest of the interval being 1/(hi - fl), 1/(lo - fl)
    terms = []
    while True:
        fl = lo.numerator // lo.denominator
        if Fraction(fl + 1) < hi:
            q = Fraction(fl + 1)
            break
        if lo == fl:
            inv = Fraction(1) / (hi - fl)  # fl + 1/r, r just past 1/(hi-fl)
            q = fl + Fraction(1, inv.numerator // inv.denominator + 1)
            break
        terms.append(fl)
        lo, hi = Fraction(1) / (hi - fl), Fraction(1) / (lo - fl)
    for fl in reversed(terms):
        q = fl + 1 / q
    return sign * q


def points_below_cut(m: ModelDescriptor):
    """Yield points of C approaching sup C from below (cofinal in C)."""
    cut = m.cut
    last = Point.unit(m.dim, m.dim - 1)
    if cut.cls is CutClass.RATIONAL_CUT:
        theta = Point(cut.prefix)
        if not m.u_interp.strict:
            yield theta
        for t in range(_SEARCH_LIMIT):
            yield theta - last.scale(Fraction(1, 2 ** t))
        return
    if cut.oracle is None:  # climb the top coset, or the subgroup
        base = top_coset_rep(m)
        for t in range(_SEARCH_LIMIT):
            yield base + last.scale(2 ** t)
        return
    prefix, oracle = cut.prefix, cut.oracle
    j = len(prefix)
    bits = START_BITS
    prev: Optional[Fraction] = None
    for _ in range(_SEARCH_LIMIT):
        lo, _hi = oracle.refine(bits)
        bits *= 2
        if prev is not None and lo <= prev:
            continue
        q = simplest_between(lo - 1 if prev is None else prev, lo)
        prev = q
        coords = list(prefix) + [q] + [Fraction(0)] * (m.dim - j - 1)
        yield Point(tuple(coords))


def cut_members(m: ModelDescriptor, lo: Optional[Point] = None,
                hi: Optional[Point] = None) -> Iterator[Point]:
    """The points of points_below_cut that lie in C and in (lo, hi], in
    order; a missing bound is unbounded."""
    for a in points_below_cut(m):
        if lo is not None and not lo.lex_lt(a):
            continue
        if hi is not None and hi.lex_lt(a):
            continue
        if u_member(m, a):
            yield a


def escape_witness(m: ModelDescriptor, q: Fraction, c: Point,
                   lo: Optional[Point] = None,
                   hi: Optional[Point] = None) -> Point:
    """A point a in C with lo < a <= hi and q*a + c outside C; the caller
    guarantees existence (the affine image condition failed on a region
    whose closure reaches sup C)."""
    a = next((a for a in cut_members(m, lo, hi)
              if not u_member(m, a.scale(q) + c)), None)
    if a is None:
        raise SearchExhaustedError("no escape witness found; model data suspect")
    return a


def member_witness_above(m: ModelDescriptor, lo: Optional[Point]) -> Point:
    """Some a in C with a > lo (exists whenever C has points above lo)."""
    a = next(cut_members(m, lo), None)
    if a is None:
        raise SearchExhaustedError("no member above the given bound")
    return a
