"""Exact arithmetic at the cut: the one sign at the supremum of U, and the
one constructor of members of the cut near it.  Both read the cut's shape,
``ModelDescriptor.cut``.

For a downward cut C with virtual supremum g, ``edge_sign`` gives the sign
of the virtual value (q-1)*g + c, also in the limit along c + delta*drift
as delta -> 0+ (dual numbers u + v*delta, compared by the sign of u, then
of v).  At an irrational edge the sign is a membership in the cut, which
``models.u_member`` decides, with its drift for the limit.  It is the only
comparison against sup C in the package: an affine map q*x + c with q > 0
maps C into itself exactly when the sign is <= 0, and the Skolem
obstruction reads the same sign.  ``edge_gap`` bounds the size of that
value from below, and ``edge_member`` builds a member of C within a given
distance of g: every witness in the package (resistance, the falsifiers,
the stabilizer escapes, the Skolem obstruction) is one of its members, a
cell or piece end, or a closed form.  The arithmetic is coordinate
comparisons plus oracle refinement to the precision each call sets, so
everything here is exact and terminating.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .errors import (MalformedModelError, PrecisionBudgetError,
                     SearchExhaustedError)
from .models import (DEFAULT_PRECISION_BITS, START_BITS, CutClass,
                     ModelDescriptor, Point, u_member)

F0 = Fraction(0)


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
    if cut.oracle is not None and q != 1:
        # (q-1)*g + c = (q-1)*(g - z) with z = c/(1-q) rational, so z != g
        r = Fraction(1, 1 - q)
        s = 1 if u_member(m, c.scale(r), drift=None if drift is None
                          else drift.scale(r)) else -1
        return s if q > 1 else -s
    # g is rational at the stabilizer scale k, its coordinates the prefix
    # (none for a subgroup, and with q = 1 the shift is 0)
    p = cut.prefix
    cs = _duals(c, drift)
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


def edge_gap(m: ModelDescriptor, q: Fraction, c: Point) -> Optional[Fraction]:
    """A positive rational lower bound on |(q-1)*g + c| at the cut's
    deciding coordinate, the last one at the stabilizer scale, for
    g = sup C as in ``edge_sign``: the value itself when it is rational,
    and strictly below it otherwise.  None when the value is decided at an
    earlier coordinate or is 0 there.  An irrational g is refined until its
    bracket excludes the zero of the value, which a nonzero value makes
    finite, within the precision budget (``PrecisionBudgetError`` past
    it)."""
    cut = m.cut
    k = cut.stabilizer
    g = cut.prefix + (F0,) * (k - len(cut.prefix))  # the oracle's entry: 0
    lam = [(q - 1) * t + u for t, u in zip(g, c.coords)]
    if any(lam[:-1]):
        return None
    if cut.oracle is None or q == 1:  # the last entry is exact
        return abs(lam[-1]) or None
    z = c.coords[k - 1] / (1 - q)  # (q-1)*g_j + c_j = (q-1)*(g_j - z)
    cut.oracle.compare(z)
    lo, hi = cut.oracle.refine(START_BITS)  # the bracket compare kept
    return abs(q - 1) * (lo - z if z < lo else z - hi)


def edge_member(m: ModelDescriptor, lo: Optional[Point] = None,
                gap: Optional[Fraction] = None,
                budget: int = DEFAULT_PRECISION_BITS) -> Point:
    """A member a of C above lo (a missing bound is unbounded) with
    sup C - a below the positive rational gap at the deciding coordinate;
    no gap asks for any member.  The top coset of a coset-topped cut or of
    a subgroup is at distance 0; a rational edge is closed form; an
    irrational one is refined once, to a bracket narrower than gap/2, and
    the simplest rational below it within gap is taken; lo is placed
    against it.  Both stay within the precision budget of bits: a gap that
    needs more raises ``PrecisionBudgetError`` before any refinement, as
    does an lo that cannot be placed.  Raises ``SearchExhaustedError``
    only when no member of C lies above lo."""
    cut = m.cut
    k = cut.stabilizer
    if cut.cls in (CutClass.SUBGROUP, CutClass.COSET_CUT):
        a = top_coset_rep(m)
        if lo is not None and lo.coords[:k] == a.coords[:k]:
            return lo + Point.unit(m.dim, m.dim - 1)  # k < dim here
        if lo is not None and not lo.lex_lt(a):
            raise SearchExhaustedError("no member of the cut above the bound")
        return a
    j = k - 1  # the last coordinate of a rational cut, or the oracle's
    head = cut.prefix[:j]
    if lo is not None and lo.coords[:j] > head:
        raise SearchExhaustedError("no member of the cut above the bound")
    floor = lo.coords[j] if lo is not None and lo.coords[:j] == head else None
    if cut.oracle is None:
        low = high = cut.prefix[j]
    else:
        bits = START_BITS
        if gap is not None:  # 2**-bits < gap/2
            bits = max(bits, (2 * gap.denominator // gap.numerator).bit_length())
        if bits > budget:
            raise PrecisionBudgetError(
                f"a member within the gap needs {bits} bits of "
                f"{cut.oracle.tag}, past the budget of {budget}")
        if floor is not None:
            # keeps a bracket that excludes floor
            cut.oracle.compare(floor, budget)
        low, high = cut.oracle.refine(bits)
    if floor is not None and floor >= low:
        raise SearchExhaustedError("no member of the cut above the bound")
    bounds = [high - gap if gap is not None else low - 1]
    if floor is not None:
        bounds.append(floor)
    x = simplest_between(max(bounds), low)
    return Point(head + (x,) + (F0,) * (m.dim - k))


def escape_witness(m: ModelDescriptor, q: Fraction, c: Point,
                   lo: Optional[Point] = None) -> Point:
    """A point a in C above lo with q*a + c outside C, for q > 0 and
    edge_sign(m, q, c) > 0: a member nearer sup C than ((q-1)*g + c)/q."""
    gap = edge_gap(m, q, c)
    return edge_member(m, lo, None if gap is None else gap / q)
