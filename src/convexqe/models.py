"""Concrete computable models: lexicographic powers of the rationals with a
convex predicate, plus exact evaluation.

A model is the group (Q^n, +, <_lex) with U interpreted either as the convex
subgroup {x : x_1 = ... = x_k = 0} or as a downward cut against a threshold
whose entries are exact rationals, provably irrational constants (pi or
sqrt of a non-square rational) behind refinable interval oracles, or +inf.
The stabilizer predicate I always denotes {eps : eps + U-cut = U-cut}.
What kind of cut U is, ``ModelDescriptor.cut``, is read off the
interpretation here once; every other module takes it from there.
``u_member`` is the one walk of a point against U's threshold, entry by
entry; with a drift it decides p + delta*drift for every small delta > 0,
which is how ``cutarith`` reads the limit at the cut's supremum.
``read_json`` is the one reader of JSON files, for models here and for
every file the CLI takes.

Quantifier-free formulas are evaluated two ways.  ``eval_formula`` folds
the formula with exact Point arithmetic and is the reference.
``compile_formula`` compiles formulas once, as they stand, one root each,
into one jump table of ``closures`` for the per-assignment loops;
``IntCompiledFormula`` is one such root at a fixed denominator.  Each atom
is lowered once, to the integer rows of its term and the sign and tail
that decide it (``_lower_atom``), and ``closures`` reads that spec at one
point (``holds``) and at many assignments at once (``block_holds``).  An
irrational edge is decided by integer comparison against the oracle's
``bracket``, and by ``compare`` only inside it.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import _RATIONAL_FORMAT, Fraction
from operator import eq, le, lt, ne
from typing import Mapping, Optional, Union

from .closures import AtDenominator, Evaluator, Lowering
from .errors import ConvexQEError, MalformedModelError, PrecisionBudgetError
from .normalform import normalize_atoms
from .parser import _read_int
from .syntax import (And, Atom, AtomF, AtomKind, FalseF, Formula, Not,
                     Or, Term, TrueF, _rat_text, fold, is_quantifier_free)

DEFAULT_PRECISION_BITS = 4096
START_BITS = 16


# ---------------------------------------------------------------------------
# Points


@dataclass(frozen=True)
class Point:
    coords: tuple[Fraction, ...]

    @staticmethod
    def of(*vals) -> "Point":
        return Point(tuple(Fraction(v) for v in vals))

    @staticmethod
    def zero(dim: int) -> "Point":
        return Point((Fraction(0),) * dim)

    @staticmethod
    def unit(dim: int, axis: int = 0) -> "Point":
        coords = [Fraction(0)] * dim
        coords[axis] = Fraction(1)
        return Point(tuple(coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __add__(self, other: "Point") -> "Point":
        return Point(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Point") -> "Point":
        return Point(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Point":
        return Point(tuple(-a for a in self.coords))

    def scale(self, q) -> "Point":
        q = Fraction(q)
        return Point(tuple(a * q for a in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def lex_sign(self) -> int:
        for c in self.coords:
            if c != 0:
                return 1 if c > 0 else -1
        return 0

    def lex_lt(self, other: "Point") -> bool:
        return (self - other).lex_sign() < 0

    def __str__(self) -> str:
        return "(" + ", ".join(rat_text(c) for c in self.coords) + ")"


# ---------------------------------------------------------------------------
# Irrational interval oracles


class IrrationalOracle:
    """Refinable rational interval around a provably irrational constant.

    Refinement is memoized; intervals are nested and shrink below 2^-bits.
    """

    def __init__(self, tag: str):
        self.tag = tag
        self._lock = threading.Lock()
        self._best: Optional[tuple[int, Fraction, Fraction]] = None
        self._bracket: Optional[tuple[int, int, int]] = None

    def refine(self, bits: int) -> tuple[Fraction, Fraction]:
        with self._lock:
            if self._best is not None and self._best[0] >= bits:
                return self._best[1], self._best[2]
            lo, hi = self._compute(bits)
            if self._best is not None:
                lo = max(lo, self._best[1])
                hi = min(hi, self._best[2])
            self._best = (bits, lo, hi)
            return lo, hi

    def _compute(self, bits: int) -> tuple[Fraction, Fraction]:
        raise NotImplementedError

    def bracket(self) -> tuple[int, int, int]:
        """(lo, hi, bits), integers with lo / 2**bits < value < hi / 2**bits,
        from the first refinement: a rational outside it is placed by two
        integer comparisons, and ``compare`` is needed only inside it."""
        if self._bracket is None:
            lo, hi = self.refine(START_BITS)
            self._bracket = ((lo.numerator << START_BITS) // lo.denominator,
                             -((-hi.numerator << START_BITS)
                               // hi.denominator), START_BITS)
        return self._bracket

    def compare(self, q: Fraction, budget: int = DEFAULT_PRECISION_BITS) -> int:
        """Sign of q - value; terminates because the value is irrational."""
        bits = START_BITS
        while bits <= budget:
            lo, hi = self.refine(bits)
            if q < lo:
                return -1
            if q > hi:
                return 1
            bits *= 2
        # q is described, not printed: it may have more digits than str()
        # converts
        raise PrecisionBudgetError(
            f"could not separate a rational ({q.numerator.bit_length()}-bit "
            f"numerator, {q.denominator.bit_length()}-bit denominator) from "
            f"{self.tag} within {budget} bits")

    def __eq__(self, other):
        return isinstance(other, IrrationalOracle) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return f"IrrationalOracle({self.tag})"


class PiOracle(IrrationalOracle):
    """pi via Machin's formula with alternating-series tail bounds."""

    def __init__(self):
        super().__init__("pi")

    @staticmethod
    def _arctan_inv(x: int, terms: int) -> tuple[Fraction, Fraction]:
        # arctan(1/x) partial sums; alternating, decreasing, so consecutive
        # partial sums bracket the value.  The first n terms sum to
        # N_n / (L * x^(2n-1)), L = lcm(1, 3, ..., 2*terms - 1), with
        # N_(k+1) = N_k * x^2 + (-1)^k * L / (2k+1) by Horner's rule: the
        # sums stay integers, and each bound is reduced once.
        lcm = math.lcm(*range(1, 2 * terms, 2))
        y = x * x
        prev = n = 0
        for k in range(terms):
            prev, n = n, n * y + (-1) ** k * (lcm // (2 * k + 1))
        den = lcm * x ** (2 * terms - 1)
        s, prev = Fraction(n, den), Fraction(prev * y, den)
        return (s, prev) if s < prev else (prev, s)

    def _compute(self, bits: int) -> tuple[Fraction, Fraction]:
        terms = max(4, bits // 4 + 4)
        lo5, hi5 = self._arctan_inv(5, terms)
        lo239, hi239 = self._arctan_inv(239, terms)
        lo = 16 * lo5 - 4 * hi239
        hi = 16 * hi5 - 4 * lo239
        return lo, hi


class SqrtOracle(IrrationalOracle):
    """sqrt(q) for a positive non-square rational q, via integer isqrt."""

    def __init__(self, q: Fraction):
        q = Fraction(q)
        if q <= 0:
            raise MalformedModelError("sqrt oracle needs a positive rational")
        a, b = q.numerator, q.denominator
        ra, rb = math.isqrt(a), math.isqrt(b)
        if ra * ra == a and rb * rb == b:
            raise MalformedModelError(
                f"sqrt({q}) is rational; the oracle must be provably irrational")
        self.q = q
        super().__init__(f"sqrt({q})")

    def _compute(self, bits: int) -> tuple[Fraction, Fraction]:
        a, b = self.q.numerator, self.q.denominator
        # sqrt(a/b) = sqrt(a*b)/b
        v = a * b
        s = math.isqrt(v << (2 * bits))
        den = b << bits
        return Fraction(s, den), Fraction(s + 1, den)


def make_oracle(tag: str) -> IrrationalOracle:
    if tag == "pi":
        return PiOracle()
    if tag.startswith("sqrt(") and tag.endswith(")"):
        return SqrtOracle(Fraction(tag[5:-1]))
    raise MalformedModelError(f"unknown irrational tag {tag!r}")


# ---------------------------------------------------------------------------
# Threshold entries and interpretations


class PlusInf:
    _instance: Optional["PlusInf"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "+inf"


PLUS_INF = PlusInf()

ThresholdEntry = Union[Fraction, IrrationalOracle, PlusInf]


@dataclass(frozen=True)
class SubgroupLevel:
    level: int


@dataclass(frozen=True)
class DownwardCut:
    threshold: tuple[ThresholdEntry, ...]
    strict: bool = True


class CutClass(Enum):
    SUBGROUP = "subgroup"
    IRRATIONAL_CUT = "irrational-cut"
    COSET_CUT = "coset-topped-cut"
    RATIONAL_CUT = "rational-cut"
    NONVALUATIONAL = "nonvaluational"


@dataclass(frozen=True)
class CutShape:
    """What kind of cut U is: its class, the level k of the stabilizer
    I = {x : x_1 = ... = x_k = 0}, the rational threshold entries before
    the first non-rational one (none for a subgroup), and the deciding
    irrational entry, if any."""

    cls: CutClass
    stabilizer: int
    prefix: tuple[Fraction, ...]
    oracle: Optional[IrrationalOracle]


@dataclass(frozen=True)
class IntConstants:
    """The model's constants as integer numerators over one common
    denominator ``denom``, per coordinate: the unit (axis 0), e_in, e_out
    and the cut's rational prefix (zero past its end, and for a
    subgroup)."""

    denom: int
    unit: tuple[int, ...]
    e_in: tuple[int, ...]
    e_out: tuple[int, ...]
    prefix: tuple[int, ...]


@dataclass(frozen=True)
class ModelDescriptor:
    dim: int
    u_interp: Union[SubgroupLevel, DownwardCut]
    e_in: Point
    e_out: Point

    def __post_init__(self):
        validate_model(self)

    @property
    def unit(self) -> Point:
        return Point.unit(self.dim)

    @cached_property
    def cut(self) -> CutShape:
        """The shape of U, read once off its interpretation (not a field:
        equality and hashing ignore it)."""
        u = self.u_interp
        if isinstance(u, SubgroupLevel):
            return CutShape(CutClass.SUBGROUP, u.level, (), None)
        t = u.threshold
        j = next((i for i, e in enumerate(t) if not isinstance(e, Fraction)),
                 self.dim)
        if j == self.dim:
            return CutShape(CutClass.RATIONAL_CUT, j, t, None)
        if isinstance(t[j], PlusInf):  # the prefix ends just before +inf
            return CutShape(CutClass.COSET_CUT, j, t[:j], None)
        if j == self.dim - 1:
            return CutShape(CutClass.NONVALUATIONAL, j + 1, t[:j], t[j])
        # the oracle coordinate itself participates
        return CutShape(CutClass.IRRATIONAL_CUT, j + 1, t[:j], t[j])

    @cached_property
    def constants(self) -> IntConstants:
        """The constants that term rows and the oracle's forms are built
        from, cleared to integers once per model (kept like ``cut``)."""
        prefix = self.cut.prefix
        vecs = (self.unit.coords, self.e_in.coords, self.e_out.coords,
                prefix + (Fraction(0),) * (self.dim - len(prefix)))
        e = math.lcm(*(q.denominator for v in vecs for q in v))
        return IntConstants(e, *(tuple(q.numerator * (e // q.denominator)
                                       for q in v) for v in vecs))

    def describe(self) -> str:
        return f"LEX({self.dim}) with {self.u_interp}"


def validate_model(m: ModelDescriptor) -> None:
    if m.dim < 1:
        raise MalformedModelError("dimension must be positive")
    if m.e_in.dim != m.dim or m.e_out.dim != m.dim:
        raise MalformedModelError("constant points must match the dimension")
    u = m.u_interp
    if isinstance(u, SubgroupLevel):
        if not (1 <= u.level <= m.dim - 1):
            raise MalformedModelError(
                "subgroup level must keep U a proper nontrivial subgroup")
    else:
        t = u.threshold
        if len(t) != m.dim:
            raise MalformedModelError("threshold length must equal the dimension")
        inf_positions = [i for i, e in enumerate(t) if isinstance(e, PlusInf)]
        if inf_positions:
            start = inf_positions[0]
            if start == 0:
                raise MalformedModelError("a leading +inf entry makes U improper")
            if inf_positions != list(range(start, m.dim)):
                raise MalformedModelError("+inf entries must form a trailing block")
        oracle_positions = [i for i, e in enumerate(t) if isinstance(e, IrrationalOracle)]
        if len(oracle_positions) > 1:
            raise MalformedModelError("at most one deciding irrational entry")
        if oracle_positions and inf_positions and oracle_positions[0] > inf_positions[0]:
            raise MalformedModelError("an oracle entry may not follow +inf entries")
    # e_in is positive and lies in the stabilizer when it is nontrivial; it
    # must also lie in U whenever U has positive stabilizer elements at all
    # (cuts below zero admit no such point, e.g. reflection test inputs).
    if m.e_in.lex_sign() <= 0:
        raise MalformedModelError("e_in must be positive")
    if m.cut.stabilizer < m.dim:
        if not i_member(m, m.e_in):
            raise MalformedModelError("e_in must lie in the stabilizer subgroup")
        if u_member(m, Point.zero(m.dim)) and not u_member(m, m.e_in):
            raise MalformedModelError("e_in must lie inside U")
    elif not u_member(m, m.e_in):
        raise MalformedModelError("e_in must lie inside U")
    if closure_member(m, m.e_out):
        raise MalformedModelError("e_out must exceed every element of U")


# ---------------------------------------------------------------------------
# Membership and comparison


def u_member(m: ModelDescriptor, p: Point,
             budget: int = DEFAULT_PRECISION_BITS,
             drift: Optional[Point] = None) -> bool:
    """Membership of p in U, or for a cut with a drift, of p + delta*drift
    for every small delta > 0.  A subgroup reads ``i_member``.  A cut is
    walked entry by entry: a rational entry decides by the sign of the
    coordinate less the entry, or where that is 0 by the drift's
    coordinate; +inf decides "below"; the deciding irrational entry decides
    by refinement within budget bits (a rational coordinate never equals
    it, so the drift never matters there); past the last entry, the
    strictness decides."""
    u = m.u_interp
    if isinstance(u, SubgroupLevel):
        return i_member(m, p)
    ds = (0,) * m.dim if drift is None else drift.coords
    for c, d, entry in zip(p.coords, ds, u.threshold):
        if isinstance(entry, PlusInf):
            return True
        if isinstance(entry, Fraction):
            s = c - entry or d
            if s:
                return s < 0
            continue
        return entry.compare(c, budget) < 0
    return not u.strict


def closure_member(m: ModelDescriptor, p: Point) -> bool:
    """Membership in the downward set whose stabilizer defines I: the cut
    itself, or the downward closure of the subgroup."""
    if isinstance(m.u_interp, SubgroupLevel):
        return Point(p.coords[:m.u_interp.level]).lex_sign() <= 0
    return u_member(m, p)


def i_member(m: ModelDescriptor, p: Point) -> bool:
    return all(c == 0 for c in p.coords[:m.cut.stabilizer])


# ---------------------------------------------------------------------------
# Term and formula evaluation


def term_value(m: ModelDescriptor, t: Term, asgn: Mapping[str, Point]) -> Point:
    acc = m.unit.scale(t.offset)
    if t.e_in:
        acc = acc + m.e_in.scale(t.e_in)
    if t.e_out:
        acc = acc + m.e_out.scale(t.e_out)
    for v, q in t.coeffs:
        if v not in asgn:
            raise KeyError(f"unassigned variable {v!r}")
        acc = acc + asgn[v].scale(q)
    return acc


def eval_formula(m: ModelDescriptor, f: Formula, asgn: Mapping[str, Point],
                 precision_budget: int = DEFAULT_PRECISION_BITS) -> bool:
    """Exact truth value of a quantifier-free formula, with Point
    arithmetic; every atom is evaluated, none short-circuits."""
    if not is_quantifier_free(f):
        raise ValueError("eval_formula needs a quantifier-free formula")

    def node(g: Formula, kids, _c) -> bool:
        t = type(g)
        if t is AtomF:
            val = term_value(m, g.atom.term, asgn)
            kind = g.atom.kind
            if kind == AtomKind.LT:
                return val.lex_sign() < 0
            if kind == AtomKind.EQ:
                return val.is_zero()
            if kind == AtomKind.UMEM:
                return u_member(m, val, precision_budget)
            if kind == AtomKind.IMEM:
                return i_member(m, val)
            raise AssertionError(kind)
        if t is And or t is Or:
            return (all if t is And else any)(kids)
        if t is Not:
            return not kids[0]
        if t is TrueF or t is FalseF:
            return t is TrueF
        raise TypeError(t)

    return fold(normalize_atoms(f), node)


# ---------------------------------------------------------------------------
# Compiled evaluation (integer arithmetic)


def term_rows(m: ModelDescriptor, t: Term, shifted: bool = False):
    """The term's coordinates, less the cut's rational prefix if shifted,
    as integer rows ``(terms, const)``, each ``const * d`` plus the sum of
    ``c * points[v][i]`` over the ``(v, i, c)`` in terms (as
    ``closures.holds`` reads them): at points over denominator d, row i is
    (t_i - s_i) * lc * d, s_i the prefix entry (or 0).  Returns (lc, rows),
    lc the lcm of the denominators involved."""
    nums, a, b, c, den = t
    k = m.constants
    # coordinate i's constant is const[i] / (den * k.denom)
    const = [c * u + a * p + b * q
             for u, p, q in zip(k.unit, k.e_in, k.e_out)]
    if shifted:
        const = [x - s * den for x, s in zip(const, k.prefix)]
    de = den * k.denom
    # x / n has denominator n / gcd(x, n)
    lc = math.lcm(*(de // math.gcd(x, de) for x in const),
                  *(den // math.gcd(n, den) for _, n in nums))
    return lc, [(tuple((v, i, n * lc // den) for v, n in nums), x * lc // de)
                for i, x in enumerate(const)]


# an order or equality atom: the sign of its term's first nonzero row, and
# its truth where every row is zero
_ORDER = {AtomKind.LT: (lt, False), AtomKind.LE: (le, True),
          AtomKind.EQ: (eq, True), AtomKind.NEQ: (ne, False)}


def _lower_atom(m: ModelDescriptor, a: Atom):
    """The ``closures`` spec of one atom over the term's integer rows.  A
    cut's rational threshold prefix is folded into the rows, so U(t) reads
    off the first nonzero row, then the cut's tail (+inf, the strictness,
    or its oracle)."""
    kind, cut = a.kind, m.cut
    umem = kind == AtomKind.UMEM
    lc, rows = term_rows(m, a.term, umem)
    if kind == AtomKind.IMEM or umem and cut.cls is CutClass.SUBGROUP:
        return rows[:cut.stabilizer], eq, True
    if not umem:
        return (rows, *_ORDER[kind])
    j = len(cut.prefix)
    if cut.oracle is None:
        # +inf entry, or t = threshold
        inside = j < m.dim or not m.u_interp.strict
        return rows[:j], le if inside else lt, inside
    alpha = cut.oracle
    return rows[:j], lt, (
        rows[j], lc, *alpha.bracket(),
        lambda x, den: alpha.compare(Fraction(x, den)) < 0)


def compile_formula(m: ModelDescriptor, *fs: Formula) -> Evaluator:
    """The evaluator over m for quantifier-free formulas, one root each over
    one jump table, built once and called per assignment; eval_formula is
    its reference."""
    return Lowering(lambda a: _lower_atom(m, a)).evaluator(*fs)


class IntCompiledFormula(AtDenominator):
    """compile_formula at a fixed sample denominator: ``eval`` takes each
    variable's coordinate numerators over ``denom``, ``block`` a
    ``closures.Lanes`` of them."""

    def __init__(self, m: ModelDescriptor, f: Formula, denom: int):
        super().__init__(compile_formula(m, f), denom)


# ---------------------------------------------------------------------------
# JSON serialization


def rat_text(q: Fraction) -> str:
    """str(q), in full at any length."""
    return _rat_text(q.numerator, q.denominator)


def json_rational(x) -> Fraction:
    """A rational read from JSON: a string such as "3/2" or "0.1", matched
    by ``Fraction``'s own pattern, its digits read by the parser's
    ``_read_int`` at any int/str digit limit; or an integer.  A float is
    binary and a boolean is no number, so both are refused."""
    if type(x) is int:
        return Fraction(x)
    if type(x) is not str:
        raise TypeError(f"a rational is a string or an integer, not {x!r}")
    got = _RATIONAL_FORMAT.match(x)
    if got is None:
        raise ValueError(f"invalid literal for a rational: {x!r}")
    sign, num, den, dec, exp = [g and g.replace("_", "") for g in got.group(
        "sign", "num", "denom", "decimal", "exp")]
    e = int(exp or 0)  # the decimals are read as more digits of num
    n = _read_int((num or "0") + (dec or "")) * 10 ** max(e, 0)
    d = (_read_int(den) if den else 10 ** len(dec or "")) * 10 ** max(-e, 0)
    return Fraction(-n if sign == "-" else n, d)


def _json_of(kind: type, x):
    """x, when JSON gave exactly that kind (a boolean is no integer)."""
    if type(x) is not kind:
        raise TypeError(f"expected {kind.__name__}, not {x!r}")
    return x


def _entry_to_json(e: ThresholdEntry):
    if isinstance(e, Fraction):
        return rat_text(e)
    if isinstance(e, PlusInf):
        return "+inf"
    return {"irrational": e.tag}


def _entry_from_json(x) -> ThresholdEntry:
    if isinstance(x, str):
        if x.strip() == "+inf":
            return PLUS_INF
        return json_rational(x)
    if isinstance(x, dict) and "irrational" in x:
        return make_oracle(x["irrational"])
    raise MalformedModelError(f"bad threshold entry {x!r}")


def model_to_json(m: ModelDescriptor) -> dict:
    if isinstance(m.u_interp, SubgroupLevel):
        u = {"kind": "subgroup", "level": m.u_interp.level}
    else:
        u = {"kind": "downward-cut",
             "threshold": [_entry_to_json(e) for e in m.u_interp.threshold],
             "strict": m.u_interp.strict}
    return {"dim": m.dim, "U": u,
            "e_in": [rat_text(c) for c in m.e_in.coords],
            "e_out": [rat_text(c) for c in m.e_out.coords]}


def model_from_json(data: dict) -> ModelDescriptor:
    try:
        dim = _json_of(int, data["dim"])
        u = data["U"]
        if u["kind"] == "subgroup":
            interp: Union[SubgroupLevel, DownwardCut] = SubgroupLevel(
                _json_of(int, u["level"]))
        elif u["kind"] == "downward-cut":
            interp = DownwardCut(tuple(_entry_from_json(e) for e in u["threshold"]),
                                 _json_of(bool, u.get("strict", True)))
        else:
            raise MalformedModelError(f"unknown U kind {u['kind']!r}")
        e_in = Point(tuple(json_rational(c) for c in data["e_in"]))
        e_out = Point(tuple(json_rational(c) for c in data["e_out"]))
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise MalformedModelError(f"bad model descriptor: {exc}") from exc
    return ModelDescriptor(dim, interp, e_in, e_out)


def read_json(path: str):
    """The JSON value in the file at path; an unreadable file or malformed
    JSON is a domain error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConvexQEError(f"cannot read JSON from {path}: {exc}") from None


def load_model(path: str) -> ModelDescriptor:
    return model_from_json(read_json(path))
