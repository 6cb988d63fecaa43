"""Terms, atoms and first-order formulas over the group signature
{+, -, 0, rational scalars, <, =, U, I, e_in, e_out}.

Terms are kept in a sparse canonical linear form (sorted variables, no zero
coefficients), so structural equality coincides with equality as linear
expressions.  Rational literals denote multiples of the designated unit
element of the ambient model.

``And`` and ``Or`` are n-ary and flat: an argument with the same connective
is spliced in, so one formula has one shape however it was nested.  Every
structural walk over formulas but the jump-table compiler's is a callback
to ``fold``, one post-order traversal on an explicit stack built on
``children`` and ``rebuild``; formula depth meets no recursion limit.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, Decimal, localcontext
from enum import Enum
from fractions import Fraction
from typing import (Callable, Iterable, Iterator, Mapping, Optional,
                    Sequence)

ZERO = Fraction(0)
ONE = Fraction(1)


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


# ---------------------------------------------------------------------------
# Terms


class Term(tuple):
    """Linear expression q1*v1 + ... + a*e_in + b*e_out + c (c a rational
    multiple of the unit element).

    Stored as the integer tuple ``(nums, a, b, c, den)``: the numerators
    ``nums = ((v1, n1), ...)`` (sorted variables, no zeros) and those of
    the e_in, e_out and unit parts, over one common denominator ``den >
    0``, in lowest terms.  The form is canonical, so tuple equality and
    the tuple hash are equality of linear expressions, and the arithmetic
    below is integer arithmetic.  ``coeffs``, ``coeff``, ``e_in``,
    ``e_out`` and ``offset`` give the rational values as Fractions."""

    __slots__ = ()
    # no tuple order or repetition: terms are compared by sort_key and
    # multiplied by scale
    __lt__ = __le__ = __gt__ = __ge__ = __mul__ = __rmul__ = None

    def __new__(cls, coeffs: Mapping[str, Fraction] | Iterable[tuple[str, Fraction]] = (),
                e_in=ZERO, e_out=ZERO, offset=ZERO) -> "Term":
        d: dict[str, Fraction] = {}
        for v, q in (coeffs.items() if isinstance(coeffs, Mapping) else coeffs):
            d[v] = d.get(v, ZERO) + _rat(q)
        items = sorted((v, q) for v, q in d.items() if q)
        a, b, c = _rat(e_in), _rat(e_out), _rat(offset)
        # over the lcm of reduced denominators the numerators are coprime
        den = math.lcm(a.denominator, b.denominator, c.denominator,
                       *(q.denominator for _, q in items))
        return _new(Term, (tuple([(v, q.numerator * (den // q.denominator))
                                  for v, q in items]),
                           a.numerator * (den // a.denominator),
                           b.numerator * (den // b.denominator),
                           c.numerator * (den // c.denominator), den))

    @staticmethod
    def var(name: str) -> "Term":
        return _new(Term, (((name, 1),), 0, 0, 0, 1))

    @staticmethod
    def const(q) -> "Term":
        q = _rat(q)
        return _new(Term, ((), 0, 0, q.numerator, q.denominator))

    @staticmethod
    def ein(q=ONE) -> "Term":
        q = _rat(q)
        return _new(Term, ((), q.numerator, 0, 0, q.denominator))

    @staticmethod
    def eout(q=ONE) -> "Term":
        q = _rat(q)
        return _new(Term, ((), 0, q.numerator, 0, q.denominator))

    den = property(operator.itemgetter(4))

    @property
    def coeffs(self) -> tuple[tuple[str, Fraction], ...]:
        den = self[4]
        return tuple([(v, Fraction(n, den)) for v, n in self[0]])

    @property
    def e_in(self) -> Fraction:
        return Fraction(self[1], self[4])

    @property
    def e_out(self) -> Fraction:
        return Fraction(self[2], self[4])

    @property
    def offset(self) -> Fraction:
        return Fraction(self[3], self[4])

    def num(self, v: str) -> int:
        """The numerator of v's coefficient over den."""
        for name, n in self[0]:
            if name == v:
                return n
        return 0

    def coeff(self, v: str) -> Fraction:
        return Fraction(self.num(v), self[4])

    def vars(self) -> frozenset[str]:
        return frozenset([v for v, _ in self[0]])

    @property
    def is_zero(self) -> bool:
        nums, a, b, c, _ = self
        return not (nums or a or b or c)

    @property
    def is_offset_only(self) -> bool:
        nums, a, b, _, _ = self
        return not (nums or a or b)

    def _combine(self, other: "Term", sign: int) -> "Term":
        """self + sign * other, cross-multiplied over the lcm of the two
        denominators."""
        xn, xa, xb, xc, xd = self
        yn, ya, yb, yc, yd = other
        if xd == yd:
            fx, fy = 1, sign
        else:
            g = math.gcd(xd, yd)
            fx, fy = yd // g, sign * (xd // g)
        if not yn:
            nums = xn if fx == 1 else tuple([(v, q * fx) for v, q in xn])
        elif not xn:
            nums = tuple([(v, q * fy) for v, q in yn])
        else:
            d = {v: q * fx for v, q in xn} if fx != 1 else dict(xn)
            for v, q in yn:
                d[v] = d.get(v, 0) + q * fy
            nums = tuple(sorted([(v, q) for v, q in d.items() if q]))
        return _lowest(nums, xa * fx + ya * fy, xb * fx + yb * fy,
                       xc * fx + yc * fy, xd * fx)

    def __add__(self, other: "Term") -> "Term":
        return self._combine(other, 1)

    def __sub__(self, other: "Term") -> "Term":
        return self._combine(other, -1)

    def __neg__(self) -> "Term":
        nums, a, b, c, den = self
        return _new(Term, (tuple([(v, -q) for v, q in nums]), -a, -b, -c, den))

    def scale(self, q) -> "Term":
        if type(q) is int:
            return self.scale_ratio(q, 1)
        q = _rat(q)
        return self.scale_ratio(q.numerator, q.denominator)

    def scale_ratio(self, p: int, r: int) -> "Term":
        """self * p / r for integers p and r != 0."""
        if not p:
            return ZERO_TERM
        nums, a, b, c, den = self
        return _lowest(tuple([(v, q * p) for v, q in nums]),
                       a * p, b * p, c * p, den * r)

    def drop_var(self, v: str) -> "Term":
        nums, a, b, c, den = self
        return _lowest(tuple([(n, q) for n, q in nums if n != v]),
                       a, b, c, den)

    def subst_all(self, env: Mapping[str, "Term"]) -> "Term":
        """Simultaneous substitution of env[v] for each variable v of env."""
        nums, a, b, c, den = self
        if not any(v in env for v, _ in nums):
            return self
        acc = _lowest(tuple([(v, q) for v, q in nums if v not in env]),
                      a, b, c, den)
        for v, q in nums:
            if v in env:
                acc = acc + env[v].scale_ratio(q, den)
        return acc

    def sort_key(self):
        """The key ordering terms by (coeffs, e_in, e_out, offset) as
        Fractions; an integer stands in for a Fraction of equal value."""
        nums, a, b, c, den = self
        if den == 1:
            return (nums, a, b, c)
        return (tuple([(v, Fraction(q, den)) for v, q in nums]),
                Fraction(a, den), Fraction(b, den), Fraction(c, den))

    def __repr__(self) -> str:
        return (f"Term(coeffs={self.coeffs!r}, e_in={self.e_in!r}, "
                f"e_out={self.e_out!r}, offset={self.offset!r})")

    def __str__(self) -> str:
        return term_to_str(self)


_new = tuple.__new__
ZERO_TERM = _new(Term, ((), 0, 0, 0, 1))


def _lowest(nums: tuple[tuple[str, int], ...], a: int, b: int, c: int,
            den: int) -> Term:
    """The term of these numerators over den != 0, brought to a positive
    denominator and lowest terms."""
    if den < 0:
        nums, a, b, c, den = (tuple([(v, -q) for v, q in nums]),
                              -a, -b, -c, -den)
    if den != 1:
        g = math.gcd(den, c, a, b, *[q for _, q in nums])
        if g != 1:
            nums = tuple([(v, q // g) for v, q in nums])
            a, b, c, den = a // g, b // g, c // g, den // g
    return _new(Term, (nums, a, b, c, den))


# str() refuses ints past a digit limit the interpreter sets (640 digits at
# the least), and int division, which a split by powers of ten needs, is
# quadratic.  So a long int is rebuilt in ``decimal``, where multiplication
# is subquadratic, by binary splitting n = hi * 2**k + lo, and printed from
# there.
_SHORT = 10 ** 500
_LEAF_BITS = 1024


def _int_text(n: int) -> str:
    """str(n), in full at any length."""
    if -_SHORT < n < _SHORT:
        return str(n)

    def dec(n: int, bits: int) -> Decimal:
        if bits <= _LEAF_BITS:
            return Decimal(n)
        k = bits // 2
        hi = n >> k
        return dec(hi, bits - k) * Decimal(2) ** k + dec(n - (hi << k), k)

    with localcontext() as ctx:  # exact: no product is ever rounded
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        return ("-" if n < 0 else "") + str(dec(abs(n), abs(n).bit_length()))


def _rat_text(n: int, den: int) -> str:
    """str(Fraction(n, den)) for den > 0, in full at any length."""
    g = math.gcd(n, den)
    if g == den:
        return _int_text(n // g)
    return f"{_int_text(n // g)}/{_int_text(den // g)}"


def term_to_str(t: Term) -> str:
    nums, a, b, c, den = t
    parts = [(q, v) for v, q in nums]
    if a:
        parts.append((a, "e_in"))
    if b:
        parts.append((b, "e_out"))
    if c:
        parts.append((c, None))
    if not parts:
        return "0"
    out = []
    for q, sym in parts:
        if sym is None:
            body = _rat_text(abs(q), den)
        elif abs(q) == den:
            body = sym
        else:
            body = f"{_rat_text(abs(q), den)} * {sym}"
        if not out:
            out.append("-" + body if q < 0 else body)
        else:
            out.append(("- " if q < 0 else "+ ") + body)
    return " ".join(out)


def _hashed_once(cls):
    """A frozen dataclass whose hash is computed when it is built and kept:
    formulas are hashed again and again as sets and dicts deduplicate
    them.  A node's children are built, and hashed, before it, so a first
    hash costs O(arity) and never walks a subtree; ``==`` walks two
    formulas side by side on an explicit stack."""
    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", field_hash(self))

    cls.__post_init__ = __post_init__
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__
    cls._field_eq = cls.__eq__
    cls.__hash__ = _kept_hash
    cls.__eq__ = _node_eq
    return cls


def _kept_hash(self) -> int:
    return self._hash


def _node_eq(self, other) -> bool:
    """Structural equality: at once on identity, on a different type or on
    two hashes that differ; else pairwise over the children, on an
    explicit stack."""
    if self is other:
        return True
    if type(other) is not type(self):
        return NotImplemented
    stack = [(self, other)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b) or a._hash != b._hash:
            return False
        ka, kb = children(a), children(b)
        if not ka:
            if not a._field_eq(b):  # a leaf, an atom or an empty connective
                return False
        elif (len(ka) != len(kb)
              or getattr(a, "var", None) != getattr(b, "var", None)):
            return False
        else:
            stack.extend(zip(ka, kb))
    return True


# ---------------------------------------------------------------------------
# Atoms


class AtomKind(Enum):
    LT = "<"
    LE = "<="
    EQ = "="
    NEQ = "!="
    UMEM = "U"
    IMEM = "I"


@_hashed_once
class Atom:
    """Relational atoms read ``term <op> 0``; membership atoms read
    ``U(term)`` / ``I(term)``."""

    kind: AtomKind
    term: Term

    def sort_key(self):
        return (self.kind._value_, self.term.sort_key())

    def __str__(self) -> str:
        if self.kind in (AtomKind.UMEM, AtomKind.IMEM):
            return f"{self.kind.value}({self.term})"
        return f"{self.term} {self.kind.value} 0"


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)


@_hashed_once
class TrueF(Formula):
    pass


@_hashed_once
class FalseF(Formula):
    pass


@_hashed_once
class AtomF(Formula):
    atom: Atom


@_hashed_once
class Not(Formula):
    sub: Formula


@_hashed_once
class _Connective(Formula):
    """A connective over args; an argument with the same connective is
    spliced in, so ``And(And(a, b), c) == And(a, And(b, c)) == And(a, b,
    c)``."""

    args: tuple[Formula, ...]

    def __init__(self, *args: Formula):
        # the hash sums the args' hashes, so a spliced-in argument of the
        # same connective lends its own: a connective grown one argument at
        # a time never rehashes what it holds (a reordering of the same
        # args hashes alike; == tells them apart)
        object.__setattr__(self, "_hash", sum(map(_HASH_OF, args)) % _PRIME)
        op = type(self)
        if op in map(type, args):
            args = tuple(itertools.chain.from_iterable(
                a.args if type(a) is op else (a,) for a in args))
        object.__setattr__(self, "args", args)


_PRIME = (1 << 61) - 1
_HASH_OF = operator.attrgetter("_hash")


class And(_Connective):
    pass


class Or(_Connective):
    pass


@_hashed_once
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@_hashed_once
class Exists(Formula):
    var: str
    body: Formula


@_hashed_once
class Forall(Formula):
    var: str
    body: Formula


TRUE = TrueF()
FALSE = FalseF()
QUANTIFIERS = (Exists, Forall)
_LEAVES = (AtomF, TrueF, FalseF)


def atom(kind: AtomKind, term: Term) -> Formula:
    return AtomF(Atom(kind, term))


def umem(t: Term) -> Formula:
    return atom(AtomKind.UMEM, t)


def imem(t: Term) -> Formula:
    return atom(AtomKind.IMEM, t)


def _connect(op: type, unit: Formula, zero: Formula,
             fs: Iterable[Formula]) -> Formula:
    """One op node over fs: nested op nodes spliced in, units dropped and
    each argument kept once; at the first zero argument, zero, without
    drawing the rest of fs."""
    args: dict[Formula, None] = {}
    for f in fs:
        for a in (f.args if type(f) is op else (f,)):
            if type(a) is type(zero):
                return zero
            if type(a) is not type(unit):
                args[a] = None
    if len(args) > 1:
        return op(*args)
    return next(iter(args)) if args else unit


def conj(fs: Iterable[Formula]) -> Formula:
    return _connect(And, TRUE, FALSE, fs)


def disj(fs: Iterable[Formula]) -> Formula:
    return _connect(Or, FALSE, TRUE, fs)


# ---------------------------------------------------------------------------
# The traversal: every walk over formulas but closures' compiler is a fold


def children(f: Formula) -> tuple[Formula, ...]:
    t = type(f)
    if t is And or t is Or:
        return f.args
    if t is Not:
        return (f.sub,)
    if t is Exists or t is Forall:
        return (f.body,)
    if t is Implies:
        return (f.lhs, f.rhs)
    return ()


def rebuild(f: Formula, kids: Sequence[Formula]) -> Formula:
    """f with its children replaced by kids, in order; f itself when every
    kid is the child it replaces."""
    if all(map(operator.is_, children(f), kids)):
        return f
    t = type(f)
    if t is Not:
        return Not(kids[0])
    if t is Exists or t is Forall:
        return t(f.var, kids[0])
    return t(*kids)


def fold(f: Formula, combine: Callable, enter: Optional[Callable] = None,
         ctx=None):
    """Post-order fold of f on an explicit stack, so formula depth meets no
    recursion limit.

    ``enter(g, c)`` runs at each node in preorder with the context c its
    parent passed down (ctx at the root) and returns the context for g's
    children; without it the context passes unchanged.  ``combine(g,
    results, c)`` then gives g's result from the results of
    ``children(g)``, in order, and the context g's children saw.
    """
    if type(f) in _LEAVES:
        return combine(f, (), ctx if enter is None else enter(f, ctx))
    out: list = []
    stack: list = [(f, ctx, None)]
    pop, push = stack.pop, stack.append
    while stack:
        g, c, kids = pop()
        if kids is not None:
            n = len(out) - len(kids)
            vals = out[n:]
            del out[n:]
            out.append(combine(g, vals, c))
            continue
        if enter is not None:
            c = enter(g, c)
        kids = children(g)
        if not kids:
            out.append(combine(g, (), c))
            continue
        push((g, c, kids))
        # children run left to right: leading leaves at once, the rest later
        for i, k in enumerate(kids):
            if type(k) not in _LEAVES:
                stack.extend([(j, c, None) for j in reversed(kids[i:])])
                break
            out.append(combine(k, (), c if enter is None else enter(k, c)))
    return out[0]


def subformulas(f: Formula) -> list[Formula]:
    """Every subformula occurrence of f, in preorder."""
    out: list[Formula] = []
    fold(f, lambda *_: None, lambda g, _c: out.append(g))
    return out


def atoms_of(f: Formula) -> Iterator[Atom]:
    for g in subformulas(f):
        if type(g) is AtomF:
            yield g.atom


def mentions_membership(f: Formula) -> bool:
    """Whether f has a U or I atom."""
    return any(a.kind in (AtomKind.UMEM, AtomKind.IMEM) for a in atoms_of(f))


def _free_node(g: Formula, kids, _c) -> frozenset[str]:
    t = type(g)
    if t is AtomF:
        return g.atom.term.vars()
    if t is Exists or t is Forall:
        return kids[0] - {g.var}
    return frozenset().union(*kids)


def free_vars(f: Formula) -> frozenset[str]:
    return fold(f, _free_node)


def is_quantifier_free(f: Formula) -> bool:
    return not any(isinstance(g, QUANTIFIERS) for g in subformulas(f))


def _fresh(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    for i in itertools.count(1):
        cand = f"{base}_{i}"
        if cand not in taken:
            return cand
    raise AssertionError


def _rename_binders(f: Formula, fresh: Callable[[str], str]) -> Formula:
    """Rebind every quantifier, in preorder, to fresh(old name)."""
    def enter(g: Formula, env: dict[str, Term]) -> dict[str, Term]:
        if not isinstance(g, QUANTIFIERS):
            return env
        inner = {v: t for v, t in env.items() if v != g.var}
        new = fresh(g.var)
        if new != g.var:
            inner[g.var] = Term.var(new)
        return inner

    return fold(f, _substitute_node, enter, {})


def rename_bound(f: Formula, taken: Optional[set[str]] = None) -> Formula:
    """Rename bound variables so each quantifier binds a distinct name that
    does not collide with any free variable."""
    taken = set(taken) if taken is not None else set(free_vars(f))

    def fresh(var: str) -> str:
        new = _fresh(var, taken)
        taken.add(new)
        return new

    return _rename_binders(f, fresh)


def canonicalize_bound(f: Formula) -> Formula:
    """Deterministically rename bound variables (traversal order) so that
    alpha-equivalent formulas become structurally equal."""
    frees = free_vars(f)
    names = (n for n in (f"q{i}" for i in itertools.count(1))
             if n not in frees)
    return _rename_binders(f, lambda _var: next(names))


def _substitute_node(g: Formula, kids, env: dict[str, Term]) -> Formula:
    """Apply env, a simultaneous substitution, at an atom; a quantifier
    whose variable env renames binds the new name."""
    t = type(g)
    if t is AtomF:
        term = g.atom.term.subst_all(env)
        return g if term is g.atom.term else AtomF(Atom(g.atom.kind, term))
    if (t is Exists or t is Forall) and g.var in env:
        new, = env[g.var].vars()
        return t(new, kids[0])
    return rebuild(g, kids)


# ---------------------------------------------------------------------------
# Printing

_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_NOT = 4
_PREC_ATOM = 5


def _print_node(g: Formula, kids, _c) -> tuple[str, int]:
    """g's text and precedence; a child binding looser than its place is
    parenthesized."""
    t = type(g)
    if t is AtomF:
        return str(g.atom), _PREC_ATOM
    if t is And or t is Or:
        prec = _PREC_AND if t is And else _PREC_OR
        return (" & " if t is And else " | ").join(
            s if p > prec else f"({s})" for s, p in kids), prec
    if t is Not:
        s, p = kids[0]
        return ("~" + s if p >= _PREC_NOT else f"~({s})"), _PREC_NOT
    if t is Exists or t is Forall:
        q = "E" if t is Exists else "A"
        return f"{q} {g.var}. {kids[0][0]}", _PREC_IMPLIES
    if t is Implies:
        (s, p), (s2, _) = kids
        lhs = s if p > _PREC_IMPLIES else f"({s})"
        return f"{lhs} -> {s2}", _PREC_IMPLIES
    if t is TrueF or t is FalseF:
        return ("true" if t is TrueF else "false"), _PREC_ATOM
    raise TypeError(t)


def print_formula(f: Formula) -> str:
    return fold(f, _print_node)[0]
