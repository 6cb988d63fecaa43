"""Terms, atoms and first-order formulas over the group signature
{+, -, 0, rational scalars, <, =, U, I, e_in, e_out}.

Terms are kept in a sparse canonical linear form (sorted variables, no zero
coefficients), so structural equality coincides with equality as linear
expressions.  Rational literals denote multiples of the designated unit
element of the ambient model.

``And`` and ``Or`` are n-ary and flat: an argument with the same connective
is spliced in, so one formula has one shape however it was nested.  Every
structural walk over formulas, here and in the other modules, is a callback
to ``fold``, one post-order traversal on an explicit stack built on
``children`` and ``rebuild``; formula depth meets no recursion limit.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import (Callable, Iterable, Iterator, Mapping, Optional,
                    Sequence)

Rat = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Term:
    """Linear expression q1*v1 + ... + a*e_in + b*e_out + c (c a rational
    multiple of the unit element)."""

    coeffs: tuple[tuple[str, Fraction], ...] = ()
    e_in: Fraction = ZERO
    e_out: Fraction = ZERO
    offset: Fraction = ZERO

    def __hash__(self) -> int:
        # Fraction.__hash__ is slow; equal terms have equal variables,
        # numerators and offsets, and eq settles the rare collision
        return hash((tuple([(v, q.numerator) for v, q in self.coeffs]),
                     self.offset.numerator))

    @staticmethod
    def make(coeffs: Mapping[str, Fraction] | Iterable[tuple[str, Fraction]] = (),
             e_in=ZERO, e_out=ZERO, offset=ZERO) -> "Term":
        if isinstance(coeffs, Mapping):
            items = coeffs.items()
        else:
            items = coeffs
        cleaned = tuple(sorted((v, _rat(q)) for v, q in items if q != 0))
        return Term(cleaned, _rat(e_in), _rat(e_out), _rat(offset))

    @staticmethod
    def var(name: str) -> "Term":
        return Term(((name, ONE),))

    @staticmethod
    def const(q) -> "Term":
        return Term((), ZERO, ZERO, _rat(q))

    @staticmethod
    def ein(q=ONE) -> "Term":
        return Term((), _rat(q), ZERO, ZERO)

    @staticmethod
    def eout(q=ONE) -> "Term":
        return Term((), ZERO, _rat(q), ZERO)

    def coeff(self, v: str) -> Fraction:
        for name, q in self.coeffs:
            if name == v:
                return q
        return ZERO

    def vars(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs and self.e_in == 0 and self.e_out == 0 and self.offset == 0

    @property
    def is_offset_only(self) -> bool:
        return not self.coeffs and self.e_in == 0 and self.e_out == 0

    def __add__(self, other: "Term") -> "Term":
        d = dict(self.coeffs)
        for v, q in other.coeffs:
            d[v] = d.get(v, ZERO) + q
        return Term.make(d, self.e_in + other.e_in, self.e_out + other.e_out,
                         self.offset + other.offset)

    def __sub__(self, other: "Term") -> "Term":
        return self + (-other)

    def __neg__(self) -> "Term":
        return self.scale(Fraction(-1))

    def scale(self, q) -> "Term":
        q = _rat(q)
        if q == 0:
            return Term()
        return Term(tuple((v, c * q) for v, c in self.coeffs),
                    self.e_in * q, self.e_out * q, self.offset * q)

    def drop_var(self, v: str) -> "Term":
        return Term(tuple((n, q) for n, q in self.coeffs if n != v),
                    self.e_in, self.e_out, self.offset)

    def subst_all(self, env: Mapping[str, "Term"]) -> "Term":
        """Simultaneous substitution of env[v] for each variable v of env."""
        if not any(v in env for v, _ in self.coeffs):
            return self
        acc = Term(tuple((v, q) for v, q in self.coeffs if v not in env),
                   self.e_in, self.e_out, self.offset)
        for v, q in self.coeffs:
            if v in env:
                acc = acc + env[v].scale(q)
        return acc

    def sort_key(self):
        return (self.coeffs, self.e_in, self.e_out, self.offset)

    def __str__(self) -> str:
        return term_to_str(self)


def term_to_str(t: Term) -> str:
    parts: list[tuple[bool, str]] = []  # (negative, body)

    def mono(q: Fraction, sym: Optional[str]) -> tuple[bool, str]:
        neg = q < 0
        q = abs(q)
        if sym is None:
            return neg, str(q)
        if q == 1:
            return neg, sym
        return neg, f"{q} * {sym}"

    for v, q in t.coeffs:
        parts.append(mono(q, v))
    if t.e_in:
        parts.append(mono(t.e_in, "e_in"))
    if t.e_out:
        parts.append(mono(t.e_out, "e_out"))
    if t.offset:
        parts.append(mono(t.offset, None))
    if not parts:
        return "0"
    out = []
    for i, (neg, body) in enumerate(parts):
        if i == 0:
            out.append(("-" + body) if neg else body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


def _hashed_once(cls):
    """A frozen dataclass whose hash is computed on first use and kept:
    formulas are hashed again and again as sets and dicts deduplicate
    them, and every hash would otherwise walk the whole subtree.  A first
    hash hashes the unhashed subformulas first, so it never recurses, and
    ``==`` walks two formulas side by side on an explicit stack."""
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__
    cls._field_eq = cls.__eq__

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            for k in children(self):
                if type(k) not in _LEAVES and "_hash" not in k.__dict__:
                    for g in _unhashed_below(self):
                        hash(g)
                    break
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    cls.__eq__ = _node_eq
    return cls


def _node_eq(self, other) -> bool:
    """Structural equality: at once on identity, on a different type or on
    two kept hashes that differ; else pairwise over the children, on an
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
        if type(a) is not type(b):
            return False
        ha, hb = a.__dict__.get("_hash"), b.__dict__.get("_hash")
        if ha is not None and hb is not None and ha != hb:
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


def _unhashed_below(f: Formula) -> list[Formula]:
    """The distinct subformulas below f with no kept hash yet, each after
    its own, in a post-order walk on an explicit stack.  Leaves are left
    out: their hash goes no deeper than their atom's term."""
    found: list[Formula] = []
    seen: set[int] = set()
    stack = [(f, iter(children(f)))]
    while stack:
        g, kids = stack[-1]
        for k in kids:
            if (type(k) not in _LEAVES and "_hash" not in k.__dict__
                    and id(k) not in seen):
                seen.add(id(k))
                stack.append((k, iter(children(k))))
                break
        else:
            stack.pop()
            found.append(g)
    found.pop()  # f itself
    return found


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
        return (self.kind.value, self.term.sort_key())

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
        op = type(self)
        if op in map(type, args):
            args = tuple(itertools.chain.from_iterable(
                a.args if type(a) is op else (a,) for a in args))
        object.__setattr__(self, "args", args)


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
# The traversal: every structural walk over formulas is a fold below


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


def substitute(f: Formula, v: str, t: Term) -> Formula:
    """Capture-avoiding substitution of t for free occurrences of v."""
    def enter(g: Formula, env: dict[str, Term]) -> dict[str, Term]:
        if not isinstance(g, QUANTIFIERS):
            return env
        inner = {u: s for u, s in env.items() if u != g.var}
        if any(g.var in s.vars() for s in inner.values()):
            taken = set(free_vars(g.body)).union(
                inner, *(s.vars() for s in inner.values()))
            inner[g.var] = Term.var(_fresh(g.var, taken))
        return inner

    return fold(f, _substitute_node, enter, {v: t})


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
