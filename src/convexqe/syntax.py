"""Terms, atoms and first-order formulas over the group signature
{+, -, 0, rational scalars, <, =, U, I, e_in, e_out}.

Terms are kept in a sparse canonical linear form (sorted variables, no zero
coefficients), so structural equality coincides with equality as linear
expressions.  Rational literals denote multiples of the designated unit
element of the ambient model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

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
    def is_constant(self) -> bool:
        return not self.coeffs

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

    def subst(self, v: str, t: "Term") -> "Term":
        c = self.coeff(v)
        if c == 0:
            return self
        return self.drop_var(v) + t.scale(c)

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


# ---------------------------------------------------------------------------
# Atoms


class AtomKind(Enum):
    LT = "<"
    LE = "<="
    EQ = "="
    NEQ = "!="
    UMEM = "U"
    IMEM = "I"


RELATIONAL = (AtomKind.LT, AtomKind.LE, AtomKind.EQ, AtomKind.NEQ)
NORMAL_KINDS = (AtomKind.LT, AtomKind.EQ, AtomKind.UMEM, AtomKind.IMEM)


@dataclass(frozen=True)
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

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class AtomF(Formula):
    atom: Atom


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


TRUE = TrueF()
FALSE = FalseF()


def atom(kind: AtomKind, term: Term) -> Formula:
    return AtomF(Atom(kind, term))


def lt(t: Term) -> Formula:
    """t < 0."""
    return atom(AtomKind.LT, t)


def gt(t: Term) -> Formula:
    """t > 0."""
    return atom(AtomKind.LT, -t)


def eq(t: Term) -> Formula:
    return atom(AtomKind.EQ, t)


def umem(t: Term) -> Formula:
    return atom(AtomKind.UMEM, t)


def imem(t: Term) -> Formula:
    return atom(AtomKind.IMEM, t)


def conj(fs: Iterable[Formula]) -> Formula:
    acc: Optional[Formula] = None
    for f in fs:
        if isinstance(f, TrueF):
            continue
        if isinstance(f, FalseF):
            return FALSE
        acc = f if acc is None else And(acc, f)
    return acc if acc is not None else TRUE


def disj(fs: Iterable[Formula]) -> Formula:
    acc: Optional[Formula] = None
    for f in fs:
        if isinstance(f, FalseF):
            continue
        if isinstance(f, TrueF):
            return TRUE
        acc = f if acc is None else Or(acc, f)
    return acc if acc is not None else FALSE


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Not):
        return (f.sub,)
    if isinstance(f, (And, Or, Implies)):
        return (f.lhs, f.rhs)
    if isinstance(f, (Exists, Forall)):
        return (f.body,)
    return ()


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    for c in children(f):
        yield from subformulas(c)


def atoms_of(f: Formula) -> Iterator[Atom]:
    for g in subformulas(f):
        if isinstance(g, AtomF):
            yield g.atom


def mentions_membership(f: Formula) -> bool:
    """Whether f has a U or I atom."""
    return any(a.kind in (AtomKind.UMEM, AtomKind.IMEM) for a in atoms_of(f))


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, AtomF):
        return f.atom.term.vars()
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.body) - {f.var}
    out: frozenset[str] = frozenset()
    for c in children(f):
        out |= free_vars(c)
    return out


def bound_vars(f: Formula) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for g in subformulas(f):
        if isinstance(g, (Exists, Forall)):
            out |= {g.var}
    return out


def is_quantifier_free(f: Formula) -> bool:
    return not any(isinstance(g, (Exists, Forall)) for g in subformulas(f))


def _fresh(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    for i in itertools.count(1):
        cand = f"{base}_{i}"
        if cand not in taken:
            return cand
    raise AssertionError


def _rename_binders(f: Formula, fresh: Callable[[str], str]) -> Formula:
    """Rebind every quantifier, in traversal order, to fresh(old name)."""
    def walk(g: Formula, env: dict[str, str]) -> Formula:
        if isinstance(g, AtomF):
            t = g.atom.term
            for old, new in env.items():
                if old != new:
                    t = t.subst(old, Term.var(new))
            return AtomF(Atom(g.atom.kind, t))
        if isinstance(g, (TrueF, FalseF)):
            return g
        if isinstance(g, Not):
            return Not(walk(g.sub, env))
        if isinstance(g, (And, Or, Implies)):
            return type(g)(walk(g.lhs, env), walk(g.rhs, env))
        if isinstance(g, (Exists, Forall)):
            new = fresh(g.var)
            return type(g)(new, walk(g.body, {**env, g.var: new}))
        raise TypeError(type(g))

    return walk(f, {})


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


def substitute(f: Formula, v: str, t: Term) -> Formula:
    """Capture-avoiding substitution of t for free occurrences of v."""
    if isinstance(f, AtomF):
        return AtomF(Atom(f.atom.kind, f.atom.term.subst(v, t)))
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, Not):
        return Not(substitute(f.sub, v, t))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(substitute(f.lhs, v, t), substitute(f.rhs, v, t))
    if isinstance(f, (Exists, Forall)):
        if f.var == v:
            return f
        if f.var in t.vars():
            taken = set(free_vars(f.body)) | t.vars() | {v}
            new = _fresh(f.var, taken)
            body = substitute(f.body, f.var, Term.var(new))
            return type(f)(new, substitute(body, v, t))
        return type(f)(f.var, substitute(f.body, v, t))
    raise TypeError(type(f))


# ---------------------------------------------------------------------------
# Printing

_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_NOT = 4
_PREC_ATOM = 5


def print_formula(f: Formula) -> str:
    def go(g: Formula, prec: int) -> str:
        if isinstance(g, TrueF):
            return "true"
        if isinstance(g, FalseF):
            return "false"
        if isinstance(g, AtomF):
            return str(g.atom)
        if isinstance(g, Not):
            s = "~" + go(g.sub, _PREC_NOT)
            return s if prec <= _PREC_NOT else f"({s})"
        if isinstance(g, And):
            s = go(g.lhs, _PREC_AND) + " & " + go(g.rhs, _PREC_AND + 1)
            return s if prec <= _PREC_AND else f"({s})"
        if isinstance(g, Or):
            s = go(g.lhs, _PREC_OR) + " | " + go(g.rhs, _PREC_OR + 1)
            return s if prec <= _PREC_OR else f"({s})"
        if isinstance(g, Implies):
            s = go(g.lhs, _PREC_IMPLIES + 1) + " -> " + go(g.rhs, _PREC_IMPLIES)
            return s if prec <= _PREC_IMPLIES else f"({s})"
        if isinstance(g, (Exists, Forall)):
            q = "E" if isinstance(g, Exists) else "A"
            s = f"{q} {g.var}. " + go(g.body, _PREC_IMPLIES)
            return s if prec <= _PREC_IMPLIES else f"({s})"
        raise TypeError(type(g))

    return go(f, _PREC_IMPLIES)
