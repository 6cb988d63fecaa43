"""Atom normalization, DNF, and light simplification.

After ``normalize_atoms`` only LT / EQ / U / I atoms occur and the only
connectives are ~, &, |, E, A.  ``<=`` becomes a negated ``<`` and ``!=`` a
negated ``=``, so downstream code deals with four atom kinds and a polarity
bit.  Each walk here is a callback to ``syntax.fold``: ``dnf_clauses``
carries the polarity down (negation normal form on the way) and multiplies
clause lists up; ``simplify`` folds constants bottom up, leaving connectives
to ``conj`` and ``disj``, with which ``cutqe`` builds conditions simplified.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable, Optional

from .errors import BudgetExceededError
from .syntax import (And, Atom, AtomF, AtomKind, Exists, FALSE, FalseF, Forall,
                     Formula, Implies, Not, Or, TRUE, TrueF, conj, disj, fold,
                     rebuild)

DEFAULT_DNF_BUDGET = 50_000


def _normalize_node(g: Formula, kids, _c) -> Formula:
    t = type(g)
    if t is AtomF:
        a = g.atom
        if a.kind == AtomKind.LE:
            # t <= 0  <=>  ~(-t < 0)
            return Not(AtomF(Atom(AtomKind.LT, -a.term)))
        if a.kind == AtomKind.NEQ:
            return Not(AtomF(Atom(AtomKind.EQ, a.term)))
        return g
    if t is Implies:
        return Or(Not(kids[0]), kids[1])
    return rebuild(g, kids)


def normalize_atoms(f: Formula) -> Formula:
    """Rewrite <= and != away and lower -> to ~/|; equivalent over every
    model."""
    return fold(f, _normalize_node)


@dataclass(frozen=True)
class Literal:
    atom: Atom
    negated: bool = False

    def to_formula(self) -> Formula:
        f: Formula = AtomF(self.atom)
        return Not(f) if self.negated else f

    def sort_key(self):
        return (*self.atom.sort_key(), self.negated)


def _fold_ground(atom: Atom) -> Optional[bool]:
    """Decide relational atoms whose argument is a bare rational multiple of
    the (positive) unit element."""
    t = atom.term
    if not t.is_offset_only:
        return None
    if atom.kind == AtomKind.LT:
        return t.offset < 0
    if atom.kind == AtomKind.EQ:
        return t.offset == 0
    if atom.kind == AtomKind.IMEM and t.offset == 0:
        return True
    if atom.kind == AtomKind.UMEM and t.offset == 0:
        # 0 need not lie in a downward cut in general; do not fold.
        return None
    return None


def literal_truth(lit: Literal) -> Optional[bool]:
    v = _fold_ground(lit.atom)
    if v is None:
        return None
    return (not v) if lit.negated else v


def _flip(g: Formula, positive: bool) -> bool:
    return positive != (type(g) is Not)


def dnf_clauses(f: Formula, budget: int = DEFAULT_DNF_BUDGET) -> list[list[Literal]]:
    """Clause list of a quantifier-free normalized formula; deterministic
    literal ordering, contradictory clauses dropped.  Negations are pushed
    to the literals on the way down, as the polarity of each subformula."""
    def node(h: Formula, kids, positive: bool) -> list[list[Literal]]:
        t = type(h)
        if t is AtomF:
            return [[Literal(h.atom, not positive)]]
        if t is Not:
            return kids[0]
        if t is TrueF or t is FalseF:
            return [[]] if (t is TrueF) == positive else []
        if t is not And and t is not Or:
            raise TypeError("dnf_clauses expects a normalized quantifier-free "
                            f"formula, got {t}")
        # budget checks as for the left-nested binary chain of the args
        size = len(kids[0])
        if (t is Or) == positive:
            for right in kids[1:]:
                size += len(right)
                if size > budget:
                    raise BudgetExceededError("DNF clause budget exceeded")
            return list(chain.from_iterable(kids))
        for right in kids[1:]:
            if size * max(len(right), 1) > budget:
                raise BudgetExceededError("DNF clause budget exceeded")
            size *= len(right)
        return [list(chain.from_iterable(c)) for c in product(*kids)]

    out = []
    seen = set()
    for clause in fold(f, node, _flip, True):
        cleaned = _clean_clause(clause)
        if cleaned is None:
            continue
        key = tuple(cleaned)
        if key not in seen:
            seen.add(key)
            out.append(cleaned)
    return out


def _clean_clause(clause: list[Literal]) -> Optional[list[Literal]]:
    kept: dict = {}
    for lit in clause:
        v = literal_truth(lit)
        if v is True:
            continue
        if v is False:
            return None
        prev = kept.get(lit.atom)
        if prev is None:
            kept[lit.atom] = lit
        elif prev.negated != lit.negated:
            return None
    return sorted(kept.values(), key=Literal.sort_key)


def clause_formula(clause: Iterable[Literal]) -> Formula:
    return conj(l.to_formula() for l in clause)


def to_dnf(f: Formula, budget: int = DEFAULT_DNF_BUDGET) -> Formula:
    """Disjunction of conjunctions of literals, equivalent to the input."""
    return disj(clause_formula(c) for c in dnf_clauses(f, budget))


def negate(f: Formula) -> Formula:
    """~f with constants and double negation folded."""
    t = type(f)
    if t is TrueF or t is FalseF:
        return FALSE if t is TrueF else TRUE
    return f.sub if t is Not else Not(f)


def simplify_node(g: Formula, kids, _c=None) -> Formula:
    """simplify's step at one node whose children are already simplified."""
    t = type(g)
    if t is AtomF:
        v = _fold_ground(g.atom)
        return g if v is None else (TRUE if v else FALSE)
    if t is And:
        return conj(kids)
    if t is Or:
        return disj(kids)
    if t is Not:
        return negate(kids[0])
    if t is Implies:
        return disj((negate(kids[0]), kids[1]))
    if t is Exists or t is Forall:
        body = kids[0]
        return body if type(body) in (TrueF, FalseF) else rebuild(g, kids)
    return g


def simplify(f: Formula) -> Formula:
    """Bottom-up constant folding; the connectives are rebuilt by conj and
    disj, which also splice nested ones and drop repeated arguments.
    Preserves equivalence."""
    return fold(f, simplify_node)
