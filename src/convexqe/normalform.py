"""DNF and simplification.

Each walk here is a callback to ``syntax.fold``: ``dnf_clauses`` carries
the polarity down (negation normal form on the way) and multiplies clause
lists up, keeping each literal as the input's own ``AtomF`` leaf or ``Not``
of it; ``simplify`` folds constants bottom up, leaving connectives to
``conj`` and ``disj``, with which ``cutqe`` builds conditions simplified.
No pass rewrites ``<=``, ``!=`` or ``->``: each reader takes them as they
stand.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Optional

from .errors import BudgetExceededError
from .syntax import (And, Atom, AtomF, AtomKind, Exists, FALSE, FalseF, Forall,
                     Formula, Implies, Not, Or, TRUE, TrueF, conj, disj, fold,
                     rebuild)

DEFAULT_DNF_BUDGET = 50_000


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
    # 0 need not lie in a downward cut in general: U atoms do not fold
    return None


def _flip(g: Formula, positive: bool) -> bool:
    return positive != (type(g) is Not)


def split_literal(lit: Formula) -> tuple[Atom, bool]:
    """The atom of a DNF literal (an ``AtomF`` leaf or its negation) and
    whether it is negated."""
    return (lit.sub.atom, True) if type(lit) is Not else (lit.atom, False)


def dnf_clauses(f: Formula, budget: int = DEFAULT_DNF_BUDGET) -> list[list[Formula]]:
    """Clause list of a quantifier-free formula without ->; deterministic
    literal ordering, contradictory clauses dropped.  Negations are pushed
    to the literals on the way down, as the polarity of each subformula: a
    literal is f's own ``AtomF`` leaf, or ``Not`` of it."""
    def node(h: Formula, kids, positive: bool) -> list[list[Formula]]:
        t = type(h)
        if t is AtomF:
            return [[h if positive else Not(h)]]
        if t is Not:
            return kids[0]
        if t is TrueF or t is FalseF:
            return [[]] if (t is TrueF) == positive else []
        if t is not And and t is not Or:
            raise TypeError("dnf_clauses expects a quantifier-free formula "
                            f"without ->, got {t}")
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


def _literal_key(lit: Formula):
    atom, negated = split_literal(lit)
    return (*atom.sort_key(), negated)


def _clean_clause(clause: list[Formula]) -> Optional[list[Formula]]:
    """The clause's literals, each once and in sorted order; None when an
    atom occurs at both polarities.  Ground literals are kept: the engine's
    bodies are built simplified, so it passes none."""
    kept: dict = {}
    for lit in clause:
        atom = split_literal(lit)[0]
        prev = kept.get(atom)
        if prev is None:
            kept[atom] = lit
        elif type(prev) is not type(lit):
            return None
    return sorted(kept.values(), key=_literal_key)


def to_dnf(f: Formula, budget: int = DEFAULT_DNF_BUDGET) -> Formula:
    """Disjunction of conjunctions of literals, equivalent to the input."""
    return disj(conj(c) for c in dnf_clauses(f, budget))


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
