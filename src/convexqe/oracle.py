"""Independent truth oracle by coordinate decomposition.

Group operations act componentwise and the order is lexicographic, so every
formula over a fixture model translates into a boolean combination of
one-dimensional linear-arithmetic conditions over Q, one per coordinate, with
at most one irrational-cut symbol (the deciding threshold entry).  Every such
condition mentions the symbols of one coordinate alone.  So each quantifier
takes one DNF of its body, splits each clause into the literals free of the
variable and one part per coordinate symbol of it, and eliminates each part
on its own with one self-contained Fourier-Motzkin pass with weak bounds, the
substitution step of Loos-Weispfenning (1993): an equation's root is
substituted, or else each lower bound meets each upper bound once, a negated
strict bound being a weak one, so no part splits into cases.  The order is
the rationals with one irrational constant alpha, not any dense order: no
rational point is the root of a form that carries alpha, so a negated strict
bound on such a form stays strict, and no equation ever carries alpha
(equations come from alpha-free coordinates and resolve only with alpha-free
forms).  Negations are carried down to the atoms as a polarity, so no subtree
is negated twice, and <=, != and -> are read at the polarity they stand at.
A quantifier eliminates its own symbols after its inner quantifiers did
theirs, so shadowing captures nothing: the parsed formula is decomposed as it
stands, with no renaming or normalizing pass.  The pass works on primitive
integer linear forms (entries with gcd 1, an equation's leading coefficient
positive), combined only with positive factors: no Fraction arithmetic
happens after decomposition, and an atom has one form whichever multiple of
it arose.

This module deliberately shares no elimination machinery with the main
engines; it is the differential-testing reference.  The residual tree is
compiled to a jump table by the plumbing of ``closures``, which the model
evaluator also uses, but this module lowers its own one-dimensional sign
atoms and alpha comparisons, to one integer-row spec each, with its own
bracket of beta (alpha or -alpha) and its own exact comparison inside it;
``closures`` only reads that spec, at one point or at many.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .closures import AtDenominator, Evaluator, Lowering
from .errors import BudgetExceededError
from .models import (IrrationalOracle, ModelDescriptor, PlusInf, Point,
                     SubgroupLevel)
from .syntax import (And, Atom, AtomF, AtomKind, Exists, FalseF, Forall,
                     Formula, Implies, Not, Or, Term, TrueF, fold)

DEFAULT_ORACLE_BUDGET = 200_000


@dataclass(frozen=True)
class LinForm:
    """Primitive integer linear form over coordinate symbols plus the cut
    symbol alpha: the entries have gcd 1 (or are all zero)."""

    coeffs: tuple[tuple[str, int], ...] = ()
    alpha: int = 0
    const: int = 0

    def coeff(self, sym: str) -> int:
        for s, q in self.coeffs:
            if s == sym:
                return q
        return 0

    def __neg__(self) -> "LinForm":
        return LinForm(tuple((s, -q) for s, q in self.coeffs),
                       -self.alpha, -self.const)


def _primitive(coeffs, alpha: int, const: int) -> LinForm:
    """The form over the nonzero (symbol, int) pairs of coeffs, divided by
    the (positive) gcd of its entries: its sign and zeros are kept."""
    items = sorted((s, q) for s, q in coeffs if q)
    g = math.gcd(alpha, const, *(q for _, q in items))
    if g > 1:
        items = [(s, q // g) for s, q in items]
        alpha //= g
        const //= g
    return LinForm(tuple(items), alpha, const)


def _combine(p: int, f: LinForm, q: int, g: LinForm) -> LinForm:
    """p*f + q*g as a primitive form."""
    d = {s: p * c for s, c in f.coeffs}
    for s, c in g.coeffs:
        d[s] = d.get(s, 0) + q * c
    return _primitive(d.items(), p * f.alpha + q * g.alpha,
                      p * f.const + q * g.const)


class CAtom:
    """form < 0 (kind 'lt') or form = 0 (kind 'eq') over one coordinate.
    A decomposition holds one per distinct atom, in its table."""

    __slots__ = ("form", "kind")

    def __init__(self, form: LinForm, kind: str):  # kind: "lt" | "eq"
        self.form, self.kind = form, kind


# boolean trees: True | False | literal | ("&"|"|", *kids), no kid of the
# same operator as its parent; a literal is an int, n for the atom numbered
# n in the decomposition's table and ~n for its negation
BNode = Union[bool, int, tuple]


class _Decomposer:
    def __init__(self, m: ModelDescriptor, budget: int):
        self.m = m
        self.budget = budget
        # one CAtom per distinct atom, numbered in order of appearance: the
        # same atom recurs across a tree's clauses
        self.atoms: list[CAtom] = []
        self.numbers: dict[tuple, int] = {}  # (kind, *form) -> atom number
        # per (symbol, literal): its case, a bound on the symbol; per kind
        # and pair of (symbol, literal), their resolvent's node.  The same
        # pairs recur across clauses.
        self.cases: dict[tuple[str, int], tuple] = {}
        self.resolvent_nodes: dict[tuple, BNode] = {}
        self.alpha = m.cut.oracle

    # ground decision of symbol-free atoms happens eagerly so trees stay small
    def _ground_sign(self, form: LinForm) -> Optional[int]:
        if form.coeffs:
            return None
        if form.alpha == 0:
            v = form.const
            return -1 if v < 0 else (1 if v > 0 else 0)
        assert self.alpha is not None
        # the sign of alpha - q at the root q = -const/alpha
        s = -self.alpha.compare(Fraction(-form.const, form.alpha))
        return s if form.alpha > 0 else -s

    def lit(self, form: LinForm, kind: str, neg: bool = False) -> BNode:
        s = self._ground_sign(form)
        if s is not None:
            truth = (s < 0) if kind == "lt" else (s == 0)
            return truth != neg
        if kind == "eq" and form.coeffs[0][1] < 0:
            form = -form  # one atom for f = 0 and -f = 0
        key = (kind, form.coeffs, form.alpha, form.const)
        n = self.numbers.get(key)
        if n is None:
            n = self.numbers[key] = len(self.atoms)
            self.atoms.append(CAtom(form, kind))
        return ~n if neg else n

    # -- term decomposition -------------------------------------------------

    def term_coord(self, t: Term, i: int, shifted: bool = False,
                   alpha: int = 0) -> LinForm:
        """Coordinate i of t, less the cut's rational prefix entry if
        shifted, plus alpha times the cut symbol, as a primitive integer
        form."""
        k = self.m.constants
        nums, a, b, c, den = t
        # den * e * (t_i - prefix_i), e the constants' common denominator
        const = c * k.unit[i] + a * k.e_in[i] + b * k.e_out[i]
        if shifted:
            const -= den * k.prefix[i]
        e = k.denom
        return _primitive(((f"{v}#{i}", n * e) for v, n in nums),
                          alpha * den * e, const)

    def lex_step(self, fi: LinForm, rest: BNode) -> BNode:
        """fi < 0, or fi = 0 and rest; fi = 0 is numbered only when rest
        can hold, so the table gets no atom the tree cannot reach."""
        lt = self.lit(fi, "lt")
        if rest is False:
            return lt
        return _bor(lt, _band(self.lit(fi, "eq"), rest))

    def lex_lt_zero(self, t: Term) -> BNode:
        out: BNode = False
        for i in reversed(range(self.m.dim)):
            out = self.lex_step(self.term_coord(t, i), out)
        return out

    def prefix_zero(self, t: Term, k: int) -> BNode:
        return _band(*(self.lit(self.term_coord(t, i), "eq")
                       for i in range(k)))

    def u_atom(self, t: Term) -> BNode:
        m = self.m
        if isinstance(m.u_interp, SubgroupLevel):
            return self.prefix_zero(t, m.u_interp.level)
        cut = m.u_interp

        def walk(i: int) -> BNode:
            if i == m.dim:
                return not cut.strict
            entry = cut.threshold[i]
            if isinstance(entry, PlusInf):
                return True
            if isinstance(entry, Fraction):
                return self.lex_step(self.term_coord(t, i, shifted=True),
                                     walk(i + 1))
            # deciding irrational entry: t_i < alpha, never equal
            return self.lit(self.term_coord(t, i, alpha=-1), "lt")

        return walk(0)

    def i_atom(self, t: Term) -> BNode:
        return self.prefix_zero(t, self.m.cut.stabilizer)

    # -- formula decomposition ----------------------------------------------

    def decompose(self, f: Formula) -> BNode:
        return fold(f, self._node, _polarity, (True, True))

    def _node(self, g: Formula, kids, c) -> BNode:
        # g stands at the polarity c[1], its kids were decomposed at c[0]
        t, pos = type(g), c[1]
        if t is And or t is Or:
            return _join("&" if (t is And) == pos else "|", kids)
        if t is Not:
            return kids[0]
        if t is TrueF or t is FalseF:
            return (t is TrueF) == pos
        if t is Implies:
            # its kids were decomposed at its own polarity
            return _join("|" if pos else "&", (_bnot(kids[0]), kids[1]))
        if t is AtomF:
            node = self.atom(g.atom)
            # t <= 0 is ~(-t < 0), t != 0 is ~(t = 0)
            pos = pos != (g.atom.kind in (AtomKind.LE, AtomKind.NEQ))
        elif t is Exists or t is Forall:
            # A v. phi is ~E v. ~phi, and its body was decomposed negated
            node = self.eliminate(kids[0], g.var)
            pos = pos == (t is Exists)
        else:
            raise TypeError(t)
        return node if pos else _bnot(node)

    def atom(self, a: Atom) -> BNode:
        if a.kind == AtomKind.LT:
            return self.lex_lt_zero(a.term)
        if a.kind == AtomKind.LE:
            return self.lex_lt_zero(-a.term)
        if a.kind == AtomKind.EQ or a.kind == AtomKind.NEQ:
            return self.prefix_zero(a.term, self.m.dim)
        if a.kind == AtomKind.UMEM:
            return self.u_atom(a.term)
        if a.kind == AtomKind.IMEM:
            return self.i_atom(a.term)
        raise AssertionError(a.kind)

    def eliminate(self, body: BNode, var: str) -> BNode:
        """E var. body, from one DNF of body.  A coordinate atom mentions
        the symbols of one coordinate alone, so each clause is its literals
        free of var and, per coordinate symbol var#i, its part in var#i:
        the parts share no eliminated symbol and are eliminated apart.  The
        result is the clauses' disjunction, each clause the conjunction of
        its kept literals and its parts' eliminations.  A clause whose
        elimination is True decides the disjunction, and a part whose
        elimination is False empties its clause, so neither waits for the
        rest."""
        syms = {f"{var}#{i}" for i in range(self.m.dim)}
        atoms = self.atoms
        where: dict[int, Optional[str]] = {}  # atom number -> its var#i
        out: list[BNode] = []
        for clause in _bdnf(body, self.budget):
            kept: list[BNode] = []
            parts: dict[str, list[int]] = {}
            for l in clause:
                a = l if l >= 0 else ~l
                sym = where.get(a, "")
                if sym == "":  # not looked up yet; no symbol is empty
                    sym = where[a] = next(
                        (s for s, _ in atoms[a].form.coeffs if s in syms),
                        None)
                if sym is None:
                    kept.append(l)
                else:
                    parts.setdefault(sym, []).append(l)
            for sym, part in parts.items():
                node = self._eliminate_part(part, sym)
                if node is False:
                    break
                kept.append(node)
            else:
                node = _band(*kept)
                if node is True:
                    return True
                out.append(node)
        return _bor(*out)

    # -- one-dimensional elimination over a dense order ----------------------

    def _eliminate_part(self, part: list[int], sym: str) -> BNode:
        """E sym. part, for literals that all mention sym, as one
        conjunction: an equation's root substituted into the rest, or else
        room between each (lower, upper) pair's roots, none if both are
        weak, and where weak ones meet, at no disequation's root."""
        cases = [self._case_of(l, sym) for l in part]
        eq = next((a for a in cases if a[1] == "eq"), None)
        if eq is not None:
            pairs, diseqs = [(a, eq, a[1]) for a in cases if a is not eq], []
        else:
            lowers = [a for a in cases if a[1] != "neq" and a[2] < 0]
            uppers = [a for a in cases if a[1] != "neq" and a[2] > 0]
            pairs = [(lo, up, "le" if lo[1] == up[1] == "le" else "lt")
                     for lo in lowers for up in uppers]
            diseqs = [a for a in cases if a[1] == "neq"]
        weak = [p for p in pairs if p[2] == "le"] if diseqs else []
        if len(pairs) + len(weak) * len(diseqs) > self.budget:
            raise BudgetExceededError("oracle split budget exceeded")
        nodes: list[BNode] = []
        for a, b, k in pairs:
            node = self._resolvent(a, b, k)
            if node is False:
                return False
            nodes.append(node)
        for lo, up, _ in weak:
            meet = self._resolvent(lo, up, "neq")
            nodes += [_bor(meet, self._resolvent(lo, d, "neq"))
                      for d in diseqs]
        return _band(*nodes)

    def _case_of(self, l: int, sym: str) -> tuple:
        """Literal l as (form, kind, coefficient of sym, (sym, l)), reading
        form < 0, <= 0, = 0 or != 0 by kind "lt", "le", "eq" or "neq": a
        negated strict bound is the reversed weak one, or the reversed
        strict one when its form carries alpha, as no rational point is the
        root of such a form."""
        case = self.cases.get((sym, l))
        if case is None:
            atom = self.atoms[l if l >= 0 else ~l]
            form, kind = atom.form, atom.kind
            if l < 0:
                form, kind = ((-form, "lt" if form.alpha else "le")
                              if kind == "lt" else (form, "neq"))
            case = self.cases[sym, l] = (form, kind, form.coeff(sym), (sym, l))
        return case

    def _resolvent(self, a: tuple, b: tuple, kind: str) -> BNode:
        """The node of R kind 0, for R what case a's form leaves once sym
        is taken at the root of case b's (b an equation, a disequation or
        an upper bound, a then a lower bound, which lies below b iff R <
        0).  The node is built once per kind and pair of literals."""
        key = (a[3], kind, b[3])
        node = self.resolvent_nodes.get(key)
        if node is None:
            f, _, c, _ = a
            g, _, c0, _ = b
            # c0*s + r0 = 0 turns c*s + r into |c0|*r - sign(c0)*c*r0
            form = _combine(abs(c0), f, -c if c0 > 0 else c, g)
            # R <= 0 is ~(-R < 0), R != 0 is ~(R = 0)
            node = self.resolvent_nodes[key] = (
                self.lit(-form, "lt", True) if kind == "le" else
                self.lit(form, "eq" if kind == "neq" else kind, kind == "neq"))
        return node


def _polarity(g: Formula, c: tuple[bool, bool]) -> tuple[bool, bool]:
    """Context of g's children: the polarity they are decomposed at, then
    g's own.  A negation flips it; a quantifier's body starts afresh, a
    universal's negated."""
    t, pos = type(g), c[0]
    if t is Exists or t is Forall:
        return (t is Exists, pos)
    return (pos != (t is Not), pos)


# ---------------------------------------------------------------------------
# boolean-tree helpers


def _join(op: str, nodes: tuple) -> BNode:
    """One op node over nodes, nested op nodes spliced in; True and False
    fold away."""
    unit = op == "&"
    kids: list[BNode] = []
    for n in nodes:
        if n is unit:
            continue
        if n is (not unit):
            return not unit
        if type(n) is tuple and n[0] == op:
            kids.extend(n[1:])
        else:
            kids.append(n)
    if len(kids) > 1:
        return (op, *kids)
    return kids[0] if kids else unit


def _band(*nodes: BNode) -> BNode:
    return _join("&", nodes)


def _bor(*nodes: BNode) -> BNode:
    return _join("|", nodes)


def _bnot(a: BNode) -> BNode:
    """The negation of a by De Morgan's laws, built bottom-up on an
    explicit stack: an entry [op, k] joins the last k results by op."""
    stack: list = [a]
    done: list[BNode] = []
    while stack:
        n = stack.pop()
        if type(n) is bool:
            done.append(not n)
        elif type(n) is int:
            done.append(~n)
        elif type(n) is list:
            op, k = n
            kids = done[-k:]
            del done[-k:]
            done.append(_join(op, kids))
        else:
            stack.append(["|" if n[0] == "&" else "&", len(n) - 1])
            stack.extend(reversed(n[1:]))
    return done[0]


def _bdnf(node: BNode, budget: int) -> list[tuple[int, ...]]:
    # post-order on an explicit stack; each kid but the first is followed by
    # its connective's operator, which joins the last two results (budget
    # checks as for the left-nested binary chain of the kids)
    stack: list = [node]
    done: list = []
    while stack:
        n = stack.pop()
        if type(n) is tuple:
            for kid in reversed(n[2:]):
                stack += (n[0], kid)
            stack.append(n[1])
        elif type(n) is str:
            got = done.pop()
            if n == "|":
                if len(done[-1]) + len(got) > budget:
                    raise BudgetExceededError("oracle DNF budget exceeded")
                done[-1].extend(got)
            else:
                if len(done[-1]) * max(len(got), 1) > budget:
                    raise BudgetExceededError("oracle DNF budget exceeded")
                done[-1] = [a + b for a in done[-1] for b in got]
        else:
            done.append([[]] if n is True else [] if n is False else [[n]])

    out = []
    seen = set()
    for clause in done[0]:
        kept: dict[int, int] = {}  # atom number -> its literal
        for l in clause:
            if kept.setdefault(l if l >= 0 else ~l, l) != l:
                break  # an atom and its negation: the clause is empty
        else:
            # the atoms of a cleaned clause are distinct, so they order it
            cleaned = tuple([kept[a] for a in sorted(kept)])
            if cleaned not in seen:
                seen.add(cleaned)
                out.append(cleaned)
    return out


# ---------------------------------------------------------------------------
# public interface


def _row_terms(form: LinForm) -> tuple[tuple[str, int, int], ...]:
    """The form's (variable, coordinate, coefficient) terms."""
    terms = []
    for sym, q in form.coeffs:
        var, idx = sym.rsplit("#", 1)
        terms.append((var, int(idx), q))
    return tuple(terms)


def _lower_atom(alpha: Optional[IrrationalOracle], a: CAtom):
    """The ``closures`` spec of ``form < 0`` or ``form = 0``: the form's
    symbols and constant are one integer row.  Only a ``form < 0`` carries
    alpha: with a nonzero alpha coefficient ac, at points over d it is
    ``row + ac*d*alpha < 0``, that is ``row / (|ac|*d) < beta`` for beta =
    alpha if ac < 0, else -alpha, decided against the cut's interval
    oracle."""
    form, lt = a.form, a.kind == "lt"
    row = (_row_terms(form), form.const)
    if form.alpha == 0:
        sign, tail = (operator.lt, False) if lt else (operator.eq, True)
        return [row], sign, tail
    ac = form.alpha
    lo, hi, bits = alpha.bracket()
    if ac > 0:
        # x / den < -alpha where alpha < -x / den
        return [], operator.lt, (row, ac, -hi, -lo, bits, lambda x, den:
                                 alpha.compare(Fraction(-x, den)) > 0)
    return [], operator.lt, (row, -ac, lo, hi, bits, lambda x, den:
                             alpha.compare(Fraction(x, den)) < 0)


# a decision at a fixed sample denominator: ``eval`` takes each variable's
# coordinate numerators over it, ``block`` a ``closures.Lanes`` of them
IntOracleEval = AtDenominator


def oracle_compile(m: ModelDescriptor, f: Formula,
                   budget: int = DEFAULT_ORACLE_BUDGET) -> Evaluator:
    """The residual condition of f over m, a boolean tree over coordinate
    atoms in its free variables, lowered to a fresh evaluator.  Nothing is
    kept between calls, so a caller that evaluates many points holds the
    evaluator."""
    d = _Decomposer(m, budget)
    tree, atoms, alpha = d.decompose(f), d.atoms, d.alpha
    return Lowering(lambda n: _lower_atom(alpha, atoms[n])).evaluator(tree)


def oracle_truth(m: ModelDescriptor, f: Formula, asgn: Mapping[str, Point],
                 budget: int = DEFAULT_ORACLE_BUDGET) -> bool:
    """Decide f under asgn by coordinate decomposition (reference path)."""
    return oracle_compile(m, f, budget).eval_points(asgn)
