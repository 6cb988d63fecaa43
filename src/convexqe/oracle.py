"""Independent truth oracle by coordinate decomposition.

Group operations act componentwise and the order is lexicographic, so every
formula over a fixture model translates into a boolean combination of
one-dimensional linear-arithmetic conditions over Q, one per coordinate,
with at most one irrational-cut symbol (the deciding threshold entry).
Each quantifier is eliminated coordinate-by-coordinate with a small,
self-contained Fourier-Motzkin pass over a dense order without endpoints.

This module deliberately shares no elimination machinery with the main
engines; it is the differential-testing reference.  The residual tree is
evaluated by the closure plumbing of ``closures``, which the model evaluator
also uses, but this module lowers its own one-dimensional sign atoms and
alpha comparisons.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .closures import (BUDGET, DENOM, Evaluator, Lowering, int_row,
                       lcm_denominators, nary, neg)
from .errors import BudgetExceededError
from .models import (DEFAULT_PRECISION_BITS, DownwardCut, IrrationalOracle,
                     ModelDescriptor, PlusInf, Point, SubgroupLevel)
from .normalform import normalize_atoms
from .syntax import (And, AtomF, AtomKind, Exists, FalseF, Forall, Formula,
                     Not, Or, Term, TrueF, fold, rename_bound)

DEFAULT_ORACLE_BUDGET = 200_000

ZERO = Fraction(0)


@dataclass(frozen=True)
class LinForm:
    """Linear form over coordinate symbols plus the cut symbol alpha."""

    coeffs: tuple[tuple[str, Fraction], ...] = ()
    alpha: Fraction = ZERO
    const: Fraction = ZERO

    @staticmethod
    def make(coeffs: Mapping[str, Fraction], alpha=ZERO, const=ZERO) -> "LinForm":
        items = tuple(sorted((s, q) for s, q in coeffs.items() if q != 0))
        return LinForm(items, Fraction(alpha), Fraction(const))

    def coeff(self, sym: str) -> Fraction:
        for s, q in self.coeffs:
            if s == sym:
                return q
        return ZERO

    def drop(self, sym: str) -> "LinForm":
        return LinForm(tuple((s, q) for s, q in self.coeffs if s != sym),
                       self.alpha, self.const)

    def add(self, other: "LinForm") -> "LinForm":
        d = dict(self.coeffs)
        for s, q in other.coeffs:
            d[s] = d.get(s, ZERO) + q
        return LinForm.make(d, self.alpha + other.alpha, self.const + other.const)

    def scale(self, q: Fraction) -> "LinForm":
        if q == 0:
            return LinForm()
        return LinForm(tuple((s, c * q) for s, c in self.coeffs),
                       self.alpha * q, self.const * q)

    def subst(self, sym: str, repl: "LinForm") -> "LinForm":
        c = self.coeff(sym)
        if c == 0:
            return self
        return self.drop(sym).add(repl.scale(c))

    @property
    def ground(self) -> bool:
        return not self.coeffs


@dataclass(frozen=True)
class CAtom:
    """form < 0 (kind 'lt') or form = 0 (kind 'eq') over one coordinate."""

    form: LinForm
    kind: str  # "lt" | "eq"

    def sort_key(self):
        return (self.kind, self.form.coeffs, self.form.alpha, self.form.const)


@dataclass(frozen=True)
class CLit:
    atom: CAtom
    neg: bool = False

    def sort_key(self):
        return (*self.atom.sort_key(), self.neg)


# boolean trees: True | False | CLit | ("&"|"|", *kids), no kid of the
# same operator as its parent
BNode = Union[bool, CLit, tuple]


class _Decomposer:
    def __init__(self, m: ModelDescriptor, budget: int):
        self.m = m
        self.budget = budget
        self.alpha: Optional[IrrationalOracle] = None
        if isinstance(m.u_interp, DownwardCut):
            for e in m.u_interp.threshold:
                if isinstance(e, IrrationalOracle):
                    self.alpha = e
                    break

    # ground decision of symbol-free atoms happens eagerly so trees stay small
    def _ground_sign(self, form: LinForm) -> Optional[int]:
        if form.coeffs:
            return None
        if form.alpha == 0:
            v = form.const
            return -1 if v < 0 else (1 if v > 0 else 0)
        assert self.alpha is not None
        q = -form.const / form.alpha
        s = -self.alpha.compare(q)  # sign of (alpha - q)
        return s if form.alpha > 0 else -s

    def lit(self, form: LinForm, kind: str, neg: bool = False) -> BNode:
        s = self._ground_sign(form)
        if s is not None:
            truth = (s < 0) if kind == "lt" else (s == 0)
            return truth != neg
        return CLit(CAtom(form, kind), neg)

    # -- term decomposition -------------------------------------------------

    def term_coord(self, t: Term, i: int) -> LinForm:
        m = self.m
        const = (t.offset * m.unit.coords[i] + t.e_in * m.e_in.coords[i]
                 + t.e_out * m.e_out.coords[i])
        coeffs = {f"{v}#{i}": q for v, q in t.coeffs}
        return LinForm.make(coeffs, ZERO, const)

    def lex_lt_zero(self, t: Term) -> BNode:
        out: BNode = False
        for i in reversed(range(self.m.dim)):
            fi = self.term_coord(t, i)
            out = _bor(self.lit(fi, "lt"), _band(self.lit(fi, "eq"), out))
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
            fi = self.term_coord(t, i)
            if isinstance(entry, PlusInf):
                return True
            if isinstance(entry, Fraction):
                below = self.lit(fi.add(LinForm(const=-entry)), "lt")
                ateq = self.lit(fi.add(LinForm(const=-entry)), "eq")
                return _bor(below, _band(ateq, walk(i + 1)))
            # deciding irrational entry: t_i < alpha, never equal
            return self.lit(fi.add(LinForm(alpha=Fraction(-1))), "lt")

        return walk(0)

    def i_atom(self, t: Term) -> BNode:
        return self.prefix_zero(t, self.m.stabilizer_level())

    # -- formula decomposition ----------------------------------------------

    def decompose(self, f: Formula) -> BNode:
        return fold(f, self._node)

    def _node(self, g: Formula, kids, _c) -> BNode:
        t = type(g)
        if t is AtomF:
            a = g.atom
            if a.kind == AtomKind.LT:
                return self.lex_lt_zero(a.term)
            if a.kind == AtomKind.EQ:
                return self.prefix_zero(a.term, self.m.dim)
            if a.kind == AtomKind.UMEM:
                return self.u_atom(a.term)
            if a.kind == AtomKind.IMEM:
                return self.i_atom(a.term)
            raise AssertionError(a.kind)
        if t is And:
            return _band(*kids)
        if t is Or:
            return _bor(*kids)
        if t is Not:
            return _bnot(kids[0])
        if t is Exists:
            return self.eliminate(kids[0], g.var)
        if t is Forall:
            return _bnot(self.eliminate(_bnot(kids[0]), g.var))
        if t is TrueF or t is FalseF:
            return t is TrueF
        raise TypeError(t)

    def eliminate(self, body: BNode, var: str) -> BNode:
        for i in range(self.m.dim):
            body = self.eliminate_sym(body, f"{var}#{i}")
        return body

    # -- one-dimensional elimination over a dense order ----------------------

    def eliminate_sym(self, node: BNode, sym: str) -> BNode:
        out: list[BNode] = []
        for clause in _bdnf(node, self.budget):
            if any(l.atom.form.coeff(sym) != 0 for l in clause):
                out.extend(self._eliminate_clause(clause, sym))
            else:
                out.append(_band(*clause))
        return _bor(*out)

    def _eliminate_clause(self, clause: list[CLit], sym: str) -> list[BNode]:
        passthrough = [l for l in clause if l.atom.form.coeff(sym) == 0]
        with_sym = [l for l in clause if l.atom.form.coeff(sym) != 0]

        # split negated strict bounds into reversed-strict or equality
        choices: list[list[tuple[LinForm, str]]] = [[]]
        for l in with_sym:
            form, kind, neg = l.atom.form, l.atom.kind, l.neg
            if not neg:
                opts = [(form, kind)]
            elif kind == "lt":
                opts = [(form.scale(Fraction(-1)), "lt"), (form, "eq")]
            else:
                opts = [(form, "neq")]
            choices = [c + [o] for c in choices for o in opts]
            if len(choices) > self.budget:
                raise BudgetExceededError("oracle split budget exceeded")

        results: list[BNode] = []
        for combo in choices:
            eqs = [(f, k) for f, k in combo if k == "eq"]
            extra: list[BNode] = []
            if eqs:
                f0, _ = eqs[0]
                c = f0.coeff(sym)
                repl = f0.drop(sym).scale(Fraction(-1) / c)
                ok = True
                for f, k in combo:
                    if (f, k) is eqs[0]:
                        continue
                    g = f.subst(sym, repl)
                    if k == "neq":
                        n = self.lit(g, "eq", neg=True)
                    else:
                        n = self.lit(g, k)
                    if n is False:
                        ok = False
                        break
                    if n is not True:
                        extra.append(n)
                if not ok:
                    continue
            else:
                lowers: list[LinForm] = []
                uppers: list[LinForm] = []
                for f, k in combo:
                    if k == "neq":
                        continue  # density: finitely many points never empty an open set
                    c = f.coeff(sym)
                    bound = f.drop(sym).scale(Fraction(-1) / c)
                    (uppers if c > 0 else lowers).append(bound)
                ok = True
                for lo in lowers:
                    for up in uppers:
                        n = self.lit(lo.add(up.scale(Fraction(-1))), "lt")
                        if n is False:
                            ok = False
                            break
                        if n is not True:
                            extra.append(n)
                    if not ok:
                        break
                if not ok:
                    continue
            results.append(_band(*passthrough, *extra))
        return results


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
    if type(a) is bool:
        return not a
    if isinstance(a, CLit):
        return CLit(a.atom, not a.neg)
    negated = [_bnot(n) for n in a[1:]]
    return _bor(*negated) if a[0] == "&" else _band(*negated)


def _bdnf(node: BNode, budget: int) -> list[list[CLit]]:
    def go(n: BNode) -> list[list[CLit]]:
        if n is True:
            return [[]]
        if n is False:
            return []
        if isinstance(n, CLit):
            return [[n]]
        # budget checks as for the left-nested binary chain of the kids
        out = go(n[1])
        for kid in n[2:]:
            right = go(kid)
            if n[0] == "|":
                if len(out) + len(right) > budget:
                    raise BudgetExceededError("oracle DNF budget exceeded")
                out.extend(right)
            else:
                if len(out) * max(len(right), 1) > budget:
                    raise BudgetExceededError("oracle DNF budget exceeded")
                out = [a + b for a in out for b in right]
        return out

    out = []
    seen = set()
    for clause in go(node):
        kept: dict = {}
        drop = False
        for lit in clause:
            key = lit.atom.sort_key()
            prev = kept.get(key)
            if prev is None:
                kept[key] = lit
            elif prev.neg != lit.neg:
                drop = True
                break
        if drop:
            continue
        cleaned = sorted(kept.values(), key=CLit.sort_key)
        key2 = tuple(l.sort_key() for l in cleaned)
        if key2 not in seen:
            seen.add(key2)
            out.append(cleaned)
    return out


# ---------------------------------------------------------------------------
# public interface


def _lower_atom(alpha: Optional[IrrationalOracle], a: CAtom):
    """Test closure for ``form < 0`` or ``form = 0``: the form's symbols
    and constant become one integer row scaled by the lcm of their
    denominators, and a nonzero alpha coefficient is decided against the
    cut's interval oracle."""
    form, lt = a.form, a.kind == "lt"
    lc = lcm_denominators([q for _, q in form.coeffs]
                          + [form.alpha, form.const])
    terms = []
    for sym, q in form.coeffs:
        var, idx = sym.rsplit("#", 1)
        terms.append((var, int(idx), int(q * lc)))
    row = int_row(tuple(terms), int(form.const * lc))
    if form.alpha == 0:
        if lt:
            return lambda p, f: row(p, f[DENOM]) < 0
        return lambda p, f: row(p, f[DENOM]) == 0
    ac = int(form.alpha * lc)

    def test(p, f) -> bool:
        # row + ac*d*alpha < 0  <=>  alpha lies on ac's side of -row/(ac*d)
        d = f[DENOM]
        above = alpha.compare(Fraction(-row(p, d), ac * d), f[BUDGET]) > 0
        return lt and above == (ac > 0)  # never 0: alpha is irrational
    return test


class OracleDecision:
    """Residual condition of a formula over one model: a boolean tree over
    coordinate atoms in the free variables, lowered to closures for
    evaluation per assignment."""

    def __init__(self, tree: BNode, alpha: Optional[IrrationalOracle]):
        self.tree = tree
        self.alpha = alpha
        self._evaluator: Optional[Evaluator] = None

    def lower(self) -> Evaluator:
        """A fresh evaluator of the tree.  Decisions live in the compile
        cache, so only the Fraction path below keeps its evaluator."""
        low = Lowering(lambda a: _lower_atom(self.alpha, a))

        def go(n):
            if type(n) is bool:
                return n
            if isinstance(n, CLit):
                leaf = low.leaf(n.atom)
                return neg(leaf) if n.neg else leaf
            return nary(n[0], [go(k) for k in n[1:]])

        return low.evaluator(go(self.tree))

    def eval(self, asgn: Mapping[str, Point],
             precision: int = DEFAULT_PRECISION_BITS) -> bool:
        if self._evaluator is None:
            self._evaluator = self.lower()
        return self._evaluator.eval_points(asgn, precision)


class IntOracleEval:
    """A decision at a fixed sample denominator: ``eval`` takes each
    variable's coordinate numerators over ``denom``."""

    def __init__(self, dec: OracleDecision, denom: int):
        self.eval = dec.lower().at(denom, DEFAULT_PRECISION_BITS)


@functools.lru_cache(maxsize=4096)
def _compile(m: ModelDescriptor, f: Formula, budget: int) -> OracleDecision:
    d = _Decomposer(m, budget)
    tree = d.decompose(normalize_atoms(rename_bound(f)))
    return OracleDecision(tree, d.alpha)


def oracle_compile(m: ModelDescriptor, f: Formula,
                   budget: int = DEFAULT_ORACLE_BUDGET) -> OracleDecision:
    return _compile(m, f, budget)


def oracle_truth(m: ModelDescriptor, f: Formula, asgn: Mapping[str, Point],
                 budget: int = DEFAULT_ORACLE_BUDGET,
                 precision: int = DEFAULT_PRECISION_BITS) -> bool:
    """Decide f under asgn by coordinate decomposition (reference path)."""
    return _compile(m, f, budget).eval(asgn, precision)
