"""Quantifier elimination and Skolem-witness extraction for the language
with the convex predicate U and its stabilizer subgroup I.

Every literal mentioning the eliminated variable v confines it to a convex
set on the line, a constraint of one kind: a strict point bound, a coset
c + W of the working subgroup W, the region above or below such a coset,
or (for cuts whose quotient edge is irrational) a cut ray whose endpoint is
an affine image of the cut.  Convex sets on a line satisfy the pairwise
Helly property, so the existential reduces to pairwise compatibility
conditions, the comparison table, each a constraint at v := w.  Point
bounds are the finest, coset bounds next, cut rays the coarsest: a lower
and an upper bound are compatible iff the finer one's endpoint satisfies
the coarser one (on a tie, the upper endpoint is tested against the lower
bound), and two rays compare their endpoints.  A coset c + W meets a coset
constraint or a ray iff c satisfies it, a lower point unless that lies
above c + W, and an upper point unless it lies below.  Equalities are
substituted first; with no equality the intersection has no greatest or
least element, so disequalities are discharged by density.

Interpretation classes:

* subgroup         - U itself is the working subgroup (I coincides with it);
* coset-topped cut - the cut is {x : x <= t + I} for a term t naming the top
                     coset; U-atoms are rewritten into order and I atoms;
* irrational cut   - the quotient edge is irrational; U-literals become cut
                     rays handled by the endpoint comparison table;
* rational cut     - U-atoms become order atoms against the threshold term,
                     leaving no membership vocabulary: only the point cells
                     of the table fire, which is Fourier-Motzkin;
* nonvaluational   - refused: no complete Skolemizing elimination exists.

The pure ordered-group language (``qe``, and U/I-free input over a
nonvaluational cut) runs the same procedure under ``PURE_GROUP``, a
model-free structure with no membership vocabulary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .cutarith import edge_member, edge_sign, escape_witness
from .doagqe import QeOptions
from .errors import (BudgetExceededError, NonvaluationalInterpretationError,
                     SkolemShapeUnsupportedError, UnsupportedCutError)
from .models import (CutClass, DownwardCut, ModelDescriptor, Point,
                     SubgroupLevel, compile_formula, term_value, u_member)
from .normalform import dnf_clauses, negate, simplify_node, split_literal
from .piecewise import UnaryPiecewiseLinear
from .syntax import (Atom, AtomF, AtomKind, Exists, FalseF, Forall,
                     Formula, Not, Term, conj, disj, fold,
                     mentions_membership)

F0 = Fraction(0)
F1 = Fraction(1)


@dataclass(frozen=True)
class CutStructure:
    """Elimination-relevant shape of one model's U interpretation."""

    model: Optional[ModelDescriptor]  # None only for PURE_GROUP
    cls: Optional[CutClass]  # None only for PURE_GROUP
    mem_kind: Optional[AtomKind]  # kind whose cosets drive the machinery;
                                  # None: no membership vocabulary
    tau: Optional[Term] = None  # names the top coset / rational threshold
    strict: bool = True
    anchor_in: Term = Term(e_in=F1)  # a term provably inside the cut

    def require_eliminable(self):
        if self.cls is CutClass.NONVALUATIONAL:
            raise NonvaluationalInterpretationError(
                "the cut has trivial stabilizer; elimination would be unsound")


# the pure ordered-group language: no model, no U/I atoms
PURE_GROUP = CutStructure(None, None, None)


def _inside_anchor(m: ModelDescriptor) -> Term:
    """A closed term whose value provably lies in the cut; e_in when the cut
    contains it, otherwise a negative multiple of the unit."""
    if u_member(m, m.e_in):
        return Term(e_in=F1)
    n = 1
    while n < 2 ** 64:
        if u_member(m, m.unit.scale(-n)):
            return Term.const(-n)
        n *= 2
    raise UnsupportedCutError("no rational multiple of the unit is inside the cut")


def _solve_columns(cols: list[tuple[Fraction, ...]],
                   target: tuple[Fraction, ...]) -> Optional[list[Fraction]]:
    """One exact solution of sum_i x_i * cols[i] = target, or None."""
    rows = len(target)
    ncols = len(cols)
    aug = [[cols[c][r] for c in range(ncols)] + [target[r]] for r in range(rows)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pivot = aug[r][c]
        aug[r] = [v / pivot for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][ncols] != 0:
            return None
    sol = [F0] * ncols
    for pr, pc in pivots:
        sol[pc] = aug[pr][ncols]
    return sol


def build_structure(m: ModelDescriptor) -> CutStructure:
    cls, target = m.cut.cls, m.cut.prefix
    if cls is CutClass.SUBGROUP:
        return CutStructure(m, cls, AtomKind.UMEM)
    if cls is CutClass.NONVALUATIONAL:
        return CutStructure(m, cls, AtomKind.IMEM)
    if cls is CutClass.IRRATIONAL_CUT:
        return CutStructure(m, cls, AtomKind.IMEM, anchor_in=_inside_anchor(m))
    unit = m.unit
    if cls is CutClass.COSET_CUT:
        k = len(target)
        cols = [tuple(unit.coords[:k]), tuple(m.e_out.coords[:k])]
        sol = _solve_columns(cols, target)
        if sol is None:
            raise UnsupportedCutError(
                "no closed term names the cut's top coset; quantifier-free "
                "answers do not exist in this language")
        tau = Term.const(sol[0]) + Term.eout(sol[1])
        return CutStructure(m, cls, AtomKind.IMEM, tau,
                            anchor_in=_inside_anchor(m))
    # rational cut: name the threshold point itself
    cols = [tuple(unit.coords), tuple(m.e_in.coords), tuple(m.e_out.coords)]
    sol = _solve_columns(cols, target)
    if sol is None:
        raise UnsupportedCutError(
            "no closed term names the rational threshold point")
    tau = Term.const(sol[0]) + Term.ein(sol[1]) + Term.eout(sol[2])
    return CutStructure(m, cls, None, tau, m.u_interp.strict)


# ---------------------------------------------------------------------------
# the one atom step: <= and != as negated < and =, and the class rewrites


def _class_atom(g: AtomF, st: CutStructure) -> Formula:
    """The atom g in the working vocabulary of st's class, built simplified:
    <, =, and the membership atoms the class keeps."""
    kind, t = g.atom.kind, g.atom.term
    if kind == AtomKind.LE:
        return negate(_atom(AtomKind.LT, -t))  # t <= 0  <=>  ~(-t < 0)
    if kind == AtomKind.NEQ:
        return negate(_atom(AtomKind.EQ, t))
    if st.cls is CutClass.SUBGROUP and kind == AtomKind.IMEM:
        # the stabilizer of the closure is U itself
        return _atom(AtomKind.UMEM, t)
    if st.cls is CutClass.COSET_CUT and kind == AtomKind.UMEM:
        # t in U  <=>  t - tau < 0  or  I(t - tau)
        d = t - st.tau
        return disj((_atom(AtomKind.LT, d), _atom(AtomKind.IMEM, d)))
    if st.cls is CutClass.RATIONAL_CUT and kind == AtomKind.UMEM:
        if st.strict:
            return _atom(AtomKind.LT, t - st.tau)
        return negate(_atom(AtomKind.LT, st.tau - t))
    if st.cls is CutClass.RATIONAL_CUT and kind == AtomKind.IMEM:
        return _atom(AtomKind.EQ, t)  # trivial stabilizer
    return simplify_node(g, ())


# ---------------------------------------------------------------------------
# constraint extraction


@dataclass(frozen=True)
class CutRay:
    """The literal (not positive => negated) U(a*v + s): a ray whose virtual
    endpoint is (sup U - s)/a."""

    a: Fraction
    s: Term
    positive: bool

    @property
    def is_upper(self) -> bool:
        return self.positive == (self.a > 0)

    def literal_at(self, t: Term) -> Formula:
        at = AtomF(Atom(AtomKind.UMEM, t.scale(self.a) + self.s))
        return at if self.positive else Not(at)


# the constraint kinds, in the order a branch instantiates them
_KINDS = ("eq", "neq", "lower", "upper", "mem", "above", "below", "ray")


@dataclass
class PureBranch:
    """One case of a conjunct after all non-convex literals are split: the
    literals without v, and the data of each convex constraint by kind."""

    residual: list[Formula]
    cons: dict[str, list]


def _branch_options(a: Atom, negated: bool, v: str,
                    st: CutStructure) -> list[tuple]:
    """Per-literal convex cases; each option is a kind plus its data."""
    t = a.term
    n = t.num(v)  # v's coefficient is n / t.den
    rest = t.drop_var(v)
    solved = rest.scale_ratio(-t.den, n)
    kind = a.kind
    if kind == AtomKind.LT:
        if not negated:
            return [(("upper" if n > 0 else "lower"), solved)]
        # ~(t < 0): -t < 0 or t = 0
        return [(("lower" if n > 0 else "upper"), solved), ("eq", solved)]
    if kind == AtomKind.EQ:
        return [("neq" if negated else "eq", solved)]
    if kind == st.mem_kind:
        if not negated:
            return [("mem", solved)]
        return [("above", solved), ("below", solved)]
    if kind == AtomKind.UMEM and st.cls is CutClass.IRRATIONAL_CUT:
        return [("ray", CutRay(Fraction(n, t.den), rest, not negated))]
    raise ValueError(f"{a} is outside the vocabulary of {st.cls}")


def _expand(literals: Iterable[Formula], v: str, st: CutStructure,
            budget: int) -> list[PureBranch]:
    residual = []
    with_v = []
    for lit in literals:
        atom, negated = split_literal(lit)
        if not atom.term.num(v):
            residual.append(lit)
        else:
            with_v.append((atom, negated))
    options = []
    n = 1  # the case count, checked as each literal's cases multiply in
    for atom, negated in with_v:
        options.append(_branch_options(atom, negated, v, st))
        n *= len(options[-1])
        if n > budget:
            raise BudgetExceededError("case-split budget exceeded")
    out = []
    for combo in itertools.product(*options):
        br = PureBranch(list(residual), {k: [] for k in _KINDS})
        for kind, data in combo:
            br.cons[kind].append(data)
        out.append(br)
    return out


# ---------------------------------------------------------------------------
# the comparison table, whose conditions are built simplified.  The branches
# of one DNF clause, and the clauses of one body, share their bounds, so one
# elimination (or one Skolem synthesis) keeps its cells in a dict, keyed by
# (kind, data, w), and builds each cell once; st is fixed per call, so it
# stays out of the key, and the dict is dropped when the call returns


def _atom(kind: AtomKind, t: Term) -> Formula:
    return simplify_node(AtomF(Atom(kind, t)), ())


def _mem(st: CutStructure, t: Term) -> Formula:
    return _atom(st.mem_kind, t)


def _above(st: CutStructure, t: Term) -> Formula:
    """t sits strictly above the working subgroup."""
    return conj((_atom(AtomKind.LT, -t), negate(_mem(st, t))))


def _below(st: CutStructure, t: Term) -> Formula:
    return conj((_atom(AtomKind.LT, t), negate(_mem(st, t))))


def _cell(st: CutStructure, kind: str, val, w: Term) -> Formula:
    """The constraint of the given kind and data on v, at v := w."""
    if kind == "eq":
        return _atom(AtomKind.EQ, w - val)
    if kind == "neq":
        return negate(_atom(AtomKind.EQ, w - val))
    if kind == "lower":
        return _atom(AtomKind.LT, val - w)
    if kind == "upper":
        return _atom(AtomKind.LT, w - val)
    if kind == "mem":
        return _mem(st, w - val)
    if kind == "above":
        return _above(st, w - val)
    if kind == "below":
        return _below(st, w - val)
    return val.literal_at(w)


def _at(st: CutStructure, kind: str, val, w: Term, cells: dict) -> Formula:
    """The cell of kind and val at v := w, built once per cells dict."""
    key = (kind, val, w)
    got = cells.get(key)
    if got is None:
        got = cells[key] = _cell(st, kind, val, w)
    return got


def _gamma_compare(st: CutStructure, r1: CutRay, r2: CutRay) -> Formula:
    """endpoint(r1) < endpoint(r2), endpoints (sup U - s_i)/a_i."""
    a1, a2 = r1.a, r2.a
    less = (a1 > 0) == (a2 > 0)
    mcoef = a2 - a1
    w = r1.s.scale(a2) - r2.s.scale(a1)
    # condition: mcoef * supU  (< if less else >)  w
    if mcoef == 0:
        return _above(st, w) if less else _below(st, w)
    at = _atom(AtomKind.UMEM,
               w.scale_ratio(mcoef.denominator, mcoef.numerator))
    want_gamma_less = less if mcoef > 0 else not less
    return negate(at) if want_gamma_less else at


# points are the finest bounds, coset bounds next, cut rays the coarsest
_RANK = {"lower": 0, "upper": 0, "above": 1, "below": 1, "ray": 2}


def _pair_condition(st: CutStructure, lo: tuple, up: tuple, cells: dict,
                    inject_bug: bool = False) -> Formula:
    """Compatibility of a lower and an upper bound on v, by rank."""
    lk, lv = lo
    uk, uv = up
    if lk == uk == "ray":
        return _gamma_compare(st, lv, uv)
    if inject_bug and lk == "lower" and uk == "upper":
        # test hook: deliberately reversed bound pair
        return _atom(AtomKind.LT, uv - lv)
    if _RANK[lk] < _RANK[uk]:
        return _at(st, uk, uv, lv, cells)
    return _at(st, lk, lv, uv, cells)


def _branch_at(br: PureBranch, st: CutStructure, w: Term,
               cells: dict) -> list[Formula]:
    """All branch constraints instantiated at v := w."""
    return br.residual + [_at(st, k, val, w, cells) for k in _KINDS
                          for val in br.cons[k]]


def _bounds(br: PureBranch, upper: bool) -> list[tuple]:
    """The lower (or upper) bounds on v: points, coset bounds, cut rays."""
    point, coset = ("upper", "below") if upper else ("lower", "above")
    return ([(point, t) for t in br.cons[point]]
            + [(coset, t) for t in br.cons[coset]]
            + [("ray", r) for r in br.cons["ray"] if r.is_upper == upper])


def _branch_condition(br: PureBranch, st: CutStructure, cells: dict,
                      inject_bug: bool = False) -> Formula:
    """Quantifier-free satisfiability condition of one pure branch."""
    cons = br.cons
    if cons["eq"]:
        pin, *rest = cons["eq"]
        return conj(_branch_at(PureBranch(br.residual, {**cons, "eq": rest}),
                               st, pin, cells))
    parts = list(br.residual)
    for lo in _bounds(br, upper=False):
        for up in _bounds(br, upper=True):
            parts.append(_pair_condition(st, lo, up, cells, inject_bug))
    for i, c in enumerate(cons["mem"]):
        parts += [_at(st, "mem", c2, c, cells) for c2 in cons["mem"][i + 1:]]
        # t - c above (below) the subgroup is the above (below) cell of c at t
        parts += [negate(_at(st, "above", c, t, cells)) for t in cons["lower"]]
        parts += [negate(_at(st, "below", c, t, cells)) for t in cons["upper"]]
        parts += [_at(st, k, val, c, cells) for k in ("above", "below", "ray")
                  for val in cons[k]]
    # disequalities: the convex intersection, if nonempty, has no extreme
    # points, hence is infinite; finitely many excluded points never empty it
    return conj(parts)


# ---------------------------------------------------------------------------
# elimination


def _eliminate(body: Formula, v: str, st: CutStructure,
               options: QeOptions) -> Formula:
    """v-free equivalent of E v. body, body quantifier-free in the working
    vocabulary of st."""
    cells: dict = {}
    return disj(_branch_condition(br, st, cells, options.inject_bug)
                for c in dnf_clauses(body, options.dnf_budget)
                for br in _expand(c, v, st, options.dnf_budget))


# an eliminated A x. is ~E x. ~, one level deeper than the E x. it becomes
_QUANTIFIER_DEPTH = {Exists: 1, Forall: 2}


def _qe(f: Formula, st: CutStructure, options: QeOptions) -> Formula:
    """Eliminate the quantifiers of f innermost first, in one pass that also
    brings each atom into the working vocabulary of st and simplifies the
    rest of f on the way up."""
    def enter(g: Formula, depth: int) -> int:
        if depth > options.depth_budget:
            raise BudgetExceededError("quantifier depth budget exceeded")
        return depth + _QUANTIFIER_DEPTH.get(type(g), 0)

    def node(g: Formula, kids, _depth) -> Formula:
        if type(g) is AtomF:
            return _class_atom(g, st)
        if type(g) is Exists:
            return _eliminate(kids[0], g.var, st, options)
        if type(g) is Forall:
            return negate(_eliminate(negate(kids[0]), g.var, st, options))
        return simplify_node(g, kids)

    return fold(f, node, enter, 0)


def qe_star(f: Formula, st: CutStructure,
            options: Optional[QeOptions] = None) -> Formula:
    """Quantifier-free equivalent of f over the given model class."""
    options = options or QeOptions()
    if st.cls is CutClass.NONVALUATIONAL:
        if mentions_membership(f):
            st.require_eliminable()
        return _qe(f, PURE_GROUP, options)
    return _qe(f, st, options)


def qe(f: Formula, options: Optional[QeOptions] = None) -> Formula:
    """Quantifier-free equivalent over every divisible ordered abelian
    group; the input may not contain U or I atoms."""
    if mentions_membership(f):
        raise ValueError("qe handles the pure group language; "
                         "use qe_star for U/I atoms")
    return _qe(f, PURE_GROUP, options or QeOptions())


# ---------------------------------------------------------------------------
# Skolem synthesis


@dataclass(frozen=True)
class SkolemDefinition:
    """Ordered guarded witnesses: the first true guard selects its term."""

    target: str
    cases: tuple[tuple[Formula, Term], ...]

    def chooser(self, m: ModelDescriptor):
        """The witness of the first guard true at an assignment over m, or
        None when no guard holds; the guards are lowered once, together."""
        low = compile_formula(m, *(guard for guard, _ in self.cases))

        def choose(asgn) -> Optional[Point]:
            ints, frame = low.frame_points(asgn)
            return next((term_value(m, term, asgn) for i, (_, term) in
                         enumerate(self.cases) if low.run(ints, frame, i)),
                        None)
        return choose


def _ray_pivot(r: CutRay, st: CutStructure) -> Term:
    """A term provably inside the ray: solve a*v + s = w0 for a point w0 on
    the correct side of the cut (anchor_in sits in U, e_out above it)."""
    w0 = st.anchor_in if r.positive else Term.eout()
    return (w0 - r.s).scale_ratio(r.a.denominator, r.a.numerator)


def _branch_candidates(br: PureBranch, st: CutStructure) -> list[Term]:
    cons = br.cons
    if cons["eq"]:
        return [cons["eq"][0]]
    ein = Term.ein()
    eout = Term.eout()
    J = len(cons["neq"]) + 1
    out: dict[Term, None] = {}  # the candidates in first-seen order

    def ladder(base: Term, step: Term, first: int = 1):
        for j in range(first, J + 1):
            out[base + step.scale(j)] = None

    def between(lows: list[Term], highs: list[Term]):
        n = J + 1
        for l in lows:
            for u in highs:
                for i in range(1, n):
                    t = l.scale(Fraction(i, n)) + u.scale(Fraction(n - i, n))
                    out[t] = None

    mems = cons["mem"]
    ray_lowers = [r for r in cons["ray"] if not r.is_upper]
    ray_uppers = [r for r in cons["ray"] if r.is_upper]
    # no coset pins the quotient position: a ray facing an opposite
    # quotient-scale edge would need a term between two irrational cut
    # images, which no finite guarded family of linear terms can supply
    if not mems and ((ray_lowers and ray_uppers)
                     or (ray_lowers and cons["below"])
                     or (ray_uppers and cons["above"])):
        raise SkolemShapeUnsupportedError(
            "branch needs a witness strictly between two cut edges")
    for c in mems:
        out[c] = None
        for j in range(1, J + 1):
            out[c + ein.scale(j)] = None
            out[c - ein.scale(j)] = None
    for l in cons["lower"]:
        ladder(l, ein)
    for u in cons["upper"]:
        ladder(u, -ein)
    between(cons["lower"], cons["upper"])
    if mems:
        return list(out)
    for a in cons["above"]:
        ladder(a + eout, ein, 0)
    for b in cons["below"]:
        ladder(b - eout, -ein, 0)
    between(cons["above"], cons["below"])
    for r in ray_lowers:
        ladder(_ray_pivot(r, st), ein, 0)
    for r in ray_uppers:
        ladder(_ray_pivot(r, st), -ein, 0)
    if not out:  # v is unconstrained
        ladder(Term(), ein, 0)
    return list(out)


def skolemize(phi: Formula, target: str, st: CutStructure,
              options: Optional[QeOptions] = None) -> SkolemDefinition:
    """Guarded-term Skolem definition for the target variable of phi.

    Guards self-validate: each case's guard is the branch instantiated at
    its witness, so a firing guard proves the witness satisfies phi; the
    menu of candidates makes the guard disjunction cover the existential.
    """
    options = options or QeOptions()
    st.require_eliminable()
    phi1 = qe_star(phi, st, options)
    cases: list[tuple[Formula, Term]] = []
    seen = set()
    cells: dict = {}  # the guards' cells, each built once
    for clause in dnf_clauses(phi1, options.dnf_budget):
        for br in _expand(clause, target, st, options.dnf_budget):
            for w in _branch_candidates(br, st):
                if target in w.vars():
                    raise AssertionError("witness must not mention the target")
                guard = conj(_branch_at(br, st, w, cells))
                if isinstance(guard, FalseF):
                    continue
                key = (guard, w)
                if key not in seen:
                    seen.add(key)
                    cases.append((guard, w))
    return SkolemDefinition(target, tuple(cases))


# ---------------------------------------------------------------------------
# resistance checking (closure of U under a definable continuous function)


@dataclass(frozen=True)
class ResistanceResult:
    closed: bool
    witness: Optional[Point] = None  # a in U with f(a) outside U


def check_resistance(m: ModelDescriptor, f: UnaryPiecewiseLinear) -> ResistanceResult:
    """Closed iff f(U) is contained in U; otherwise a concrete witness."""
    f.require_continuous()
    if isinstance(m.u_interp, SubgroupLevel):
        return _check_resistance_subgroup(m, f)
    return _check_resistance_cut(m, f)


def _subgroup_point_in(m: ModelDescriptor, lo: Optional[Fraction],
                       hi: Optional[Fraction]) -> Optional[Point]:
    """A point of the subgroup U inside the unit-scale interval (lo, hi]."""
    if (lo is None or lo < 0) and (hi is None or hi > 0):
        return Point.zero(m.dim)
    if lo == 0 and (hi is None or hi > 0):
        return m.e_in  # positive, below every positive unit-scale bound
    if hi == 0 and (lo is None or lo < 0):
        return -m.e_in
    return None


def _check_resistance_subgroup(m: ModelDescriptor, f: UnaryPiecewiseLinear) -> ResistanceResult:
    bps = f.breakpoints
    for i, piece in enumerate(f.pieces):
        lo = bps[i - 1] if i > 0 else None
        hi = bps[i] if i < len(bps) else None
        x = _subgroup_point_in(m, lo, hi)
        if x is None:
            continue
        cval = term_value(m, piece.const, {})
        if not u_member(m, cval):
            return ResistanceResult(False, witness=x)
    return ResistanceResult(True)


def _check_resistance_cut(m: ModelDescriptor, f: UnaryPiecewiseLinear) -> ResistanceResult:
    assert isinstance(m.u_interp, DownwardCut)
    unit = m.unit
    bps = f.breakpoints
    for i, piece in enumerate(f.pieces):
        lo = bps[i - 1] if i > 0 else None
        hi = bps[i] if i < len(bps) else None
        lo_pt = None if lo is None else unit.scale(lo)
        hi_pt = None if hi is None else unit.scale(hi)
        # the piece meets C iff its left end lies in C (C is downward closed)
        if lo_pt is not None and not u_member(m, lo_pt):
            continue
        q = piece.slope
        cval = term_value(m, piece.const, {})
        if q == 0:
            if not u_member(m, cval):
                # a point of C in (lo, hi]: hi itself, or any member above
                # lo when hi lies above C
                a = hi_pt if hi_pt is not None and u_member(m, hi_pt) \
                    else edge_member(m, lo_pt)
                return ResistanceResult(False, witness=a)
            continue
        if q > 0:
            if hi_pt is not None and u_member(m, hi_pt):
                img = hi_pt.scale(q) + cval
                if not u_member(m, img):
                    return ResistanceResult(False, witness=hi_pt)
                continue
            # the piece straddles the cut
            if edge_sign(m, q, cval) > 0:
                return ResistanceResult(
                    False, witness=escape_witness(m, q, cval, lo_pt))
            continue
        # q < 0: the image is largest toward the piece's left end
        if lo_pt is None:
            # f(a) >= e_out, which exceeds all of C, once a <= (e_out - c)/q
            bounds = [(m.e_out - cval).scale(1 / q), edge_member(m)]
            if hi_pt is not None:
                bounds.append(hi_pt)
            # (tuples of coordinates compare lexicographically, as points do)
            return ResistanceResult(
                False, witness=min(bounds, key=lambda p: p.coords))
        if not u_member(m, lo_pt.scale(q) + cval):
            return ResistanceResult(False, witness=lo_pt)
    return ResistanceResult(True)

