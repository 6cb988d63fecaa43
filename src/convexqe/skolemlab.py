"""Constructive counterexamples: Skolem-definition verification, witness
obstruction over nonvaluational cuts, and definable-choice failures.

Candidate functions are continuous piecewise-linear with exact rational
data, which is exactly the definable function class of the fixture models
at this scale; every returned certificate re-verifies by direct evaluation.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .closures import all_lanes, lowest_lane
from .cutarith import edge_gap, edge_member, edge_sign
from .cutqe import CutStructure, SkolemDefinition, build_structure, qe_star
from .errors import (ConvexQEError, PreconditionViolatedError,
                     SearchExhaustedError)
from .fuzz import (SAMPLE_BLOCK, SAMPLE_DENOM, _shown, drawn_block,
                   index_drawer, int_sample_pool, model_sample_pool,
                   pool_drawer)
from .models import (CutClass, ModelDescriptor, Point, compile_formula,
                     i_member, rat_text, term_rows, term_value, u_member)
from .oracle import oracle_compile
from .piecewise import UnaryPiecewiseLinear
from .syntax import (QUANTIFIERS, AtomF, Exists, Formula, free_vars,
                     is_quantifier_free, subformulas)

F0 = Fraction(0)
F1 = Fraction(1)

SAMPLE_POOL = [F0, F0, F1, Fraction(-1), Fraction(2), Fraction(-2),
               Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(-3),
               Fraction(7, 2), Fraction(1, 3)]


# ---------------------------------------------------------------------------
# Skolem verification


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    samples: int
    applicable: int  # samples where the existential held
    seed: int
    failure: Optional[dict] = None

    def to_json(self) -> dict:
        return asdict(self)


def verify_skolem(m: ModelDescriptor, phi: Formula, sk: SkolemDefinition,
                  samples: int = 500, seed: int = 0,
                  st: Optional[CutStructure] = None) -> VerifyReport:
    """Sample parameter tuples; wherever the eliminated existential holds,
    some guard must fire and its witness must satisfy phi.

    Samples are drawn and checked SAMPLE_BLOCK at a time, as index
    columns over the sample pool, by the block driver: the existential and
    the guards share one lowering and one list of atom masks per block, so
    each atom is tested at most once per block.  Each lane takes the
    first guard that fires.  Where a case fires, its witness is put in for
    the target in phi's specs (``Evaluator.substitute``), so phi is checked
    on the block's own lanes and masked by the lanes where the case fired;
    no witness value is built but the reported one.  The report is the
    one a sample-by-sample scan gives: the lowest failing lane, with the
    lanes where the existential held up to it counted as applicable.  A
    guard must be quantifier-free; it and a witness may name only phi's
    free variables but the target, which are all that a sample assigns."""
    if samples < 0:
        raise ValueError("the sample count must not be negative")
    given = free_vars(phi) - {sk.target}
    for i, (guard, witness) in enumerate(sk.cases, 1):
        named = set()  # the variables of the guard's atoms
        for g in subformulas(guard):
            if type(g) in QUANTIFIERS:
                raise ConvexQEError(f"bad Skolem definition: case {i}'s "
                                    "guard is not quantifier-free")
            if type(g) is AtomF:
                named |= g.atom.term.vars()
        for part, names in (("guard", named), ("witness", witness.vars())):
            stray = sorted(names - given)
            if stray:
                raise ConvexQEError(
                    f"bad Skolem definition: case {i}'s {part} names "
                    f"{', '.join(stray)}, not a free variable of phi other "
                    f"than {sk.target}")
    params = sorted(given)
    st = st or build_structure(m)
    existential = qe_star(Exists(sk.target, phi), st)
    low = compile_formula(m, existential, *(g for g, _ in sk.cases))
    phi_eval = (compile_formula(m, phi) if is_quantifier_free(phi)
                else oracle_compile(m, phi))
    pool = int_sample_pool(m, SAMPLE_POOL)
    draw = index_drawer(random.Random(seed), len(pool))
    dim = m.dim
    width = len(params) * dim
    applicable = 0
    # samples drawn as {v: draw(dim) for v in params} each, a block at a time
    for first in range(0, samples, SAMPLE_BLOCK):
        n = min(SAMPLE_BLOCK, samples - first)
        columns, lane = drawn_block(draw(n * width), pool, n, params, dim)
        masks = [None, *low.blank]
        held = left = low.block(columns, SAMPLE_DENOM, 0, masks)
        worst = None  # (lane, witness, lc) of the lowest failing witness
        for root, (_, term) in enumerate(sk.cases, 1):
            if not left:
                break
            fired = low.block(columns, SAMPLE_DENOM, root, masks) & left
            left ^= fired
            if not fired:
                continue
            # lc and the witness rows, over lc * SAMPLE_DENOM
            lc, rows = term_rows(m, term)
            check = phi_eval.substitute(sk.target, lc, rows)
            bad = fired & ~check.block(columns, SAMPLE_DENOM)
            if bad:
                j = lowest_lane(bad)
                if worst is None or j < worst[0]:
                    worst = (j, [columns.value(*r, SAMPLE_DENOM, j)
                                 for r in rows], lc)
        # left: the lanes where the existential held and no guard fired
        j = min(lowest_lane(left) if left else n, worst[0] if worst else n)
        if j == n:
            applicable += held.bit_count()
            continue
        applicable += (held & all_lanes(j + 1)).bit_count()
        fails = worst is not None and worst[0] == j
        failure = {"kind": "witness-fails" if fails else "no-guard-fired",
                   "sample_index": first + j, "assignment": {
                       v: _shown(p) for v, p in lane(j).items()}}
        if fails:
            failure["witness"] = _shown(worst[1], worst[2] * SAMPLE_DENOM)
        return VerifyReport(False, samples, applicable, seed, failure)
    return VerifyReport(True, samples, applicable, seed)


# ---------------------------------------------------------------------------
# Skolem obstruction over nonvaluational cuts


def _text(p: Point) -> list[str]:
    return [rat_text(c) for c in p.coords]


@dataclass(frozen=True)
class ObstructionWitness:
    point: Point
    violation: str  # "not-increasing" | "escapes-u"
    certificate: dict

    def to_json(self) -> dict:
        return {"point": _text(self.point),
                "violation": self.violation,
                "certificate": self.certificate}


def _final_cut_piece(m: ModelDescriptor, f: UnaryPiecewiseLinear) -> int:
    """Index of the affine piece meeting the cut from below."""
    count = 0
    for b in f.breakpoints:
        if u_member(m, m.unit.scale(b)):
            count += 1
        else:
            break
    return count


def obstruction_find(m: ModelDescriptor,
                     f: UnaryPiecewiseLinear) -> ObstructionWitness:
    """A verified a in U with f(a) <= a or f(a) outside U.

    On the final piece q*x + c the gap f(x) - x is affine with rational
    data; its limit at the cut cannot vanish unless the piece is the
    identity, so the sign of the limit decides which violation is achieved,
    and ``edge_member`` builds a rational witness within the distance to
    the edge that the limit's size allows.
    """
    if m.cut.cls is not CutClass.NONVALUATIONAL:
        raise PreconditionViolatedError(
            "obstruction search needs a nonvaluational cut")
    f.require_continuous()
    idx = _final_cut_piece(m, f)
    piece = f.pieces[idx]
    q, c = piece.slope, term_value(m, piece.const, {})
    lo_pt = m.unit.scale(f.breakpoints[idx - 1]) if idx > 0 else None

    def image(a: Point) -> Point:
        return a.scale(q) + c

    cert: dict = {"piece_index": idx, "slope": rat_text(q)}
    if q == 1 and c.is_zero():
        a, violation = edge_member(m, lo_pt), "not-increasing"
        cert["gap"] = "identically zero on the final piece"
    else:
        lam_sign = edge_sign(m, q, c)
        cert["gap_limit_sign"] = lam_sign
        h = edge_gap(m, q, c)
        if lam_sign < 0:
            # f(a) <= a is (q-1)*a + c <= 0: all of C near the edge when
            # q >= 1, and a within h/(1-q) of the edge when q < 1
            a = edge_member(m, lo_pt,
                            None if h is None or q >= 1 else h / (1 - q))
            violation = "not-increasing"
            cert["comparison"] = {"f(a)": _text(image(a)), "a": _text(a)}
        else:
            # f(a) - sup C = (q-1)*g + c - q*(g - a): a within h/q of the
            # edge, or anywhere near it when q <= 0
            a = edge_member(m, lo_pt, None if h is None or q <= 0 else h / q)
            violation = "escapes-u"
            cert["comparison"] = {"f(a)": _text(image(a)),
                                  "above": "threshold"}
            cert["oracle_interval"] = _interval_snapshot(m)
    # printed once a witness is found, so that a search past the precision
    # budget fails before printing an intercept of a million digits
    cert["intercept"] = _text(c)
    return ObstructionWitness(a, violation, cert)


def _interval_snapshot(m: ModelDescriptor) -> Optional[list[str]]:
    """[k / 2^16, (k + 1) / 2^16] with k = floor(alpha * 2^16): the same
    however far the oracle has been refined before."""
    alpha = m.cut.oracle
    if alpha is None:
        return None
    lo, _ = alpha.refine(16)
    k = math.floor(lo * 65536)
    # lo < alpha within 2^-16, so this runs at most once; compare decides,
    # as alpha is irrational
    while alpha.compare(Fraction(k + 1, 65536)) < 0:
        k += 1
    return [rat_text(Fraction(k, 65536)), rat_text(Fraction(k + 1, 65536))]


# ---------------------------------------------------------------------------
# definable-choice failure


@dataclass(frozen=True)
class ChoiceViolation:
    kind: str  # "skolem-condition" | "fiber-pair"
    points: tuple[Point, ...]
    values: tuple[Optional[Point], ...]
    detail: str

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "points": [[rat_text(c) for c in p.coords] for p in self.points],
                "values": [None if v is None else [rat_text(c) for c in v.coords]
                           for v in self.values],
                "detail": self.detail}


Candidate = Union[UnaryPiecewiseLinear, SkolemDefinition]


def _candidate_fn(m: ModelDescriptor, cand: Candidate) -> Callable[[Point], Optional[Point]]:
    if isinstance(cand, UnaryPiecewiseLinear):
        return lambda a: cand.eval(m, a)
    param_vars = sorted({v for guard, w in cand.cases
                         for v in (free_vars(guard) | w.vars())} - {cand.target})
    if len(param_vars) > 1:
        raise PreconditionViolatedError("candidate must be unary")
    var = param_vars[0] if param_vars else "x"
    choose = cand.chooser(m)
    return lambda a: choose({var: a})


def choice_violation(m: ModelDescriptor, cand: Candidate,
                     seed: int = 0) -> ChoiceViolation:
    """For the fiber relation 'same coset of I', exhibit either an input
    with no valid output or a same-fiber pair mapped to different values."""
    if m.cut.stabilizer >= m.dim:
        raise PreconditionViolatedError("the stabilizer must be nontrivial")
    fn = _candidate_fn(m, cand)
    delta = Point.unit(m.dim, m.dim - 1)  # a nonzero stabilizer element
    ladder: list[Point] = [Point.zero(m.dim), m.unit, -m.unit, m.e_in,
                           m.unit.scale(2), -m.unit.scale(2), m.e_out]
    if isinstance(cand, UnaryPiecewiseLinear):
        for b in cand.breakpoints:
            ladder.extend([m.unit.scale(b) - m.unit, m.unit.scale(b) + m.unit,
                           m.unit.scale(b)])
    draw = pool_drawer(random.Random(seed),
                       (*SAMPLE_POOL, *model_sample_pool(m)))
    flat = draw(40 * m.dim)
    ladder.extend(Point(flat[i:i + m.dim]) for i in range(0, len(flat), m.dim))

    for a in ladder:
        w = fn(a)
        if w is None or not i_member(m, w - a):
            return ChoiceViolation(
                "skolem-condition", (a,), (w,),
                "no output in the input's stabilizer coset")
    for a in ladder:
        w = fn(a)
        for scale in (F1, Fraction(1, 2), Fraction(4)):
            a2 = a + delta.scale(scale)
            w2 = fn(a2)
            if w2 is None or not i_member(m, w2 - a2):
                return ChoiceViolation(
                    "skolem-condition", (a2,), (w2,),
                    "no output in the input's stabilizer coset")
            if w2 != w:
                return ChoiceViolation(
                    "fiber-pair", (a, a2), (w, w2),
                    "inputs share a stabilizer coset but outputs differ")
    raise SearchExhaustedError("no choice violation found in the search budget")
