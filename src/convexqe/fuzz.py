"""Differential fuzzing: random formulas, elimination vs the coordinate
oracle on sampled assignments, with shrinking of any counterexample.

Reports are plain dictionaries with deterministic content for a fixed seed,
so serialized reports are byte-identical across runs.
"""

from __future__ import annotations

import functools
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .closures import Lanes, lowest_lane
from .cutqe import CutStructure, build_structure, qe_star
from .doagqe import QeOptions
from .errors import BudgetExceededError, ConvexQEError
from .models import (DownwardCut, IntCompiledFormula, ModelDescriptor, Point,
                     model_to_json)
from .normalform import DEFAULT_DNF_BUDGET
from .oracle import IntOracleEval, oracle_compile
from .syntax import (And, AtomKind, Exists, Forall, Formula, Not, Or, Term,
                     _rat_text, atom, fold, free_vars, imem,
                     is_quantifier_free, print_formula, rebuild, subformulas,
                     umem, TRUE, FALSE, TrueF, FalseF)

COEFF_POOL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
              Fraction(3), Fraction(-3), Fraction(1, 2), Fraction(-1, 2)]
CONST_POOL = [Fraction(-2), Fraction(-1), Fraction(1), Fraction(2),
              Fraction(1, 2)]
VALUE_POOL = [Fraction(0), Fraction(0), Fraction(1), Fraction(-1),
              Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(3),
              Fraction(-3), Fraction(7, 2)]
VAR_POOL = ("x", "y", "z")
SAMPLE_DENOM = 6  # common denominator of every sampled coordinate
# gen_formula draws 1.1 children a node on average (0.15 quantifier, 0.15
# negation, 0.4 binary), so a depth-d formula has about 10 * 1.1^d nodes;
# depth 90 is the first at which that passes the default DNF budget of
# 50,000, and a larger depth is refused
MAX_DEPTH = 90


@dataclass
class FuzzConfig:
    formulas: int = 100
    assignments: int = 100
    seed: int = 0
    depth: int = 3
    quantifier_depth: int = 2
    dnf_budget: int = DEFAULT_DNF_BUDGET
    depth_budget: int = 64
    inject_bug: bool = False

    def to_json(self) -> dict:
        return asdict(self)


def gen_term(rng: random.Random, vars: list[str]) -> Term:
    t = Term.var(rng.choice(vars)).scale(rng.choice(COEFF_POOL))
    if rng.random() < 0.5:
        t = t + Term.var(rng.choice(vars)).scale(rng.choice(COEFF_POOL))
    r = rng.random()
    if r < 0.2:
        t = t + Term.const(rng.choice(CONST_POOL))
    elif r < 0.3:
        t = t + Term.ein(rng.choice([1, -1]))
    elif r < 0.4:
        t = t + Term.eout(rng.choice([1, -1]))
    return t


def gen_atom(rng: random.Random, vars: list[str]) -> Formula:
    t = gen_term(rng, vars)
    r = rng.random()
    if r < 0.3:
        return atom(AtomKind.LT, t)
    if r < 0.4:
        return atom(AtomKind.LE, t)
    if r < 0.5:
        return atom(AtomKind.EQ, t)
    if r < 0.55:
        return atom(AtomKind.NEQ, t)
    if r < 0.85:
        return umem(t)
    return imem(t)


def gen_formula(rng: random.Random, vars: list[str], depth: int,
                qdepth: int) -> Formula:
    r = rng.random()
    if depth <= 0 or r < 0.3:
        return gen_atom(rng, vars)
    if r < 0.45 and qdepth > 0:
        v = rng.choice(VAR_POOL)
        body_vars = vars if v in vars else vars + [v]
        body = gen_formula(rng, body_vars, depth - 1, qdepth - 1)
        return (Exists if rng.random() < 0.6 else Forall)(v, body)
    if r < 0.6:
        return Not(gen_formula(rng, vars, depth - 1, qdepth))
    cls = And if r < 0.8 else Or
    return cls(gen_formula(rng, vars, depth - 1, qdepth),
               gen_formula(rng, vars, depth - 1, qdepth))


# Below this many owed entries a draw loops word by word: a bulk decode
# costs a few microseconds whatever its size (crossover between 40 and 80
# entries on a 2-core x86_64 host under CPython 3.11).
BATCH_MIN = 64
# Assignments drawn in one batch, so memory stays bounded at any count.
SAMPLE_BLOCK = 4096


@functools.lru_cache(maxsize=None)
def _decode_tables(n: int) -> tuple[bytes, bytes]:
    """``bytes.translate`` tables for a pool of ``n`` < 256 entries: a
    word's top byte b draws index ``b >> (8 - k)``, k = n.bit_length(), as
    ``getrandbits(k)`` shifts the word down; bytes drawing an index at or
    above n are deleted, as a rejected try."""
    shift = 8 - n.bit_length()
    return (bytes(b >> shift for b in range(256)),
            bytes(b for b in range(256) if b >> shift >= n))


def index_drawer(rng: random.Random, n: int) -> Callable[[int], bytes]:
    """``draw(count)``: as bytes, the indices of the count entries that
    count calls of ``rng.choice(pool)`` return for a pool of n entries,
    leaving rng in the same state.

    This is ``Random.choice`` through ``_randbelow_with_getrandbits``,
    inlined: one ``getrandbits(k)`` per try, k = n.bit_length(), a try at
    or above n rejected and tried again.  Each try takes one 32-bit
    Mersenne Twister word.  While at least BATCH_MIN entries are owed (and
    n < 256), ``getrandbits(32 * owed)`` takes exactly one word per owed
    entry at once, least significant first, and its top bytes are decoded
    in bulk; every try yields at most one entry, so no word is drawn ahead
    and the caller's later draws from rng are unchanged too.  A pool of
    more than 256 entries has indices that no byte holds, and is
    refused."""
    if not n:
        raise IndexError("cannot draw from an empty pool")
    if n > 256:
        raise ValueError(f"a pool has at most 256 entries, not {n}")
    k = n.bit_length()
    getrandbits = rng.getrandbits

    def draw(count: int) -> bytes:
        idx = b""
        if count >= BATCH_MIN and n < 256:
            table, reject = _decode_tables(n)
            while count >= BATCH_MIN:
                got = getrandbits(count << 5).to_bytes(
                    count << 2, "little")[3::4].translate(table, reject)
                idx += got
                count -= len(got)
        tail = []
        for _ in range(count):
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            tail.append(r)
        return idx + bytes(tail)

    return draw


def pool_drawer(rng: random.Random,
                pool: Sequence) -> Callable[[int], tuple]:
    """``draw(count)``: count entries of pool, the very ones that count
    calls of ``rng.choice(pool)`` return, leaving rng in the same state:
    ``index_drawer``'s indices, looked up in pool."""
    pool = tuple(pool)
    indices = index_drawer(rng, len(pool))

    def draw(count: int) -> tuple:
        return _entries(pool, indices(count))

    return draw


def _entries(pool: Sequence, idx: bytes) -> tuple:
    """The entries of pool at the indices idx."""
    if len(idx) > 1:
        return itemgetter(*idx)(pool)
    return tuple([pool[i] for i in idx])  # itemgetter of one is bare


def gen_point(rng: random.Random, m: ModelDescriptor,
              extra: tuple[Fraction, ...] = (),
              values: Sequence[Fraction] = VALUE_POOL) -> Point:
    pool = (*values, *extra) if extra else values
    return Point(_entries(pool, index_drawer(rng, len(pool))(m.dim)))


def gen_int_point(rng: random.Random, m: ModelDescriptor,
                  pool: tuple[int, ...]) -> tuple[int, ...]:
    return _entries(pool, index_drawer(rng, len(pool))(m.dim))


def int_sample_pool(m: ModelDescriptor,
                    values: list[Fraction] = VALUE_POOL) -> tuple[int, ...]:
    """Numerators over SAMPLE_DENOM of the value pool, which it must clear,
    then of the model's rational threshold entries that it clears."""
    if any(SAMPLE_DENOM % v.denominator for v in values):
        raise ValueError("SAMPLE_DENOM must clear every sampled value")
    return tuple([v.numerator * SAMPLE_DENOM // v.denominator for v in (
        *values, *(e for e in model_sample_pool(m)
                   if not SAMPLE_DENOM % e.denominator))])


def model_sample_pool(m: ModelDescriptor) -> tuple[Fraction, ...]:
    """Rational threshold entries, so sampling probes the cut's edges."""
    if isinstance(m.u_interp, DownwardCut):
        return tuple(e for e in m.u_interp.threshold if isinstance(e, Fraction))
    return ()


def _shown(numerators, denom: int = SAMPLE_DENOM) -> list[str]:
    """Coordinate numerators over denom, as reports print them."""
    return [_rat_text(c, denom) for c in numerators]


def _shrink(m: ModelDescriptor, st: CutStructure, f: Formula, ints: dict,
            options: QeOptions) -> Formula:
    """Greedy shrink: replace subformulas by constants while the
    elimination/oracle disagreement persists at the same assignment, given
    as coordinate numerators over SAMPLE_DENOM."""

    def disagrees(g: Formula) -> bool:
        try:
            out = qe_star(g, st, options)
            lhs = IntCompiledFormula(m, out, SAMPLE_DENOM).eval(ints)
            rhs = IntOracleEval(oracle_compile(m, g), SAMPLE_DENOM).eval(ints)
            return lhs != rhs
        except ConvexQEError:
            return False

    def replace(g: Formula, target: Formula, repl: Formula) -> Formula:
        return fold(g, lambda h, kids, _c:
                    repl if h is target else rebuild(h, kids))

    current = f
    changed = True
    while changed:
        changed = False
        for sub in subformulas(current):
            if sub is current or isinstance(sub, (TrueF, FalseF)):
                continue
            for repl in (TRUE, FALSE):
                cand = replace(current, sub, repl)
                if free_vars(cand) - ints.keys():
                    continue
                if disagrees(cand):
                    current = cand
                    changed = True
                    break
            if changed:
                break
    return current


def drawn_block(idx: bytes, pool: tuple, n: int, names: Sequence[str],
                dim: int) -> tuple[Lanes, Callable[[int], dict]]:
    """n assignments of names drawn as ``{v: draw(dim) for v in names}``
    each, one after another, in the one draw idx of indices in pool: their
    coordinate columns, as a ``Lanes`` over pool, and lane j's assignment,
    its values looked up in pool, as a function of j."""
    width = len(names) * dim
    columns = Lanes({v: tuple(idx[k * dim + i::width] for i in range(dim))
                     for k, v in enumerate(names)}, pool, n)

    def lane(j: int) -> dict:
        at = j * width
        return {v: _entries(pool, idx[at + k * dim:at + (k + 1) * dim])
                for k, v in enumerate(names)}
    return columns, lane


def _first_mismatch(rng: random.Random, indices: Callable[[int], bytes],
                    pool: tuple, names: tuple[str, ...], dim: int,
                    count: int, got: Callable, expected: Callable
                    ) -> tuple[int, Optional[dict]]:
    """Evaluate both sides' block drivers at count assignments of names,
    drawn as ``{v: pool_drawer(rng, pool)(dim) for v in names}`` each, but
    SAMPLE_BLOCK at a time, as index columns from indices, rng's
    ``index_drawer`` over pool; both sides read one ``Lanes`` per block, so
    a row that both lowerings write is computed once.  Returns how many
    were evaluated, up to and including the first at which the sides
    differ, and that one, or None; rng is left where drawing just those
    assignments one by one leaves it."""
    width = len(names) * dim
    for first in range(0, count, SAMPLE_BLOCK):
        block = min(SAMPLE_BLOCK, count - first)
        state = rng.getstate()
        columns, lane = drawn_block(indices(block * width), pool, block,
                                    names, dim)
        differ = got(columns) ^ expected(columns)
        if differ:
            j = lowest_lane(differ)
            rng.setstate(state)  # draw again only up to this one
            indices((j + 1) * width)
            return first + j + 1, lane(j)
    return count, None


def run_fuzz(m: ModelDescriptor, config: FuzzConfig) -> dict:
    if min(config.formulas, config.assignments, config.depth) < 0:
        raise ValueError(
            "formula and assignment counts and the depth must not be negative")
    if config.depth > MAX_DEPTH:
        raise ValueError(f"the depth must be at most {MAX_DEPTH}")
    rng = random.Random(config.seed)
    st = build_structure(m)
    options = QeOptions(dnf_budget=config.dnf_budget,
                        depth_budget=config.depth_budget,
                        inject_bug=config.inject_bug)
    pool, dim = int_sample_pool(m), m.dim
    indices = index_drawer(rng, len(pool))
    discrepancies = []
    budget_skips = 0
    checked = 0
    total_assignments = 0
    for _ in range(config.formulas):
        f = gen_formula(rng, list(VAR_POOL[:2]), config.depth,
                        config.quantifier_depth)
        fv = tuple(sorted(free_vars(f)))
        try:
            out = qe_star(f, st, options)
            comp = IntCompiledFormula(m, out, SAMPLE_DENOM)
            orc = IntOracleEval(oracle_compile(m, f), SAMPLE_DENOM)
        except BudgetExceededError:
            budget_skips += 1
            continue
        checked += 1
        assert is_quantifier_free(out)
        done, ints = _first_mismatch(rng, indices, pool, fv, dim,
                                     config.assignments, comp.block,
                                     orc.block)
        total_assignments += done
        if ints is None:
            continue
        small = _shrink(m, st, f, ints, options)
        discrepancies.append({
            "formula": print_formula(f),
            "minimized": print_formula(small),
            "assignment": {v: _shown(p) for v, p in sorted(ints.items())},
            "qe_output": print_formula(out),
            "expected": orc.eval(ints),
            "got": comp.eval(ints),
        })
    return {"config": config.to_json(),
            "model": model_to_json(m),
            "checked_formulas": checked,
            "budget_skips": budget_skips,
            "total_assignments": total_assignments,
            "discrepancy_count": len(discrepancies),
            "discrepancies": discrepancies}
