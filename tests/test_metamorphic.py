"""Metamorphic relations of qe_star over seeded gen_formula corpora on the
five eliminable fixtures.

Idempotence and the A/~E~ duality must hold structurally.  Renaming bound
variables and scaling strict atoms by positive rationals reorder terms,
so those outputs are compared by their truth at seeded integer points."""

import random
from fractions import Fraction

import pytest

from convexqe.cutqe import build_structure, qe_star
from convexqe.errors import ConvexQEError
from convexqe.fuzz import (SAMPLE_DENOM, gen_atom, gen_formula,
                           int_sample_pool, pool_drawer)
from convexqe.models import IntCompiledFormula
from convexqe.syntax import (Atom, AtomF, AtomKind, Exists, Forall, Not,
                             canonicalize_bound, conj, fold, free_vars,
                             is_quantifier_free, rebuild)

from conftest import VALUATIONAL_NAMES

ELIMINABLE_NAMES = VALUATIONAL_NAMES + ["lex2_rat_11"]
FORMULAS = 200
POINTS = 10
SCALES = (Fraction(2), Fraction(1, 3), Fraction(5, 2), Fraction(7))


@pytest.fixture(scope="module", params=ELIMINABLE_NAMES)
def fixture(request, models):
    m = models[request.param]
    return request.param, m, build_structure(m)


def _corpus(tag: str, name: str, depth: int, qdepth: int):
    rng = random.Random(f"metamorphic-{tag}:{name}")
    for _ in range(FORMULAS):
        yield gen_formula(rng, ["x", "y"], depth, qdepth)


def _eliminated(f, st):
    """qe_star(f), or None when a budget refuses f."""
    try:
        return qe_star(f, st)
    except ConvexQEError:
        return None


def _assert_same_truth(m, name, f, out, other):
    """out and other, both quantifier-free equivalents of f, agree at
    seeded integer points."""
    fv = sorted(free_vars(f))
    draw = pool_drawer(random.Random(f"metamorphic-points:{name}:{f}"),
                       int_sample_pool(m))
    a = IntCompiledFormula(m, out, SAMPLE_DENOM).eval
    b = IntCompiledFormula(m, other, SAMPLE_DENOM).eval
    for _ in range(POINTS):
        ints = {v: draw(m.dim) for v in fv}
        assert a(ints) == b(ints), (name, str(f), str(out), str(other), ints)


def test_elimination_is_idempotent(fixture):
    name, _, st = fixture
    done = 0
    for f in _corpus("idempotent", name, 3, 2):
        out = _eliminated(f, st)
        if out is None:
            continue
        assert is_quantifier_free(out)
        assert qe_star(out, st) == out, (name, str(f))
        done += 1
    assert done > FORMULAS // 2


def test_forall_is_not_exists_not(fixture):
    name, _, st = fixture
    rng = random.Random(f"metamorphic-dual:{name}")
    for _ in range(FORMULAS):
        lits = []
        for _ in range(rng.randint(2, 4)):
            a = gen_atom(rng, ["x", "y", "z"])
            lits.append(Not(a) if rng.random() < 0.4 else a)
        phi = conj(lits)
        out = _eliminated(Forall("y", phi), st)
        assert out == _eliminated(Not(Exists("y", Not(phi))), st), \
            (name, str(phi))


def test_renaming_bound_variables_keeps_the_answer(fixture):
    name, m, st = fixture
    done = 0
    for f in _corpus("rename", name, 4, 3):
        out = _eliminated(f, st)
        if out is None:
            continue
        g = canonicalize_bound(f)
        _assert_same_truth(m, name, f, out, qe_star(g, st))
        done += 1
    assert done > FORMULAS // 2


def _scale_strict_atoms(f, rng):
    """f with each < atom's term multiplied by a positive rational."""
    def node(g, kids, _c):
        if type(g) is AtomF and g.atom.kind is AtomKind.LT:
            term = g.atom.term.scale(rng.choice(SCALES))
            return AtomF(Atom(AtomKind.LT, term))
        return rebuild(g, kids)
    return fold(f, node)


def test_scaling_strict_atoms_keeps_the_answer(fixture):
    name, m, st = fixture
    rng = random.Random(f"metamorphic-scale:{name}")
    done = scaled = 0
    for f in _corpus("scale", name, 3, 2):
        out = _eliminated(f, st)
        if out is None:
            continue
        g = _scale_strict_atoms(f, rng)
        scaled += g != f
        _assert_same_truth(m, name, f, out, qe_star(g, st))
        done += 1
    assert done > FORMULAS // 2 and scaled > FORMULAS // 4
