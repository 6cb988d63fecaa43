import os
from fractions import Fraction

import pytest

from convexqe.cli import fixtures_dir
from convexqe.closures import Lanes
from convexqe.errors import MalformedModelError
from convexqe.models import (DownwardCut, ModelDescriptor, PLUS_INF,
                             PiOracle, Point, SqrtOracle, SubgroupLevel,
                             load_model)

FIXTURE_NAMES = ["q1_pi", "q3_11pi", "lex2_val_1inf", "lex3_val_1pi0",
                 "lex2_rat_11", "lex2_sub1", "lex3_sub2"]
VALUATIONAL_NAMES = ["lex2_sub1", "lex3_sub2", "lex2_val_1inf", "lex3_val_1pi0"]
NONVALUATIONAL_NAMES = ["q1_pi", "q3_11pi"]


def fixture_path(name: str) -> str:
    return os.path.join(fixtures_dir(), name + ".json")


def get_model(name: str):
    return load_model(fixture_path(name))


def past_default_precision() -> Fraction:
    """A rational below pi that the default precision cannot separate
    from it: the lower end of a fresh 4,200-bit interval around pi."""
    return PiOracle().refine(4200)[0]


def row_value(row: tuple, points: dict, d: int) -> int:
    """An integer row ``(terms, const)`` at points over d, summed out:
    const * d plus c * points[v][i] for each (v, i, c) in terms."""
    terms, const = row
    return const * d + sum(c * points[v][i] for v, i, c in terms)


def lanes_of(columns: dict, n: int) -> Lanes:
    """n lanes of per-lane values, each variable mapped to one sequence of
    n integers per coordinate, as a ``Lanes``: its pool is their distinct
    values, at most 256, and each column their indices in it."""
    pool = tuple(sorted({x for cs in columns.values() for c in cs
                         for x in c}))
    assert len(pool) <= 256, len(pool)
    at = {x: k for k, x in enumerate(pool)}
    return Lanes({v: tuple(bytes([at[x] for x in c]) for c in cs)
                  for v, cs in columns.items()}, pool, n)


def random_cut_model(rng):
    """A random model of dimension 1 to 3, or None when no e_in fits it.

    U is a subgroup level, or a strict or non-strict downward cut whose
    threshold holds rationals in [-4, 4] with denominators up to 3 and
    either one irrational entry (pi, sqrt 2 or sqrt 5) or a trailing +inf
    block.  e_out is 6 at the top coordinate; e_in is the first point of
    1/2 at the top coordinate, then the units below it, that the model
    accepts, so no stabilizer is worked out here."""
    dim = rng.randint(1, 3)
    kind = rng.choice(["subgroup", "rational", "oracle", "inf", "oracle",
                       "inf"])
    if dim == 1 and kind in ("subgroup", "inf"):
        return None
    if kind == "subgroup":
        interp = SubgroupLevel(rng.randint(1, dim - 1))
    else:
        entries = []
        for _ in range(dim):
            d = rng.randint(1, 3)
            entries.append(Fraction(rng.randint(-4 * d, 4 * d), d))
        if kind == "oracle":
            entries[rng.randint(0, dim - 1)] = rng.choice(
                [PiOracle(), SqrtOracle(Fraction(2)), SqrtOracle(Fraction(5))])
        elif kind == "inf":
            pos = rng.randint(1, dim - 1)
            entries[pos:] = [PLUS_INF] * (dim - pos)
        interp = DownwardCut(tuple(entries), rng.random() < 0.5)
    e_out = Point.unit(dim, 0).scale(6)
    for e_in in (Point.unit(dim, 0).scale(Fraction(1, 2)),
                 *(Point.unit(dim, j) for j in range(1, dim))):
        try:
            return ModelDescriptor(dim, interp, e_in, e_out)
        except MalformedModelError:
            continue
    return None


@pytest.fixture(scope="session")
def models():
    return {name: get_model(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def m_sub2():
    return get_model("lex2_sub1")


@pytest.fixture(scope="session")
def m_sub3():
    return get_model("lex3_sub2")


@pytest.fixture(scope="session")
def m_pi():
    return get_model("q1_pi")


@pytest.fixture(scope="session")
def m_11pi():
    return get_model("q3_11pi")


@pytest.fixture(scope="session")
def m_1inf():
    return get_model("lex2_val_1inf")


@pytest.fixture(scope="session")
def m_1pi0():
    return get_model("lex3_val_1pi0")


@pytest.fixture(scope="session")
def m_rat():
    return get_model("lex2_rat_11")
