"""The block driver against the scalar one, lane by lane.

``Evaluator.block`` walks a root's rows once over many assignments and
returns a lane mask, byte j for assignment j.  Here every such mask is
compared with the scalar root run at each assignment alone, over toy
trees (roots that fold to a constant, negated literals, empty
connectives, several roots sharing one list of atom masks), compiled
elimination outputs, oracle decisions and random models, at the lane
counts on both sides of the driver's edges; and the
irrational edge, where the block and the scalar tests fall back from the
bracket to ``compare``, is checked against the Point reference.  Both tests
of an atom are built by ``closures`` from the one spec its lowering gives."""

import operator
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

import convexqe.fuzz as fuzz
from convexqe import closures, models, oracle
from convexqe.closures import FALSE, TRUE, Lowering
from convexqe.cutqe import build_structure, qe_star
from convexqe.errors import ConvexQEError
from convexqe.fuzz import (SAMPLE_DENOM, gen_formula, int_sample_pool,
                           pool_drawer)
from convexqe.models import (IntCompiledFormula, Point, compile_formula,
                             eval_formula)
from convexqe.oracle import CAtom, LinForm, oracle_compile
from convexqe.parser import parse_formula
from convexqe.syntax import free_vars

from conftest import (FIXTURE_NAMES, VALUATIONAL_NAMES, get_model,
                      random_cut_model)

ELIMINABLE_NAMES = VALUATIONAL_NAMES + ["lex2_rat_11"]
LANES = [1, 7, 64, 1000]
NAMES = ("x", "y")
BLOCK_TEST = closures.block_test  # before any test wraps it


def _mask(bools) -> int:
    """The lane mask of per-lane truths, spelled out bit by bit."""
    return sum(1 << 8 * j for j, b in enumerate(bools) if b)


def _columns(points: list[dict], dim: int) -> dict:
    return {v: tuple(tuple(p[v][i] for p in points) for i in range(dim))
            for v in NAMES}


def _check_lanes(ev, points: list[dict], dim: int, denom: int):
    """Root 0's block mask and every block test built for it equal the
    scalar root, and the scalar test of the atom's spec, at each point
    alone."""
    cols = _columns(points, dim)
    scalar = ev.at(denom)
    assert ev.block(cols, denom, len(points)) == _mask(
        scalar(p) for p in points)
    for slot, block_test in enumerate(ev.block_tests):
        if block_test is not None:
            test = closures.scalar_test(*ev.specs[slot - 1])
            assert block_test(cols, denom, len(points)) == _mask(
                test(p, [denom, *ev.blank]) for p in points), slot


def _draws(m, seed, n: int) -> list[dict]:
    draw = pool_drawer(random.Random(seed), int_sample_pool(m))
    return [{v: draw(m.dim) for v in NAMES} for _ in range(n)]


def _check_row_order(ev):
    for i, (_, t, e) in enumerate(ev.rows):
        assert t != e
        for exit in (t, e):
            assert exit in (TRUE, FALSE) or 0 <= exit < i, (i, t, e)
    for entry in ev.entries:
        assert entry in (TRUE, FALSE) or 0 <= entry < len(ev.rows)


# ---------------------------------------------------------------------------
# toy trees: an atom "vi<k" reads p[v][i] < k (a tuple would be a
# connective)


def _toy_lowering(monkeypatch):
    """A lowering of toy atoms, and its log: the atoms by slot, each atom
    as its block test is built (lowered) and at each call of that test
    (calls).  "vi<k" is the row p[v][i] - k below 0 for even k; for odd k
    it is p[v][i] - k + 1 below 0 or, where that row is zero, the tail's
    True, which the sign does not give a zero lead."""
    log = SimpleNamespace(atoms=[], lowered=[], calls=[])
    named = {}  # id of a spec's rows -> its atom

    def lower(a):
        v, i, k = a[0], int(a[1]), int(a[3:])
        odd = k % 2 == 1
        rows = [(((v, i, 1),), 1 - k if odd else -k)]
        log.atoms.append(a)
        named[id(rows)] = a
        return rows, operator.lt, odd

    def block_test(rows, sign, tail):
        a = named[id(rows)]
        log.lowered.append(a)
        test = BLOCK_TEST(rows, sign, tail)

        def counted(p, d, n):
            log.calls.append(a)
            return test(p, d, n)
        return counted
    monkeypatch.setattr(closures, "block_test", block_test)
    return Lowering(lower), log


def _toy_tree(rng: random.Random, depth: int):
    r = rng.random()
    if depth == 0 or r < 0.25:
        if r < 0.05:
            return rng.random() < 0.5
        return f"{rng.choice(NAMES)}{rng.randrange(2)}<{rng.randint(-2, 2)}"
    if r < 0.4:
        return ("~", _toy_tree(rng, depth - 1))
    op = rng.choice("&|")
    return (op, *(_toy_tree(rng, depth - 1)
                  for _ in range(rng.choice([0, 1, 2, 2, 3, 4]))))


class TestToyTrees:
    @pytest.mark.parametrize("n", LANES)
    def test_block_matches_scalar(self, n, monkeypatch):
        rng = random.Random(f"toy:{n}")
        for _ in range(200 if n < 1000 else 30):
            trees = [_toy_tree(rng, 5) for _ in range(rng.randint(1, 3))]
            ev = _toy_lowering(monkeypatch)[0].evaluator(*trees)
            _check_row_order(ev)
            points = [{v: (rng.randint(-3, 3), rng.randint(-3, 3))
                       for v in NAMES} for _ in range(n)]
            _check_lanes(ev, points, 2, 1)

    @pytest.mark.parametrize("n", [1, 7, 500])
    def test_roots_share_one_mask_list(self, n, monkeypatch):
        """Every root over one list of masks, in either order, answers as
        each scalar root over one frame per assignment, and each block
        test runs at most once per list."""
        rng = random.Random(f"shared:{n}")
        shared = alone = 0
        for _ in range(150 if n < 500 else 30):
            trees = [_toy_tree(rng, 4) for _ in range(rng.randint(2, 5))]
            low, log = _toy_lowering(monkeypatch)
            ev, calls = low.evaluator(*trees), log.calls
            points = [{v: (rng.randint(-3, 3), rng.randint(-3, 3))
                       for v in NAMES} for _ in range(n)]
            cols = _columns(points, 2)
            want = [[] for _ in trees]
            for p in points:
                frame = [1, *ev.blank]
                for w, root in zip(want, ev.roots):
                    w.append(root(p, frame))
            roots = range(len(trees))
            for order in (roots, reversed(roots)):
                masks = [None, *ev.blank]
                del calls[:]
                got = {r: ev.block(cols, 1, n, r, masks) for r in order}
                assert [got[r] for r in roots] == [_mask(w) for w in want]
                assert sorted(calls) == sorted(
                    log.atoms[s - 1] for s, mask in enumerate(masks)
                    if s and mask is not None)
                assert len(calls) == len(set(calls))
            shared += len(calls)
            del calls[:]
            for r in roots:
                ev.block(cols, 1, n, r)
            alone += len(calls)
        assert shared < alone  # some atom was shared by two roots

    @pytest.mark.parametrize("tree, truth, tested", [
        (True, True, 0), (False, False, 0), (("&",), True, 0),
        (("|",), False, 0), (("~", ("&",)), False, 0),
        (("&", ("|",), "x0<1"), False, 0),
        (("|", "x0<1", ("~", ("|",))), True, 0),
        (("|", "x0<1", ("~", "x0<1")), True, 1)])
    def test_roots_that_fold(self, tree, truth, tested, monkeypatch):
        # a root that folds tests nothing; an atom both of whose exits
        # lead to TRUE is still tested, once
        low, log = _toy_lowering(monkeypatch)
        ev, lowered = low.evaluator(tree), log.lowered
        for n in LANES:
            cols = {"x": ((0,) * n,)}
            assert ev.block(cols, 1, n) == (_mask([True] * n) if truth
                                            else 0)
        assert ev.at(1)({"x": (0,)}) is truth
        assert len(lowered) == tested

    def test_negated_literals_and_lazy_lowering(self, monkeypatch):
        low, log = _toy_lowering(monkeypatch)
        lowered = log.lowered
        a, b = "x0<1", "x1<0"
        ev = low.evaluator(("&", ("~", a), ("|", b, ("~", a))))
        assert lowered == []  # nothing is lowered before the first block
        cols = {"x": ((0, 1, 2, 1), (-1, -1, 0, 0))}
        # lanes: a holds at lane 0 only; b at lanes 0 and 1
        assert ev.block(cols, 1, 4) == _mask([False, True, True, True])
        assert ev.block(cols, 1, 4) == _mask([False, True, True, True])
        assert lowered == [a, b]  # once each, on first use

    def test_a_test_unreached_by_every_lane_is_not_run(self, monkeypatch):
        low, log = _toy_lowering(monkeypatch)
        lowered = log.lowered
        a, b = "x0<1", "x1<0"
        ev = low.evaluator(("&", a, b))
        assert ev.block({"x": ((5, 6), (0, 0))}, 1, 2) == 0
        assert lowered == [a]


# ---------------------------------------------------------------------------
# compiled elimination outputs and oracle decisions over the fixtures


def _qe_outputs(name: str, count: int):
    m = get_model(name)
    st = build_structure(m)
    rng = random.Random(f"block-qe:{name}")
    outs = []
    while len(outs) < count:
        try:
            outs.append(qe_star(gen_formula(rng, list(NAMES), 3, 2), st))
        except ConvexQEError:
            continue
    return m, outs


def _decisions(name: str, count: int):
    m = get_model(name)
    rng = random.Random(f"block-oracle:{name}")
    decs = []
    while len(decs) < count:
        try:
            decs.append(oracle_compile(m, gen_formula(rng, list(NAMES), 3, 2)))
        except ConvexQEError:
            continue
    return m, decs


@pytest.mark.parametrize("name", ELIMINABLE_NAMES)
def test_compiled_outputs(name):
    m, outs = _qe_outputs(name, 24)
    for k, out in enumerate(outs):
        ev = compile_formula(m, out)
        _check_row_order(ev)
        for n in (LANES if k < 4 else LANES[:3]):
            _check_lanes(ev, _draws(m, f"{name}:{k}:{n}", n), m.dim,
                         SAMPLE_DENOM)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_oracle_decisions(name):
    m, decs = _decisions(name, 24)
    for k, dec in enumerate(decs):
        ev = dec.lower()
        _check_row_order(ev)
        for n in (LANES if k < 4 else LANES[:3]):
            _check_lanes(ev, _draws(m, f"{name}:{k}:{n}", n), m.dim,
                         SAMPLE_DENOM)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from(LANES[:3]),
       denom=st.sampled_from([1, 6, 35]))
def test_random_cut_models(seed, n, denom):
    rng = random.Random(seed)
    m = random_cut_model(rng)
    assume(m is not None)
    for _ in range(4):
        points = [{v: tuple(rng.randint(-30, 30) for _ in range(m.dim))
                   for v in NAMES} for _ in range(n)]
        ev = compile_formula(m, gen_formula(rng, list(NAMES), 3, 0))
        _check_lanes(ev, points, m.dim, denom)
        try:
            dec = oracle_compile(m, gen_formula(rng, list(NAMES), 3, 1))
        except ConvexQEError:
            continue
        _check_lanes(dec.lower(), points, m.dim, denom)


def test_block_is_exposed_at_the_sample_denominator(models):
    m = models["lex3_val_1pi0"]
    f = parse_formula("U(x - y) & ~(x < 2 * y)")
    points = _draws(m, "exposed", 64)
    cols = _columns(points, m.dim)
    for side in (IntCompiledFormula(m, f, SAMPLE_DENOM),
                 oracle.IntOracleEval(oracle_compile(m, f), SAMPLE_DENOM)):
        assert side.block(cols, 64) == _mask(side.eval(p) for p in points)


# ---------------------------------------------------------------------------
# the irrational edge: lanes inside the bracket fall back to compare


BIG = 2**40  # a denominator fine enough to land inside the bracket


def _edge_values(alpha) -> list[int]:
    """Numerators over BIG: 40 spread across the oracle's bracket, so on
    both sides of its value, and 10 outside it."""
    lo, hi, bits = alpha.bracket()
    a, b = lo * BIG >> bits, hi * BIG >> bits
    inside = [a + (b - a) * k // 41 for k in range(1, 41)]
    return inside + [a - 5, a - 1, b + 1, b + 7, 0, 3 * BIG, 4 * BIG,
                     -BIG, a - BIG // 2, b + BIG // 3]


@pytest.fixture
def compare_calls(monkeypatch):
    """The rationals that IrrationalOracle.compare is asked about."""
    calls = []
    original = models.IrrationalOracle.compare

    def counted(self, q, *args):
        calls.append(q)
        return original(self, q, *args)
    monkeypatch.setattr(models.IrrationalOracle, "compare", counted)
    return calls


@pytest.mark.parametrize("name, text, lead", [
    ("q1_pi", "U(x)", ()), ("q1_pi", "U(-1 * y)", ()),
    ("q1_pi", "~U(-1 * y) | x = y", ()),
    ("lex3_val_1pi0", "U(x)", (BIG,)),
    ("lex3_val_1pi0", "~U(-1 * y) & x != y", (BIG,)),
    ("q3_11pi", "U(x) & ~I(y)", (BIG, BIG))])
def test_lanes_inside_the_bracket(name, text, lead, compare_calls):
    # x is lead, then v at the irrational entry, then zeros; y is -x
    m = get_model(name)
    f = parse_formula(text)
    pad = (0,) * (m.dim - len(lead) - 1)
    xs = [(*lead, v, *pad) for v in _edge_values(m.cut.oracle)]
    points = [{"x": x, "y": tuple(-c for c in x)} for x in xs]
    want = [eval_formula(m, f, {v: Point(tuple(Fraction(c, BIG)
                                               for c in p[v]))
                                for v in NAMES})
            for p in points]
    assert any(want[:40]) and not all(want[:40])
    for ev in (compile_formula(m, f), oracle_compile(m, f).lower()):
        del compare_calls[:]
        _check_lanes(ev, points, m.dim, BIG)
        assert [ev.at(BIG)(p) for p in points] == want
        assert compare_calls  # the bracket alone could not decide these


@pytest.mark.parametrize("ac", [-3, -1, 1, 2])
def test_oracle_alpha_atoms_of_either_sign(ac, compare_calls):
    # x#0 + ac * alpha < 0 at x over BIG, lanes on both sides of -ac * pi
    alpha = models.PiOracle()
    atom = CAtom(LinForm((("x#0", 1),), ac, 0), "lt")
    spec = oracle._lower_atom(alpha, atom)
    scalar, block = closures.scalar_test(*spec), closures.block_test(*spec)
    lo, hi, bits = alpha.bracket()
    centre = -ac * (lo + hi) * BIG >> bits + 1
    xs = [centre + k * 2**22 for k in range(-40, 41)] + [0, -BIG, 5 * BIG]
    want = [(alpha.compare(Fraction(-x, ac * BIG)) > 0) == (ac > 0)
            for x in xs]
    del compare_calls[:]
    got = [scalar({"x": (x,)}, [BIG, None]) for x in xs]
    assert got == want and compare_calls
    del compare_calls[:]
    assert block({"x": (tuple(xs),)}, BIG, len(xs)) == _mask(want)
    assert any(want) and not all(want) and compare_calls


def test_bracket_holds_the_value():
    for alpha in (models.PiOracle(), models.SqrtOracle(Fraction(2)),
                  models.SqrtOracle(Fraction(11, 3))):
        lo, hi, bits = alpha.bracket()
        assert alpha.compare(Fraction(lo, 2**bits)) < 0
        assert alpha.compare(Fraction(hi, 2**bits)) > 0
        assert hi - lo <= 4


# ---------------------------------------------------------------------------
# run_fuzz's first mismatch, block by block


def _scalar_first_mismatch(rng, draw, names, dim, count, got, expected):
    for j in range(count):
        ints = {v: draw(dim) for v in names}
        if got(ints) != expected(ints):
            return j + 1, ints
    return count, None


@pytest.mark.parametrize("block", [fuzz.SAMPLE_BLOCK, 64, 7, 1])
@pytest.mark.parametrize("name", ["lex2_sub1", "lex3_val_1pi0"])
def test_first_mismatch_is_the_scalar_loops(name, block, monkeypatch):
    """Equal counts, assignments and generator states, for pairs of
    formulas that disagree at some assignments, in blocks of every size;
    closed pairs have no coordinate to draw."""
    monkeypatch.setattr(fuzz, "SAMPLE_BLOCK", block)
    m = get_model(name)
    texts = ["x < y", "U(x - 2 * y)", "x = y | U(y)", "~I(x) & U(x + y)",
             "y < x", "U(y)", "true", "false"]
    rng = random.Random(f"mismatch:{name}")
    found = 0
    for _ in range(40):
        f, g = (parse_formula(rng.choice(texts)) for _ in range(2))
        names = tuple(sorted(free_vars(f) | free_vars(g)))
        sides = [IntCompiledFormula(m, h, SAMPLE_DENOM) for h in (f, g)]
        count = rng.choice([0, 1, 5, 70, 300])
        seed = rng.getrandbits(32)
        results = []
        for first_mismatch, side in ((fuzz._first_mismatch, "block"),
                                     (_scalar_first_mismatch, "eval")):
            r = random.Random(seed)
            done, ints = first_mismatch(
                r, pool_drawer(r, int_sample_pool(m)), names, m.dim, count,
                *(getattr(s, side) for s in sides))
            results.append((done, ints, r.getstate()))
        assert results[0] == results[1], (f, g, count)
        found += results[0][1] is not None and results[0][0] > 1
    assert found > 5
