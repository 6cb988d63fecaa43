"""The block driver against the scalar one, lane by lane.

``Evaluator.block`` walks a root's rows once over many assignments and
returns a lane mask, byte j for assignment j.  Here every such mask is
compared with ``Evaluator.run`` at each assignment alone, and every atom's
``block_holds`` mask with ``holds`` of its spec, the per-lane reference,
over toy trees (roots that fold to a constant, negated literals, empty
connectives, several roots sharing one list of atom masks or one frame),
compiled elimination outputs, oracle decisions and random models, at the
lane counts on both sides of the driver's edges; and the irrational edge,
where both fall back from the bracket to ``compare``, is checked against
the Point reference.  Both read the one spec an atom's lowering gives."""

import operator
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

import convexqe.fuzz as fuzz
from convexqe import closures, models, oracle
from convexqe.closures import FALSE, TRUE, Lanes, Lowering
from convexqe.cutqe import build_structure, qe_star
from convexqe.errors import ConvexQEError
from convexqe.fuzz import (SAMPLE_DENOM, gen_formula, index_drawer,
                           int_sample_pool, pool_drawer)
from convexqe.models import (IntCompiledFormula, Point, compile_formula,
                             eval_formula)
from convexqe.oracle import CAtom, LinForm, oracle_compile
from convexqe.parser import parse_formula
from convexqe.syntax import free_vars

from conftest import (FIXTURE_NAMES, VALUATIONAL_NAMES, get_model,
                      lanes_of, random_cut_model, row_value)

ELIMINABLE_NAMES = VALUATIONAL_NAMES + ["lex2_rat_11"]
LANES = [1, 7, 64, 1000]
NAMES = ("x", "y")
# before any test wraps them
BLOCK_HOLDS, HOLDS = closures.block_holds, closures.holds


def _mask(bools) -> int:
    """The lane mask of per-lane truths, spelled out bit by bit."""
    return sum(1 << 8 * j for j, b in enumerate(bools) if b)


def _columns(points: list[dict], dim: int) -> dict:
    return {v: tuple(tuple(p[v][i] for p in points) for i in range(dim))
            for v in NAMES}


def _check_lanes(ev, points: list[dict], dim: int, denom: int):
    """Root 0's block mask equals ``run`` at each point alone, and every
    atom's ``block_holds`` mask, the one the block kept included, equals
    ``holds`` of its spec at each point alone."""
    lanes = lanes_of(_columns(points, dim), len(points))
    masks = [None, *ev.blank]
    assert ev.block(lanes, denom, 0, masks) == _mask(
        ev.run(p, [denom, *ev.blank]) for p in points)
    for slot, spec in enumerate(ev.specs, 1):
        want = _mask(HOLDS(spec, p, denom) for p in points)
        assert BLOCK_HOLDS(spec, lanes, denom) == want, slot
        assert masks[slot] in (None, want), slot


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
    at each call of ``block_holds`` (calls) and of ``holds`` (tested).
    "vi<k" is the row p[v][i] - k below 0 for even k; for odd k it is
    p[v][i] - k + 1 below 0 or, where that row is zero, the tail's True,
    which the sign does not give a zero lead."""
    log = SimpleNamespace(atoms=[], calls=[], tested=[])
    named = {}  # id of a spec -> its atom

    def lower(a):
        v, i, k = a[0], int(a[1]), int(a[3:])
        odd = k % 2 == 1
        spec = [(((v, i, 1),), 1 - k if odd else -k)], operator.lt, odd
        log.atoms.append(a)
        named[id(spec)] = a
        return spec

    def block_holds(spec, lanes, d):
        log.calls.append(named[id(spec)])
        return BLOCK_HOLDS(spec, lanes, d)

    def holds(spec, points, d):
        log.tested.append(named[id(spec)])
        return HOLDS(spec, points, d)
    monkeypatch.setattr(closures, "block_holds", block_holds)
    monkeypatch.setattr(closures, "holds", holds)
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
            lanes = lanes_of(_columns(points, 2), n)
            roots = range(len(trees))
            want = [[] for _ in trees]
            for p in points:
                frame = [1, *ev.blank]
                for r in roots:
                    want[r].append(ev.run(p, frame, r))
            for order in (roots, reversed(roots)):
                masks = [None, *ev.blank]
                del calls[:]
                got = {r: ev.block(lanes, 1, r, masks) for r in order}
                assert [got[r] for r in roots] == [_mask(w) for w in want]
                assert sorted(calls) == sorted(
                    log.atoms[s - 1] for s, mask in enumerate(masks)
                    if s and mask is not None)
                assert len(calls) == len(set(calls))
            shared += len(calls)
            del calls[:]
            for r in roots:
                ev.block(lanes, 1, r)
            alone += len(calls)
        assert shared < alone  # some atom was shared by two roots

    def test_roots_share_one_frame(self, monkeypatch):
        """Every root run at one point with one frame, in either order,
        answers as with a frame of its own, and tests each atom at most
        once, and exactly the atoms that the block driver tests at that
        point as its one lane: those whose rows the point reaches."""
        rng = random.Random("frame")
        shared = alone = 0
        for _ in range(150):
            trees = [_toy_tree(rng, 4) for _ in range(rng.randint(2, 5))]
            low, log = _toy_lowering(monkeypatch)
            ev, tested = low.evaluator(*trees), log.tested
            roots = range(len(trees))
            for _ in range(5):
                p = {v: (rng.randint(-3, 3), rng.randint(-3, 3))
                     for v in NAMES}
                del tested[:]
                want = [ev.run(p, [1, *ev.blank], r) for r in roots]
                alone += len(tested)
                masks, lanes = [None, *ev.blank], lanes_of(_columns([p], 2), 1)
                for r in roots:
                    ev.block(lanes, 1, r, masks)
                reached = sorted(log.atoms[s - 1] for s, mask in
                                 enumerate(masks) if s and mask is not None)
                for order in (roots, reversed(roots)):
                    frame = [1, *ev.blank]
                    del tested[:]
                    got = {r: ev.run(p, frame, r) for r in order}
                    assert [got[r] for r in roots] == want
                    assert len(tested) == len(set(tested))
                    assert sorted(tested) == reached
                shared += len(tested)
        assert shared < alone  # some atom was shared by two roots

    @pytest.mark.parametrize("tree, truth, tested", [
        (True, True, 0), (False, False, 0), (("&",), True, 0),
        (("|",), False, 0), (("~", ("&",)), False, 0),
        (("&", ("|",), "x0<1"), False, 0),
        (("|", "x0<1", ("~", ("|",))), True, 0),
        (("|", "x0<1", ("~", "x0<1")), True, 1)])
    def test_roots_that_fold(self, tree, truth, tested, monkeypatch):
        # a root that folds tests nothing; an atom both of whose exits
        # lead to TRUE is still tested, once per block and per frame
        low, log = _toy_lowering(monkeypatch)
        ev = low.evaluator(tree)
        for n in LANES:
            del log.calls[:]
            lanes = lanes_of({"x": ((0,) * n,)}, n)
            assert ev.block(lanes, 1) == (_mask([True] * n) if truth else 0)
            assert len(log.calls) == tested
        assert ev.run({"x": (0,)}, [1, *ev.blank]) is truth
        assert len(log.tested) == tested

    def test_negated_literals_and_lazy_lowering(self, monkeypatch):
        # each atom is tested where it is first reached, once per block
        low, log = _toy_lowering(monkeypatch)
        calls = log.calls
        a, b = "x0<1", "x1<0"
        ev = low.evaluator(("&", ("~", a), ("|", b, ("~", a))))
        lanes = lanes_of({"x": ((0, 1, 2, 1), (-1, -1, 0, 0))}, 4)
        # lanes: a holds at lane 0 only; b at lanes 0 and 1
        assert ev.block(lanes, 1) == _mask([False, True, True, True])
        assert calls == [a, b]
        assert ev.block(lanes, 1) == _mask([False, True, True, True])
        assert calls == [a, b] * 2

    def test_a_test_unreached_by_every_lane_is_not_run(self, monkeypatch):
        low, log = _toy_lowering(monkeypatch)
        a, b = "x0<1", "x1<0"
        ev = low.evaluator(("&", a, b))
        assert ev.block(lanes_of({"x": ((5, 6), (0, 0))}, 2), 1) == 0
        assert log.calls == [a]
        for x in (5, 6):
            assert not ev.run({"x": (x, 0)}, [1, *ev.blank])
        assert log.tested == [a, a]


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
    evs = []
    while len(evs) < count:
        try:
            evs.append(oracle_compile(m, gen_formula(rng, list(NAMES), 3, 2)))
        except ConvexQEError:
            continue
    return m, evs


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
    m, evs = _decisions(name, 24)
    for k, ev in enumerate(evs):
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
            ev = oracle_compile(m, gen_formula(rng, list(NAMES), 3, 1))
        except ConvexQEError:
            continue
        _check_lanes(ev, points, m.dim, denom)


def test_block_is_exposed_at_the_sample_denominator(models):
    m = models["lex3_val_1pi0"]
    f = parse_formula("U(x - y) & ~(x < 2 * y)")
    points = _draws(m, "exposed", 64)
    lanes = lanes_of(_columns(points, m.dim), 64)
    for side in (IntCompiledFormula(m, f, SAMPLE_DENOM),
                 oracle.IntOracleEval(oracle_compile(m, f), SAMPLE_DENOM)):
        assert side.block(lanes) == _mask(side.eval(p) for p in points)


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
    for ev in (compile_formula(m, f), oracle_compile(m, f)):
        del compare_calls[:]
        _check_lanes(ev, points, m.dim, BIG)
        assert [ev.run(p, [BIG, *ev.blank]) for p in points] == want
        assert compare_calls  # the bracket alone could not decide these


@pytest.mark.parametrize("ac", [-3, -1, 1, 2])
def test_oracle_alpha_atoms_of_either_sign(ac, compare_calls):
    # x#0 + ac * alpha < 0 at x over BIG, lanes on both sides of -ac * pi
    alpha = models.PiOracle()
    atom = CAtom(LinForm((("x#0", 1),), ac, 0), "lt")
    spec = oracle._lower_atom(alpha, atom)
    lo, hi, bits = alpha.bracket()
    centre = -ac * (lo + hi) * BIG >> bits + 1
    xs = [centre + k * 2**22 for k in range(-40, 41)] + [0, -BIG, 5 * BIG]
    want = [(alpha.compare(Fraction(-x, ac * BIG)) > 0) == (ac > 0)
            for x in xs]
    del compare_calls[:]
    got = [closures.holds(spec, {"x": (x,)}, BIG) for x in xs]
    assert got == want and compare_calls
    del compare_calls[:]
    assert closures.block_holds(spec, lanes_of({"x": (xs,)}, len(xs)),
                                BIG) == _mask(want)
    assert any(want) and not all(want) and compare_calls


def test_bracket_holds_the_value():
    for alpha in (models.PiOracle(), models.SqrtOracle(Fraction(2)),
                  models.SqrtOracle(Fraction(11, 3))):
        lo, hi, bits = alpha.bracket()
        assert alpha.compare(Fraction(lo, 2**bits)) < 0
        assert alpha.compare(Fraction(hi, 2**bits)) > 0
        assert hi - lo <= 4


# ---------------------------------------------------------------------------
# packed lanes: each row as fields of one big integer, against holds of the
# same spec


def _packed_reference(col, w: int) -> int:
    """A column's packing spelled out: field j holds x_j + 2**(w - 1)."""
    return sum(x + 2 ** (w - 1) << w * j for j, x in enumerate(col))


WIDTHS = [16, 32, 64, 128, 192]


@pytest.mark.parametrize("w", WIDTHS)
def test_width_is_the_smallest_that_fits(w):
    # a value less a threshold within +-(bound + 1), less 1, must fit a
    # field: 2**(w - 1) > 2 * bound + 2
    largest = 2 ** (w - 2) - 2
    assert 2 ** (w - 1) > 2 * largest + 2 >= 2 ** (w - 1) - 2
    assert closures._width(largest) == w
    wider = closures._width(largest + 1)
    assert wider > w and wider == (WIDTHS + [256])[WIDTHS.index(w) + 1]


@pytest.mark.parametrize("w", WIDTHS + ["wide"])
def test_packed_column_is_the_biased_sum(w):
    """The row x over a column whose bound sets the width is that column
    packed: sum of (x + 2**(W - 1)) * 2**(W * j)."""
    big = 10 ** 4400 if w == "wide" else 2 ** (w - 2) - 2
    rng = random.Random(f"pack:{w}")
    col = tuple([0, 1, -1, big, -big, big - 1, -big + 1] + [
        rng.randint(-big, big) for _ in range(60)])
    lanes = lanes_of({"x": (col,)}, len(col))
    width, bound, row, ones = lanes._row(((("x", 0, 1),), 0, 1))
    assert bound == big
    if w != "wide":
        assert width == w
    else:
        assert width % 64 == 0 and width > 14616
    assert ones == _packed_reference([-2 ** (width - 1) + 1] * len(col),
                                     width)
    assert row == _packed_reference(col, width)
    assert [lanes.value((("x", 0, 1),), 0, 1, j)
            for j in range(len(col))] == list(col)
    # a row with a constant and a negative coefficient, at the same width
    _, _, row, _ = lanes._row(((("x", 0, -1),), 0, 1))
    assert row == _packed_reference([-x for x in col], width)


# index columns: pool indices, one byte per lane, packed by translation


INDEX_ROWS = [((("x", 0, 1),), 0, 1), ((("x", 0, -1),), 0, 1),
              ((("x", 0, 1), ("y", 0, -1)), 0, 6),
              ((("x", 0, -3), ("y", 0, 2)), 1, 6), ((("y", 0, 1),), -1, 2)]


def _check_index_columns(pool, xs, ys):
    """Index columns over pool give each row's packing spelled out, its
    values and its sign masks, lane by lane, with the row bounded by the
    pool's largest |entry|."""
    pool = tuple(pool)
    n, top = len(xs), max(map(abs, pool))
    lanes = Lanes({"x": (bytes(xs),), "y": (bytes(ys),)}, pool, n)
    for terms, const, denom in INDEX_ROWS:
        key = terms, const, denom
        want = [row_value((terms, const), {"x": (pool[x],), "y": (pool[y],)},
                          denom) for x, y in zip(xs, ys)]
        width, bound, row, _ = lanes._row(key)
        assert bound == abs(const * denom) + sum(
            abs(c) for _, _, c in terms) * top, key
        assert row == _packed_reference(want, width), key
        assert lanes.signs(*key) == (
            _mask(x < 0 for x in want), _mask(x == 0 for x in want)), key
        for j in {0, n // 2, n - 1}:
            assert lanes.value(terms, const, denom, j) == want[j]


def _extreme_pool(rng: random.Random, size: int, big: int) -> list[int]:
    """size entries within +-big, big and -big among them when size > 1,
    with duplicates."""
    pool = [big, -big, big, 0, -big + 1, 1][:size]
    pool += [rng.choice([rng.randint(-big, big), big, -big, 0])
             for _ in range(size - len(pool))]
    rng.shuffle(pool)
    return pool


@pytest.mark.parametrize("w", WIDTHS + ["wide"])
def test_index_column_packs_as_its_values(w):
    """At every width, extreme entries included, an index column packs to
    its values' biased sum."""
    big = 10 ** 4400 if w == "wide" else 2 ** (w - 2) - 2
    rng = random.Random(f"index:{w}")
    pool = _extreme_pool(rng, 12, big)
    xs = list(range(12)) + [rng.randrange(12) for _ in range(200)]
    ys = xs[::-1]
    _check_index_columns(pool, xs, ys)
    lanes = Lanes({"x": (bytes(xs),)}, tuple(pool), len(xs))
    width, bound, row, _ = lanes._row(((("x", 0, 1),), 0, 1))
    assert bound == big and (w == "wide" or width == w)
    assert row == _packed_reference([pool[i] for i in xs], width)


@pytest.mark.parametrize("w", WIDTHS)
@pytest.mark.parametrize("size", [1, 2, 255, 256])
def test_index_columns_of_every_pool_size(size, w):
    """Pools of one entry up to 256, with duplicate and extreme entries."""
    rng = random.Random(f"sizes:{size}:{w}")
    pool = _extreme_pool(rng, size, 2 ** (w - 2) - 2)
    xs = list(range(size)) + [rng.randrange(size) for _ in range(300)]
    rng.shuffle(xs)
    ys = [rng.randrange(size) for _ in xs]
    _check_index_columns(pool, xs, ys)


# per scale: lane values near it, so rows take 16-bit fields, fields past
# 2**15, 2**31 or 2**63, or (with 10**4400 as a coefficient too) fields of
# thousands of bytes
SCALES = {"2^10": 2 ** 10, "2^14": 2 ** 14, "2^30": 2 ** 30,
          "2^62": 2 ** 62, "10^4400": 10 ** 4400}


def _bracket_less(lo: int, hi: int, bits: int, beta: Fraction, log: list):
    """less(x, den) for beta in (lo, hi) / 2**bits: logs each call, and
    fails one made where the bracket alone decides."""
    def less(x: int, den: int) -> bool:
        assert lo * den < x << bits < hi * den, (x, den)
        log.append((x, den))
        return Fraction(x, den) < beta
    return less


def _random_spec(rng: random.Random, scale: int, dim: int, points: list):
    """A spec over x and y: up to three lead rows that vanish on many
    lanes, a random sign, and a bool tail or a bracket tail around the
    points; then a denominator and the log of the tail's less."""
    coeffs = [1, -1, 2, -3, 5]
    if scale == 10 ** 4400:
        coeffs += [scale + 1, -scale]

    def row():
        i = rng.randrange(dim)
        c = rng.choice(coeffs)
        if rng.random() < 0.5:  # zero where y copies x
            return ((("x", i, c), ("y", i, -c)), 0)
        return ((("x", i, c),), rng.choice([0, 0, 1, -2]))
    rows = [row() for _ in range(rng.randint(0, 3))]
    sign = rng.choice([operator.lt, operator.le, operator.eq, operator.ne])
    if rng.random() < 0.4:
        return rows, sign, rng.random() < 0.5, rng.choice([1, 6]), None
    # a bracket at or just below the tail's row at some lane
    (terms, const), k, d = row(), rng.choice([1, 3]), rng.choice([1, 6])
    bits = rng.choice([0, 4, 16])
    x = row_value((terms, const), rng.choice(points), d)
    lo = (x << bits) // (k * d) - rng.choice([0, 1, 3])
    hi = lo + rng.choice([1, 2, 5, scale << bits])
    beta = Fraction(lo, 2 ** bits) + Fraction(hi - lo, 2 ** bits) * \
        Fraction(rng.randint(1, 99), 100)
    log = []
    tail = ((terms, const), k, lo, hi, bits,
            _bracket_less(lo, hi, bits, beta, log))
    return rows, sign, tail, d, log


def _random_lanes(rng: random.Random, scale: int, n: int, dim: int):
    """n points of x and y, y often a copy of x, each coordinate drawn
    from one pool of at most 256 values near the scale."""
    def value():
        r = rng.random()
        if r < 0.3:
            return rng.choice([0, 1, -1])
        if r < 0.6:
            return rng.choice([scale, -scale, scale - 1, 1 - scale])
        return rng.randint(-scale, scale)
    pool = [value() for _ in range(256)]
    points = []
    for _ in range(n):
        x = tuple(rng.choice(pool) for _ in range(dim))
        y = x if rng.random() < 0.5 else tuple(rng.choice(pool)
                                               for _ in range(dim))
        points.append({"x": x, "y": y})
    return points


@pytest.mark.parametrize("scale_name, n", [
    (name, n) for name in SCALES for n in [1, 7, 1000, 4096]
    if name != "10^4400"] + [("10^4400", n) for n in [1, 7, 60]])
def test_packed_tests_match_the_scalar_tests(scale_name, n):
    """block_holds of random specs at every field width, lane by lane
    against holds of the same spec; ``less`` runs at the same lanes, in
    the same order, and only inside the bracket."""
    scale = SCALES[scale_name]
    rng = random.Random(f"packed:{scale_name}:{n}")
    dim = 2
    points = _random_lanes(rng, scale, n, dim)
    cols = _columns(points, dim)
    called = 0
    for _ in range(40 if n < 300 else 16):
        rows, sign, tail, denom, log = _random_spec(rng, scale, dim, points)
        spec = rows, sign, tail
        want = _mask(closures.holds(spec, p, denom) for p in points)
        scalar_calls = list(log or ())
        if log:
            del log[:]
        got = closures.block_holds(spec, lanes_of(cols, n), denom)
        assert got == want, spec
        assert (log or []) == scalar_calls
        called += len(scalar_calls)
    assert called  # some lane fell inside a bracket


def _substitution_case(rng: random.Random, lc: int, n: int):
    """A witness for t over x and y, as term_rows gives one ((lc, rows):
    coordinate i is rows[i] / lc at points over d), n points of x and y
    drawn from one small pool, and a spec over x, y and t whose rows
    vanish on many lanes at t := witness, with a bracket tail around the
    tail row's value at one lane; then d and the log of the tail's less."""
    dim, d = 2, rng.choice([1, 6])
    pool = [rng.randint(-9, 9) for _ in range(12)] + [0, 1, -1]
    points = [{v: tuple(rng.choice(pool) for _ in range(dim))
               for v in ("x", "y")} for _ in range(n)]

    def witness_row(i):
        if rng.random() < 0.5:  # t_i := x_i
            return ((("x", i, lc),), 0)
        return ((("x", i, rng.choice([1, -2, 3])),
                 ("y", rng.randrange(dim), rng.choice([-1, 5]))),
                rng.choice([0, 1, -3]))
    rows = [witness_row(i) for i in range(dim)]
    coeffs = [1, -1, 2, -3]

    def row():
        i = rng.randrange(dim)
        c = rng.choice(coeffs)
        r = rng.random()
        if r < 0.4:  # zero where t_i is x_i
            return ((("t", i, c), ("x", i, -c)), 0)
        if r < 0.6:
            return ((("t", i, c), ("y", i, rng.choice(coeffs))),
                    rng.choice([0, 1]))
        if r < 0.8:
            return ((("x", i, c), ("y", rng.randrange(dim), -c)), 0)
        return ((("t", i, c),), rng.choice([0, -1]))
    lead = [row() for _ in range(rng.randint(0, 3))]
    sign = rng.choice([operator.lt, operator.le, operator.eq, operator.ne])
    if rng.random() < 0.3:
        return rows, points, (lead, sign, rng.random() < 0.5), d, None
    (terms, const), k = row(), rng.choice([1, 3])
    bits = rng.choice([0, 4, 16])
    x = row_value((terms, const), _substituted(rng.choice(points), lc, rows,
                                               d), lc * d)
    lo = (x << bits) // (k * lc * d) - rng.choice([0, 1, 3])
    hi = lo + rng.choice([1, 2, 5, 40 << bits])
    beta = Fraction(lo, 2 ** bits) + Fraction(hi - lo, 2 ** bits) * \
        Fraction(rng.randint(1, 99), 100)
    log = []
    tail = ((terms, const), k, lo, hi, bits,
            _bracket_less(lo, hi, bits, beta, log))
    return rows, points, (lead, sign, tail), d, log


def _substituted(p: dict, lc: int, rows: list, d: int) -> dict:
    """The point p over d as a point over lc * d, with t := the witness."""
    q = {v: tuple(c * lc for c in p[v]) for v in ("x", "y")}
    q["t"] = tuple(row_value(r, p, d) for r in rows)
    return q


@pytest.mark.parametrize("lc", [1, 2, 6, 5 ** 40])
@pytest.mark.parametrize("n", [1, 7, 300])
def test_substitution_keeps_every_sign(lc, n):
    """block_holds of a spec with the witness put in for t, at points over
    d, is holds of the spec itself at the points over lc * d with t the
    witness, lane by lane; less runs at the same lanes with the same
    arguments."""
    rng = random.Random(f"substitute:{lc}:{n}")
    called = 0
    for _ in range(60):
        rows, points, spec, d, log = _substitution_case(rng, lc, n)
        want = _mask(closures.holds(spec, _substituted(p, lc, rows, d),
                                    lc * d) for p in points)
        scalar_calls = list(log or ())
        if log:
            del log[:]
        ev = closures.Evaluator((), [], (spec,)).substitute("t", lc, rows)
        (put,) = ev.specs
        assert all(v != "t" for r in put[0] for v, _, _ in r[0])
        lanes = lanes_of(_columns(points, 2), n)
        assert closures.block_holds(put, lanes, d) == want, spec
        assert (log or []) == scalar_calls
        called += len(scalar_calls)
    assert called  # some lane fell inside a bracket


def _threshold_lanes(k: int, d: int, lo: int, hi: int, bits: int):
    """Values of the tail's row at both thresholds, one off either side
    of each, and far beyond both."""
    den = k * d
    t_lo = lo * den >> bits  # x << bits <= lo * den from here down
    t_hi = -(-hi * den >> bits) - 1  # x << bits < hi * den from here down
    return t_lo, t_hi, [t_lo - 5, t_lo - 1, t_lo, t_lo + 1, t_hi - 1, t_hi,
                        t_hi + 1, t_hi + 5, -10 ** 30, 10 ** 30]


@pytest.mark.parametrize("k, d, lo, hi, bits", [
    (1, 1, 5, 9, 2), (3, 6, 5, 9, 4), (1, 16, 5, 6, 4), (1, 16, 5, 7, 4),
    (1, 1, -9, -5, 2), (3, 6, -9, -5, 4), (2, 5, -3, 2, 3),
    (1, 2 ** 40, -7, -6, 20)])
@pytest.mark.parametrize("near", ["lo", "hi"])
def test_bracket_tail_at_its_thresholds(k, d, lo, hi, bits, near):
    """Lanes exactly at both thresholds, and one off: the bracket decides
    the lanes at and below the lower one and above the upper one, and
    less decides the rest, called there alone; thresholds may be
    negative.  beta sits near either end, so that a lane inside the
    bracket reads true next to the upper threshold and false next to the
    lower one."""
    eps = Fraction(1, 2 ** (bits + 80))
    beta = (Fraction(lo, 2 ** bits) + eps if near == "lo"
            else Fraction(hi, 2 ** bits) - eps)
    log = []
    tail = (((("x", 0, 1),), 0), k, lo, hi, bits,
            _bracket_less(lo, hi, bits, beta, log))
    t_lo, t_hi, xs = _threshold_lanes(k, d, lo, hi, bits)
    # a lead row that is zero on the first lanes and negative after them
    lead = [((("y", 0, 1),), 0)]
    ys = [0] * len(xs) + [-1] * len(xs)
    spec = (lead, operator.lt, tail)
    want = [closures.holds(spec, {"x": (x,), "y": (y,)}, d)
            for x, y in zip(xs + xs, ys)]
    scalar_calls = log[:]
    del log[:]
    got = closures.block_holds(
        spec, lanes_of({"x": (xs + xs,), "y": (ys,)}, len(ys)), d)
    assert got == _mask(want)
    assert log == scalar_calls
    assert [x for x, _ in log] == [x for x in xs if t_lo < x <= t_hi]
    assert want == [x <= t_lo or x <= t_hi and Fraction(x, k * d) < beta
                    for x in xs] + [True] * len(xs)
    if t_lo < t_hi:
        assert want[xs.index(t_hi)] == (near == "hi")
        assert want[xs.index(t_lo + 1)] == (near == "hi")


@pytest.mark.parametrize("n", [1, 7, 1000])
@pytest.mark.parametrize("name", ELIMINABLE_NAMES)
def test_blocks_without_variables(name, n):
    """A closed formula's block has no columns: both sides answer alike
    at every lane."""
    m = get_model(name)
    st = build_structure(m)
    for text in ("e_in < e_out", "U(e_in) | ~I(e_out - 2 * e_in)",
                 "E x. x < e_in & U(x)", "A x. U(x) | ~U(x + e_out)"):
        f = parse_formula(text)
        for ev in (compile_formula(m, qe_star(f, st)),
                   oracle_compile(m, f)):
            truth = ev.run({}, [SAMPLE_DENOM, *ev.blank])
            assert ev.block(Lanes({}, (), n), SAMPLE_DENOM) == _mask(
                [truth] * n), text
    spec = ([((), 3), ((), 0)], operator.lt, False)
    assert closures.block_holds(spec, Lanes({}, (), n), 2) == 0
    spec = ([((), 0)], operator.le, (((), -1), 1, -1, 1, 0, None))
    assert closures.block_holds(spec, Lanes({}, (), n), 2) == _mask([True] * n)


@pytest.mark.parametrize("name", ELIMINABLE_NAMES)
def test_both_sides_share_each_row(name, monkeypatch):
    """One Lanes passed to an IntCompiledFormula and an IntOracleEval
    computes each distinct (terms, const, denom) row's sign masks once,
    gives the masks of a fresh Lanes per side, and computes fewer rows
    than those two."""
    computed = []
    width = closures._width  # called once per row computed
    at_most = Lanes.at_most  # computes its row on every call
    tails = []

    def counted(bound):
        computed.append(bound)
        return width(bound)

    def counted_tail(self, *args):
        tails.append(args)
        return at_most(self, *args)
    monkeypatch.setattr(closures, "_width", counted)
    monkeypatch.setattr(Lanes, "at_most", counted_tail)
    m = get_model(name)
    st = build_structure(m)
    rng = random.Random(f"share:{name}")
    shared = alone = checked = 0
    while checked < 12:
        f = gen_formula(rng, list(NAMES), 3, 2)
        try:
            comp = IntCompiledFormula(m, qe_star(f, st), SAMPLE_DENOM)
            orc = oracle.IntOracleEval(oracle_compile(m, f), SAMPLE_DENOM)
        except ConvexQEError:
            continue
        checked += 1
        n = 300
        fv = tuple(sorted(free_vars(f)))
        pool = int_sample_pool(m)
        indices = index_drawer(random.Random(checked), len(pool))
        lanes, _ = fuzz.drawn_block(indices(n * len(fv) * m.dim), pool, n,
                                    fv, m.dim)
        del computed[:], tails[:]
        masks = comp.block(lanes), orc.block(lanes)
        assert len(computed) == len(lanes._signs) + len(tails)
        shared += len(computed)
        del computed[:]
        assert masks == (comp.block(Lanes(lanes, pool, n)),
                         orc.block(Lanes(lanes, pool, n)))
        alone += len(computed)
    assert shared < alone


# ---------------------------------------------------------------------------
# run_fuzz's first mismatch, block by block


def _scalar_first_mismatch(rng, pool, names, dim, count, got, expected):
    draw = pool_drawer(rng, pool)
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
        pool = int_sample_pool(m)
        results = []
        for side in ("block", "eval"):
            r = random.Random(seed)
            args = (pool, names, m.dim, count,
                    *(getattr(s, side) for s in sides))
            done, ints = (fuzz._first_mismatch(r, index_drawer(r, len(pool)),
                                               *args)
                          if side == "block"
                          else _scalar_first_mismatch(r, *args))
            results.append((done, ints, r.getstate()))
        assert results[0] == results[1], (f, g, count)
        found += results[0][1] is not None and results[0][0] > 1
    assert found > 5
