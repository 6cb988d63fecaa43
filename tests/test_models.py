import collections
import functools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import convexqe.models
from convexqe.cutqe import build_structure, qe_star, skolemize
from convexqe.errors import (ConvexQEError, MalformedModelError,
                             PrecisionBudgetError,
                             SkolemShapeUnsupportedError)
from convexqe.models import (DownwardCut, IntCompiledFormula, ModelDescriptor, PLUS_INF,
                             PiOracle, Point, SqrtOracle, SubgroupLevel,
                             compile_formula,
                             eval_formula, json_rational, model_from_json,
                             model_to_json,
                             term_rows, term_value, u_member)
from convexqe.oracle import _Decomposer, oracle_compile, oracle_truth
from convexqe.parser import parse_formula
from convexqe.syntax import (And, Exists, FalseF, Or, Term, TrueF, atoms_of,
                             free_vars)
from convexqe.fuzz import (SAMPLE_DENOM, VALUE_POOL, gen_formula, gen_point,
                           gen_term, int_sample_pool, model_sample_pool,
                           pool_drawer)

from conftest import (VALUATIONAL_NAMES, get_model, lanes_of,
                      past_default_precision, random_cut_model, row_value)


class TestOracles:
    def test_pi_interval_narrow_and_nested(self):
        o = PiOracle()
        lo1, hi1 = o.refine(16)
        lo2, hi2 = o.refine(64)
        assert lo1 <= lo2 < hi2 <= hi1
        assert hi2 - lo2 <= Fraction(1, 2 ** 64)
        below = Fraction(3141592653589793238462, 10 ** 21)  # truncation < pi
        above = Fraction(3141592653589793238463, 10 ** 21)  # > pi
        assert lo2 < above and below < hi2

    def test_arctan_partial_sums(self):
        # the integer Horner sums are the Fraction partial sums exactly
        def reference(x, terms):
            s = prev = Fraction(0)
            for k in range(terms):
                prev, s = s, s + Fraction((-1) ** k,
                                          (2 * k + 1) * x ** (2 * k + 1))
            return (s, prev) if s < prev else (prev, s)
        for x in (5, 239):
            for terms in (1, 4, 5, 8, 36, 260):
                assert PiOracle._arctan_inv(x, terms) == reference(x, terms)

    def test_sqrt_interval(self):
        o = SqrtOracle(Fraction(2))
        lo, hi = o.refine(40)
        assert lo * lo < 2 < hi * hi
        assert hi - lo <= Fraction(1, 2 ** 40)

    def test_square_rejected(self):
        with pytest.raises(MalformedModelError):
            SqrtOracle(Fraction(9, 4))

    def test_comparison_terminates(self):
        o = PiOracle()
        assert o.compare(Fraction(3)) < 0
        assert o.compare(Fraction(22, 7)) > 0
        assert o.compare(Fraction(355, 113)) > 0  # famously close to pi

    def test_exhausted_budget_describes_a_long_rational(self):
        # q has more digits than str() converts, so the error gives its size
        q = PiOracle().refine(8192)[0]
        with pytest.raises(PrecisionBudgetError,
                           match=r"\(\d+-bit numerator, \d+-bit denominator\)"):
            PiOracle().compare(q)


class TestCompare:
    def test_pi_dim1(self, m_pi):
        assert u_member(m_pi, Point.of(3))

    def test_refined_above(self, m_11pi):
        assert not u_member(m_11pi, Point.of(1, 1, 4))
        # the irrational entry decides whatever the drift
        assert not u_member(m_11pi, Point.of(1, 1, 4),
                            drift=Point.of(0, 0, -1))

    def test_plus_inf_absorbs(self, m_1inf):
        assert u_member(m_1inf, Point.of(1, 10 ** 6))

    def test_equal_only_rational(self, m_rat):
        # at the threshold itself the strictness decides (lex2_rat_11 is
        # strict), and a drift decides by its first nonzero coordinate
        at = Point.of(1, 1)
        assert not u_member(m_rat, at)
        assert not u_member(m_rat, at, drift=Point.zero(2))
        assert u_member(m_rat, at, drift=Point.of(0, -1))
        assert not u_member(m_rat, at, drift=Point.of(0, 1))
        assert u_member(m_rat, at + Point.of(0, 1), drift=Point.of(-1, 5))


class TestEval:
    def test_pi_membership(self, m_pi):
        assert eval_formula(m_pi, parse_formula("U(x)"), {"x": Point.of(3)})

    def test_group_identity(self, models):
        f = parse_formula("x + -1 * x = 0")
        for m in models.values():
            assert eval_formula(m, f, {"x": m.e_out})

    def test_subgroup_membership(self, m_sub2):
        f = parse_formula("U(x) & ~U(y)")
        asgn = {"x": Point.of(0, 5), "y": Point.of(1, 0)}
        assert eval_formula(m_sub2, f, asgn)

    def test_strictness_flag(self):
        strict = ModelDescriptor(1, DownwardCut((Fraction(1),), True),
                                 Point.of(Fraction(1, 2)), Point.of(2))
        loose = ModelDescriptor(1, DownwardCut((Fraction(1),), False),
                                Point.of(Fraction(1, 2)), Point.of(2))
        assert not u_member(strict, Point.of(1))
        assert u_member(loose, Point.of(1))

    def test_quantifier_rejected(self, m_sub2):
        with pytest.raises(ValueError):
            eval_formula(m_sub2, parse_formula("E y. x < y"), {"x": Point.of(0, 0)})

    @pytest.mark.parametrize("text", [
        "E y. x < y", "x < 0 & A y. x < y", "~(x = 0 & ~E y. x < y)",
        "(E y. x < y) -> x < 0", "x < 0 -> ~(x = 1 | A y. y < x)"])
    def test_compile_rejects_a_quantifier_at_any_depth(self, m_sub2, text):
        with pytest.raises(ValueError, match="quantifier-free"):
            compile_formula(m_sub2, parse_formula(text))


class TestOrderAxioms:
    def test_sampled(self, models):
        rng = random.Random(4)
        for m in models.values():
            pts = [gen_point(rng, m) for _ in range(12)]
            for a in pts:
                for b in pts:
                    lt = a.lex_lt(b)
                    gt = b.lex_lt(a)
                    assert lt + gt + (a == b) == 1  # totality
                    for c in pts[:4]:
                        assert lt == (a + c).lex_lt(b + c)  # translation
            for a in pts:  # divisibility: the halving point works
                h = a.scale(Fraction(1, 2))
                assert h + h == a

    def test_downward_closed_sampled(self, models):
        rng = random.Random(5)
        for m in models.values():
            if not isinstance(m.u_interp, DownwardCut):
                continue
            for _ in range(60):
                p = gen_point(rng, m)
                q = gen_point(rng, m)
                if u_member(m, p) and q.lex_lt(p):
                    assert u_member(m, q)


class TestValidation:
    def test_subgroup_level_bounds(self):
        with pytest.raises(MalformedModelError):
            ModelDescriptor(2, SubgroupLevel(2), Point.of(0, 1), Point.of(1, 0))

    def test_leading_plus_inf_rejected(self):
        with pytest.raises(MalformedModelError):
            ModelDescriptor(2, DownwardCut((PLUS_INF, Fraction(0))),
                            Point.of(0, 1), Point.of(1, 0))

    def test_gap_in_inf_block_rejected(self):
        with pytest.raises(MalformedModelError):
            ModelDescriptor(3, DownwardCut((Fraction(1), PLUS_INF, Fraction(0))),
                            Point.of(0, 1, 0), Point.of(2, 0, 0))

    def test_second_oracle_rejected(self):
        with pytest.raises(MalformedModelError):
            ModelDescriptor(2, DownwardCut((PiOracle(), PiOracle())),
                            Point.of(1, 0), Point.of(4, 0))

    def test_e_out_must_dominate(self):
        with pytest.raises(MalformedModelError):
            ModelDescriptor(2, DownwardCut((Fraction(1), PLUS_INF)),
                            Point.of(0, 1), Point.of(1, -3))

    def test_e_in_in_stabilizer(self):
        with pytest.raises(MalformedModelError):
            ModelDescriptor(2, DownwardCut((Fraction(1), PLUS_INF)),
                            Point.of(Fraction(1, 2), 0), Point.of(2, 0))


class TestJson:
    def test_round_trip(self, models):
        for m in models.values():
            again = model_from_json(json.loads(json.dumps(model_to_json(m))))
            assert again == m

    @pytest.mark.parametrize("text, want", [
        ("3/2", Fraction(3, 2)), (" -0.1 ", Fraction(-1, 10)), ("1.", 1),
        (".5", Fraction(1, 2)), ("-.5e-2", Fraction(-1, 200)), ("7E+3", 7000),
        ("٣/٤", Fraction(3, 4)), ("", ValueError), (".", ValueError),
        ("1e", ValueError), ("1/2e3", ValueError), ("0x1", ValueError),
        ("inf", ValueError), ("1/-2", ValueError), ("1/0", ZeroDivisionError)])
    def test_rationals_are_read_on_every_version(self, text, want):
        if isinstance(want, type):
            with pytest.raises(want):
                json_rational(text)
        else:
            assert json_rational(text) == want

    def test_rationals_read_as_fraction_reads_them(self):
        # json_rational matches with Fraction's own pattern, so it agrees
        # with Fraction on every version: underscores from 3.11 on, spaces
        # around "/" from 3.12 on
        rng = random.Random(5)
        texts = ["+1_000/3", "1_", "_1", "1__0", "1 / 2", "1/ 2", "1.d"]
        texts += ["".join(rng.choice("01_./e+- ") for _ in range(6))
                  for _ in range(3000)]
        for text in texts:
            try:
                want = Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                with pytest.raises(type(exc)):
                    json_rational(text)
            else:
                assert json_rational(text) == want, text

    @pytest.mark.digit_limit
    def test_long_threshold_is_read_at_any_digit_limit(self):
        big = "9" * 5000
        m = model_from_json({"dim": 2, "U": {
            "kind": "downward-cut", "threshold": [big + "/7", "+inf"]},
            "e_in": ["0", "1"], "e_out": ["1" + "0" * 5000, "0"]})
        assert m.u_interp.threshold[0] == Fraction(10 ** 5000 - 1, 7)
        assert m.e_out.coords[0] == 10 ** 5000


class TestIntFastPath:
    def test_sample_pool_is_exact(self, models):
        for m in models.values():
            for values in (VALUE_POOL, [Fraction(-7, 3), Fraction(5, 6)]):
                want = [v * SAMPLE_DENOM for v in values] + [
                    e * SAMPLE_DENOM for e in model_sample_pool(m)
                    if (e * SAMPLE_DENOM).denominator == 1]
                assert int_sample_pool(m, values) == tuple(want)
        with pytest.raises(ValueError):  # 1/4 is no multiple of 1/6
            int_sample_pool(models["lex2_sub1"], [Fraction(1, 4)])

    def test_agrees_with_exact_eval(self, models):
        rng = random.Random(17)
        for m in models.values():
            pool = int_sample_pool(m)
            for _ in range(20):
                f = gen_formula(rng, ["x", "y"], 3, 0)
                from convexqe.normalform import normalize_atoms
                from convexqe.syntax import free_vars, is_quantifier_free
                if not is_quantifier_free(normalize_atoms(f)):
                    continue
                comp = IntCompiledFormula(m, f, SAMPLE_DENOM)
                for _ in range(10):
                    ints = {v: tuple(rng.choice(pool) for _ in range(m.dim))
                            for v in free_vars(f)}
                    pts = {v: Point(tuple(Fraction(c, SAMPLE_DENOM) for c in p))
                           for v, p in ints.items()}
                    assert comp.eval(ints) == eval_formula(m, f, pts)


# denominators other than the sample denominator 6, and rationals on both
# sides of pi (311/99 < pi < 355/113 < 22/7) for the irrational cuts
RATIONAL_VALUES = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3),
                   Fraction(5, 12), Fraction(-5, 12), Fraction(-3, 7),
                   Fraction(22, 7), Fraction(355, 113), Fraction(311, 99)]
CUT_PROBES = ["U(x)", "~U(x - e_in)", "U(2 * x + y) | I(x - y)",
              "U(1/3 * x + e_in) & x <= y", "U(x + 1/5 * y - 1)"]


class TestClosureEvaluator:
    def test_agrees_with_eval_formula_on_rational_points(self, models):
        rng = random.Random(41)
        for name, m in models.items():
            fs = [parse_formula(t) for t in CUT_PROBES]
            fs += [gen_formula(rng, ["x", "y"], 3, 0) for _ in range(25)]
            for f in fs:
                ev = compile_formula(m, f)
                decision = oracle_compile(m, f)
                for _ in range(12):
                    asgn = {v: gen_point(rng, m, values=RATIONAL_VALUES)
                            for v in ("x", "y")}
                    want = eval_formula(m, f, asgn)
                    assert ev.eval_points(asgn) == want, (name, str(f), asgn)
                    assert decision.eval_points(asgn) == want, (name, str(f))

    def test_irrational_cut_sides(self, models):
        f = parse_formula("U(x - 1/3 * y)")
        for name, lead in (("q1_pi", ()), ("q3_11pi", (1, 1)),
                           ("lex3_val_1pi0", (1,))):
            m = models[name]
            pad = (0,) * (m.dim - len(lead) - 1)
            ev = compile_formula(m, f)
            for v, inside in ((Fraction(311, 99), True),
                              (Fraction(355, 113), False)):
                # x - y/3 puts v at the deciding coordinate
                asgn = {"x": Point.of(*lead, v + Fraction(1, 3), *pad),
                        "y": Point.of(*(0 for _ in lead), 1, *pad)}
                assert eval_formula(m, f, asgn) is inside, name
                assert ev.eval_points(asgn) is inside
                assert oracle_truth(m, f, asgn) is inside, name

    def test_rational_cut_edges(self, models):
        f = parse_formula("U(x - 1/3 * y)")
        strict = models["lex2_rat_11"]
        loose = ModelDescriptor(2, DownwardCut((Fraction(1), Fraction(1)),
                                               False), strict.e_in,
                                strict.e_out)
        at = {"x": Point.of(Fraction(4, 3), Fraction(4, 3)),
              "y": Point.of(1, 1)}  # the term is the threshold (1, 1)
        for m, inside in ((strict, False), (loose, True),
                          (models["lex2_val_1inf"], True)):
            assert eval_formula(m, f, at) is inside
            assert compile_formula(m, f).eval_points(at) is inside
            assert oracle_truth(m, f, at) is inside

    def test_skolem_witness_points(self, models):
        rng = random.Random(8)
        texts = ["x < y & U(y)", "U(y - x) & ~I(y)",
                 "x < y & y < x + e_in | U(2 * x + y)", "I(y - x) & U(y)"]
        for name in VALUATIONAL_NAMES:
            m = models[name]
            st = build_structure(m)
            for text in texts:
                phi = parse_formula(text)
                try:
                    sk = skolemize(phi, "y", st)
                except SkolemShapeUnsupportedError:
                    continue
                ev = compile_formula(m, phi)
                choose = sk.chooser(m)
                for _ in range(25):
                    x = gen_point(rng, m, values=RATIONAL_VALUES)
                    w = choose({"x": x})
                    if w is None:
                        continue
                    asgn = {"x": x, "y": w}
                    assert (ev.eval_points(asgn)
                            == eval_formula(m, phi, asgn)), (name, text)

    def test_long_chains_lower_to_one_node(self, m_sub2):
        # left-deep chains far past the recursion limit
        atoms = [parse_formula(f"x < {k}") for k in range(1, 3001)]
        for cls in (And, Or):
            f = functools.reduce(cls, atoms)
            comp = IntCompiledFormula(m_sub2, f, SAMPLE_DENOM)
            assert comp.eval({"x": (0, 0)})
            assert comp.eval({"x": (6 * 2, 0)}) is (cls is Or)

    def test_precision_budget_reaches_cut_comparisons(self):
        # a fresh model: refined intervals are memoized per oracle object
        m = get_model("q1_pi")
        f = parse_formula("U(x)")
        # the reference path takes a budget
        below_pi = {"x": Point.of(Fraction(3141592653589793238462643383279,
                                           10 ** 30))}
        with pytest.raises(PrecisionBudgetError, match="within 32 bits"):
            eval_formula(m, f, below_pi, 32)
        assert eval_formula(m, f, below_pi, 256)
        assert oracle_truth(m, f, below_pi)
        assert compile_formula(m, f).eval_points(below_pi)
        # the compiled and oracle paths stop at the default
        q = past_default_precision()
        asgn = {"x": Point.of(q)}
        for evaluate in (lambda: compile_formula(m, f).eval_points(asgn),
                         lambda: IntCompiledFormula(m, f, q.denominator).eval(
                             {"x": (q.numerator,)}),
                         lambda: oracle_truth(m, f, asgn)):
            with pytest.raises(PrecisionBudgetError, match="within 4096 bits"):
                evaluate()

    def test_constants_decide_without_testing_atoms(self):
        # no precision places x against pi, so a test of U(x) would raise
        m = get_model("q1_pi")
        asgn = {"x": Point.of(past_default_precision())}
        cases = [(And(), True), (Or(), False)] + [
            (parse_formula(text), want) for text, want in (
                ("U(x) & false", False), ("true | U(x)", True),
                ("~(U(x) | true) | false", False), ("false -> U(x)", True))]
        for f, want in cases:
            assert compile_formula(m, f).eval_points(asgn) is want, f


ELIMINABLE_NAMES = VALUATIONAL_NAMES + ["lex2_rat_11"]


@functools.lru_cache(maxsize=None)
def _definitions(name: str):
    """Seeded (existential, guards) pairs of Skolem definitions for y."""
    m = get_model(name)
    st = build_structure(m)
    rng = random.Random(f"shared-lowering:{name}")
    out = []
    while len(out) < 10:
        phi = gen_formula(rng, ["x", "y"], 3, 0)
        if "y" not in free_vars(phi):
            continue
        try:
            sk = skolemize(phi, "y", st)
        except ConvexQEError:
            continue
        out.append((qe_star(Exists("y", phi), st),
                    tuple(g for g, _ in sk.cases)))
    return m, out


class TestSharedLowering:
    @pytest.mark.parametrize("name", ELIMINABLE_NAMES)
    def test_each_distinct_atom_lowers_once(self, name, monkeypatch):
        m, defs = _definitions(name)
        calls = collections.Counter()
        lower = convexqe.models._lower_atom

        def counted(m, a):
            calls[a] += 1
            return lower(m, a)
        monkeypatch.setattr(convexqe.models, "_lower_atom", counted)
        shared = 0
        for ex, guards in defs:
            calls.clear()
            fs = (ex, *guards)
            compile_formula(m, *fs)
            assert set(calls) == {a for f in fs for a in atoms_of(f)}
            assert set(calls.values()) <= {1}
            shared += sum(len(set(atoms_of(f))) for f in fs) - len(calls)
        assert shared > 0  # some atom is read by more than one root

    @pytest.mark.parametrize("name", ELIMINABLE_NAMES)
    def test_each_distinct_atom_takes_its_rows_once(self, name,
                                                    monkeypatch):
        """compile_formula, a block over every root and a scalar call take
        the term rows of each distinct atom once in all."""
        m, defs = _definitions(name)
        rows = []
        term_rows_of = convexqe.models.term_rows

        def counted_rows(*args):
            rows.append(args)
            return term_rows_of(*args)
        monkeypatch.setattr(convexqe.models, "term_rows", counted_rows)
        draw = pool_drawer(random.Random(f"rows:{name}"), int_sample_pool(m))
        for ex, guards in defs:
            del rows[:]
            fs = (ex, *guards)
            atoms = {a for f in fs for a in atoms_of(f)}
            ev = compile_formula(m, *fs)
            points = [{"x": draw(m.dim), "y": draw(m.dim)} for _ in range(20)]
            lanes = lanes_of({v: tuple(tuple(p[v][i] for p in points)
                                       for i in range(m.dim))
                              for v in ("x", "y")}, len(points))
            for root in range(len(fs)):
                ev.block(lanes, SAMPLE_DENOM, root)
            assert len(rows) == len(atoms)
            for ints in points:
                ev.run(ints, [SAMPLE_DENOM, *ev.blank])
            assert len(rows) == len(atoms)

    @staticmethod
    def _roots_and_points(name):
        """Per definition: the formulas (True, existential, guards, False),
        their shared evaluator and 20 seeded integer points, 200 in all."""
        m, defs = _definitions(name)
        draw = pool_drawer(random.Random(f"roots:{name}"), int_sample_pool(m))
        for ex, guards in defs:
            fs = (TrueF(), ex, *guards, FalseF())
            points = [{"x": draw(m.dim), "y": draw(m.dim)} for _ in range(20)]
            yield m, fs, compile_formula(m, *fs), points

    @pytest.mark.parametrize("name", ELIMINABLE_NAMES)
    def test_roots_agree_with_compile_formula(self, name):
        for m, fs, ev, points in self._roots_and_points(name):
            alone = [compile_formula(m, f) for f in fs]
            for ints in points:
                frame = [SAMPLE_DENOM, *ev.blank]
                got = [ev.run(ints, frame, r) for r in range(len(fs))]
                assert got == [a.run(ints, [SAMPLE_DENOM, *a.blank])
                               for a in alone], (name, ints)
                assert got[0] is True and got[-1] is False

    @pytest.mark.parametrize("name", ELIMINABLE_NAMES)
    def test_one_frame_serves_every_root(self, name):
        for m, fs, ev, points in self._roots_and_points(name):
            for ints in points:
                roots = range(len(fs))
                fresh = [ev.run(ints, [SAMPLE_DENOM, *ev.blank], r)
                         for r in roots]
                # backwards, so the guards fill the cache the existential reads
                frame = [SAMPLE_DENOM, *ev.blank]
                shared = [ev.run(ints, frame, r) for r in reversed(roots)]
                assert shared[::-1] == fresh, (name, ints)


def _fraction_rows(m, t: Term, shift):
    """term_rows over Fractions: (lc, row closures (points, d))."""
    const = [t.offset * u + t.e_in * a + t.e_out * b for u, a, b in
             zip(Point.unit(m.dim).coords, m.e_in.coords, m.e_out.coords)]
    for i, s in enumerate(shift):
        const[i] -= s
    lc = math.lcm(*(k.denominator for k in const),
                  *(q.denominator for _, q in t.coeffs))

    def row(i):
        def value(p, d):
            v = (const[i] * d + sum(q * p[x][i] for x, q in t.coeffs)) * lc
            assert v.denominator == 1
            return int(v)
        return value
    return lc, [row(i) for i in range(m.dim)]


class TestTermRows:
    def test_integer_rows_match_fraction_reference(self, models):
        rng = random.Random(23)

        def q():
            return Fraction(rng.randint(-9, 9),
                            rng.choice((1, 2, 3, 5, 7, 12, 35)))
        for name, m in models.items():
            shifts = [()]
            if isinstance(m.u_interp, DownwardCut):
                thr = m.u_interp.threshold
                j = next((i for i, e in enumerate(thr)
                          if not isinstance(e, Fraction)), m.dim)
                shifts.append(thr[:j])
            terms = [gen_term(rng, ["x", "y"]) for _ in range(40)]
            terms += [Term({"x": q(), "y": q()}, q(), q(), q())
                      for _ in range(40)]
            for t in terms:
                for shift in shifts:
                    want_lc, want = _fraction_rows(m, t, shift)
                    lc, rows = term_rows(m, t, shifted=bool(shift))
                    assert lc == want_lc, (name, t, shift)
                    for d in (1, SAMPLE_DENOM, 35):
                        p = {v: tuple(rng.randint(-50, 50)
                                      for _ in range(m.dim))
                             for v in ("x", "y")}
                        assert ([row_value(r, p, d) for r in rows]
                                == [w(p, d) for w in want]), (name, t, shift)


def _prefix(m) -> list:
    """The cut's rational prefix, padded with zeros to the dimension."""
    p = list(m.cut.prefix)
    return p + [Fraction(0)] * (m.dim - len(p))


class TestConstantTable:
    """``ModelDescriptor.constants`` is what term_rows and the oracle's
    coordinate forms read the model's constants from."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_rows_and_forms_reproduce_term_values(self, seed):
        rng = random.Random(seed)
        m = random_cut_model(rng)
        assume(m is not None)

        def q():
            return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 12)))
        t = Term({"x": q(), "y": q()}, q(), q(), q())
        d = rng.choice((1, 7, SAMPLE_DENOM))
        ints = {v: tuple(rng.randint(-60, 60) for _ in range(m.dim))
                for v in ("x", "y")}
        point = {v: Point(tuple(Fraction(n, d) for n in ns))
                 for v, ns in ints.items()}
        value = term_value(m, t, point).coords
        const = term_value(m, t, {"x": Point.zero(m.dim),
                                  "y": Point.zero(m.dim)}).coords
        dec = _Decomposer(m, 1000)
        for shifted in (False, True):
            shift = _prefix(m) if shifted else [Fraction(0)] * m.dim
            lc, rows = term_rows(m, t, shifted)
            assert lc == math.lcm(*((k - s).denominator
                                    for k, s in zip(const, shift)),
                                  *(c.denominator for _, c in t.coeffs))
            for i in range(m.dim):
                want = value[i] - shift[i]
                assert row_value(rows[i], ints, d) == want * lc * d
                # the oracle's form is a positive multiple of coordinate i
                # (its vector: the variables' coefficients, the constant,
                # then alpha's coefficient), primitive, and gives want at
                # the point
                for alpha in ((0, -1) if not shifted else (0,)):
                    form = dec.term_coord(t, i, shifted, alpha)
                    got = [form.coeff(f"{v}#{i}") for v in ("x", "y")]
                    got += [form.const, form.alpha]
                    ref = [t.coeff("x"), t.coeff("y"), const[i] - shift[i],
                           Fraction(alpha)]
                    lead = next((j for j, r in enumerate(ref) if r), None)
                    scale = Fraction(1) if lead is None \
                        else got[lead] / ref[lead]
                    assert scale > 0 and got == [scale * r for r in ref]
                    assert math.gcd(*got) == (lead is not None)
                    if not alpha:
                        at = sum(form.coeff(f"{v}#{i}") * point[v].coords[i]
                                 for v in ("x", "y")) + form.const
                        assert at == scale * want

    def test_each_model_reads_its_own_table(self):
        # models built and dropped one after another often reuse a dead
        # model's id, so a table kept by id would hand a model another's
        # constants; these models differ in e_in, e_out and the threshold
        x = parse_formula("x = e_in & U(x - e_in) & ~U(x + e_out)")
        for k in range(300):
            top = Fraction(k, 7) + 1
            m = ModelDescriptor(2, DownwardCut((top, Fraction(1, 3))),
                                Point.of(0, Fraction(1, k + 2)),
                                Point.of(top + 1, 0))
            c = m.constants
            assert [Fraction(n, c.denom) for n in c.e_in] \
                == list(m.e_in.coords)
            assert [Fraction(n, c.denom) for n in c.e_out] \
                == list(m.e_out.coords)
            assert [Fraction(n, c.denom) for n in c.prefix] == _prefix(m)
            asgn = {"x": m.e_in}
            assert oracle_truth(m, x, asgn)
            assert compile_formula(m, x).eval_points(asgn)
            below = {"x": Point.of(top, 0)}
            assert oracle_truth(m, parse_formula("U(x)"), below)
            assert not oracle_truth(m, parse_formula("U(x + e_in)"),
                                    {"x": Point.of(top, Fraction(1, 3))})
