import gc
import itertools
import math
import random
import sys
import weakref
from fractions import Fraction

import pytest

from convexqe.cutarith import edge_member
from convexqe.cutqe import build_structure, qe_star
from convexqe.errors import BudgetExceededError, PrecisionBudgetError
from convexqe.models import PiOracle, Point, eval_formula
from convexqe import oracle
from convexqe.oracle import (DEFAULT_ORACLE_BUDGET, IntOracleEval,
                             _Decomposer, oracle_compile, oracle_truth)
from convexqe.parser import parse_formula
from convexqe.fuzz import (SAMPLE_DENOM, gen_formula, gen_point,
                           int_sample_pool, pool_drawer)
from convexqe.syntax import (And, Exists, Forall, Implies, free_vars,
                             is_quantifier_free, rename_bound)
from conftest import FIXTURE_NAMES, get_model, past_default_precision


class TestOracleExamples:
    def test_divisibility(self, models):
        f = parse_formula("E y. y + y = x")
        for m in models.values():
            assert oracle_truth(m, f, {"x": m.e_out})

    def test_subgroup_bounded_above(self, m_sub2):
        f = parse_formula("E y. (x < y & U(y))")
        assert not oracle_truth(m_sub2, f, {"x": Point.of(1, 0)})
        assert oracle_truth(m_sub2, f, {"x": Point.of(0, 7)})

    def test_no_upper_endpoint(self, models):
        f = parse_formula("A x. E y. x < y")
        for m in models.values():
            assert oracle_truth(m, f, {})

    def test_nested_quantifiers(self, m_1inf):
        f = parse_formula("A x. (U(x) -> E y. (U(y) & x < y))")
        assert oracle_truth(m_1inf, f, {})

    def test_nonvaluational_gap(self, m_pi):
        # some element of U has nothing of U strictly above it within 1/10?
        # no: density inside the cut
        f = parse_formula("A x. (U(x) -> E y. (U(y) & x < y))")
        assert oracle_truth(m_pi, f, {})
        # but translation by a fixed eps escapes: the cut is not stabilized
        g = parse_formula("E x. (U(x) & ~U(x + 1/10))")
        assert oracle_truth(m_pi, g, {})

    def test_stabilizer_invariance(self, m_1inf):
        g = parse_formula("E x. (U(x) & ~U(x + e_in))")
        assert not oracle_truth(m_1inf, g, {})


class TestOracleAgreesWithEval:
    def test_quantifier_free_agreement(self, models):
        rng = random.Random(23)
        for m in models.values():
            for _ in range(30):
                f = gen_formula(rng, ["x", "y"], 3, 0)
                if not is_quantifier_free(f):
                    continue
                decision = oracle_compile(m, f)
                for _ in range(15):
                    asgn = {v: gen_point(rng, m) for v in free_vars(f)}
                    assert (decision.eval_points(asgn)
                            == eval_formula(m, f, asgn)), (m.describe(), str(f))


def _literals(tree):
    """The literals of a decision tree, one per occurrence."""
    stack, out = [tree], []
    while stack:
        n = stack.pop()
        if type(n) is tuple:
            stack.extend(n[1:])
        elif type(n) is int:
            out.append(n)
    return out


def _decomposed(m, f):
    """f's decision tree over m, and the table of atoms its literals
    number."""
    d = _Decomposer(m, DEFAULT_ORACLE_BUDGET)
    return d.decompose(f), d.atoms


def _atoms(tree, atoms):
    """The atom record behind each literal of tree."""
    return [atoms[n if n >= 0 else ~n] for n in _literals(tree)]


def _assert_primitive(tree, atoms):
    for atom in _atoms(tree, atoms):
        form = atom.form
        entries = [q for _, q in form.coeffs] + [form.alpha, form.const]
        assert all(type(q) is int for q in entries), form
        assert math.gcd(*entries) == 1, form
        if atom.kind == "eq":
            assert form.coeffs[0][1] > 0, form


class TestCompileCache:
    def test_equal_models_keep_their_own_refinements(self):
        # two loads of q1_pi compare equal; the first one's pi oracle is
        # refined far past the default precision, and the second must not
        # inherit that
        f = parse_formula("U(x)")
        asgn = {"x": Point.of(past_default_precision())}
        refined = get_model("q1_pi")
        for k in range(1, 7):
            edge_member(refined, gap=Fraction(1, 2 ** k))
        refined.cut.oracle.refine(8192)
        assert oracle_truth(refined, f, asgn)
        assert eval_formula(refined, f, asgn)
        fresh = get_model("q1_pi")
        assert fresh == refined
        with pytest.raises(PrecisionBudgetError):
            eval_formula(fresh, f, asgn)
        with pytest.raises(PrecisionBudgetError):
            oracle_truth(fresh, f, asgn)

    def test_oracle_keeps_no_model_alive(self):
        # nothing outlives a call: neither a decision nor the model it was
        # compiled on
        m = get_model("lex3_val_1pi0")
        f = parse_formula("E y. (x < y & U(y))")
        assert oracle_truth(m, f, {"x": Point.of(0, 0, 0)})
        assert IntOracleEval(oracle_compile(m, f),
                             SAMPLE_DENOM).eval({"x": (0, 0, 0)})
        ref = weakref.ref(m)
        del m
        gc.collect()
        assert ref() is None


class TestBudget:
    def test_coordinates_are_eliminated_apart(self, m_sub3):
        # the coordinate parts of a clause are eliminated one by one, so no
        # product over the coordinates meets the budget (a re-expanded DNF
        # per coordinate exceeds 16 clauses here)
        f = parse_formula("E y. ~y + z - 1/2 < 0 & 1/2 * y + 1/2 < 0")
        ev = oracle_compile(m_sub3, f, budget=16)
        out = qe_star(f, build_structure(m_sub3))
        rng = random.Random(5)
        seen = set()
        for _ in range(40):
            asgn = {"z": gen_point(rng, m_sub3)}
            truth = eval_formula(m_sub3, out, asgn)
            assert ev.eval_points(asgn) == truth
            seen.add(truth)
        assert seen == {True, False}

    # 18 weak lower bounds y >= i, one weak upper bound y <= c and one
    # disequation y != d: splitting each negated strict bound into two
    # cases would make 2^18 combos
    WEAK_BOUNDS = ("E y. " + " & ".join(f"~(y < {i})" for i in range(18))
                   + " & ~(c < y) & ~(y = d)")

    def test_weak_bounds_need_no_case_split(self, m_pi):
        f = parse_formula(self.WEAK_BOUNDS)
        ev = oracle_compile(m_pi, f)
        for c, d, truth in [(17, 5, True), (17, 17, False), (16, 3, False)]:
            assert ev.eval_points({"c": Point.of(c), "d": Point.of(d)}) is truth

    def test_small_budget_refuses_the_split(self, m_pi):
        # 18 (lower, upper) pairs, and 18 weak pairs each against the one
        # disequation: 36 conditions
        f = parse_formula(self.WEAK_BOUNDS)
        assert oracle_compile(m_pi, f, budget=36).eval_points(
            {"c": Point.of(17), "d": Point.of(5)})
        with pytest.raises(BudgetExceededError,
                           match="oracle split budget exceeded"):
            oracle_compile(m_pi, f, budget=35)

    def test_small_budget_refuses_the_disjunction(self, m_pi):
        # the body's DNF is three clauses, past a budget of two
        f = parse_formula("E y. (x < y | y < 1 | y < 2)")
        assert oracle_compile(m_pi, f, budget=3).eval_points({"x": Point.of(5)})
        with pytest.raises(BudgetExceededError,
                           match="oracle DNF budget exceeded"):
            oracle_compile(m_pi, f, budget=2)


# one literal a*y + b*x + k OP 0 per kind, as text, and its truth at a value
# v of the left-hand side
_KINDS = {
    "<": ("{} < 0", lambda v: v < 0),
    "<=": ("{} <= 0", lambda v: v <= 0),
    "=": ("{} = 0", lambda v: v == 0),
    "!=": ("{} != 0", lambda v: v != 0),
    "~<": ("~({} < 0)", lambda v: not v < 0),
}


def _brute_exists(lits, x):
    """E y. lits at x, tried at the literals' roots in y, the midpoints
    between them and one point past each end: each literal keeps its truth
    between neighbouring roots."""
    roots = sorted({Fraction(-(b * x + k), a) for a, b, k, _ in lits})
    points = [roots[0] - 1, roots[-1] + 1, *roots,
              *((p + q) / 2 for p, q in zip(roots, roots[1:]))]
    return any(all(_KINDS[kind][1](a * y + b * x + k)
                   for a, b, k, kind in lits) for y in points)


class TestOneDimensionalElimination:
    def test_random_parts_agree_with_brute_force(self, m_pi):
        rng = random.Random(30)
        xs = [Fraction(n, 2) for n in range(-7, 8)]
        seen = set()
        for _ in range(400):
            lits = [(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-2, 2),
                     rng.randint(-3, 3), rng.choice(list(_KINDS)))
                    for _ in range(rng.randint(1, 6))]
            text = "E y. " + " & ".join(
                _KINDS[kind][0].format(f"{a} * y + {b} * x + {k}")
                for a, b, k, kind in lits)
            ev = oracle_compile(m_pi, parse_formula(text))
            for x in rng.sample(xs, 4):
                truth = _brute_exists(lits, x)
                assert ev.eval_points({"x": Point.of(x)}) is truth, (text, x)
                seen.add(truth)
        assert seen == {True, False}

    @pytest.mark.parametrize("text", [
        "E y. a <= y & y <= a & y != b",
        "E y. ~(y < a) & ~(a < y) & ~(y = b)",
        "E y. ~(y < a) & y <= a & b != y & y != b + 1",
    ])
    def test_a_point_interval_meets_its_disequation(self, m_pi, text):
        # the bounds leave the one point a, which y != b removes iff a = b
        ev = oracle_compile(m_pi, parse_formula(text))
        assert ev.eval_points({"a": Point.of(2), "b": Point.of(3)})
        assert not ev.eval_points({"a": Point.of(2), "b": Point.of(2)})

    def test_strict_and_weak_bounds_at_one_root(self, m_pi):
        for text, truth in [("E y. a <= y & y < a", False),
                            ("E y. a < y & y <= a", False),
                            ("E y. a <= y & y <= a", True),
                            ("E y. a <= y & y <= a & y = a", True),
                            ("E y. a <= y & y <= a & y = b", False)]:
            ev = oracle_compile(m_pi, parse_formula(text))
            assert ev.eval_points({"a": Point.of(1), "b": Point.of(0)}) is truth, \
                text


# nested two-variable sentences over q1_pi (U = {x : x < pi}).  A literal
# a*y + b*u + k OP 0, or U(a*y + b*u + k), has the root in y
# (c*pi - b*u - k) / a, c = 1 for U and 0 otherwise: a value p*pi + q,
# kept as the pair (p, q).  The answer follows by brute force over the
# rationals, each variable tried at one point of every cell of the line cut
# at the values where its truth can change (a rational root itself, a point
# between each neighbouring pair, one past each end; a root that carries pi
# is no rational point).
_PI = PiOracle()
_PI_NEAR = _PI.refine(300)[0]  # within 2^-300 of pi: orders the roots


def _value(root):
    p, q = root
    return p * _PI_NEAR + q


def _cell_points(roots):
    ordered = sorted(set(roots), key=_value)
    xs = [_value(r) for r in ordered]
    ends = [xs[0] - 1, xs[-1] + 1] if xs else [Fraction(0)]
    return ([q for p, q in ordered if p == 0] + ends
            + [(a + b) / 2 for a, b in zip(xs, xs[1:])])


def _holds(lit, u, y):
    a, b, k, kind, neg = lit
    v = a * y + b * u + k
    truth = (_PI.compare(v) < 0 if kind == "U" else
             v < 0 if kind == "<" else v == 0)
    return truth != neg


def _lit_text(lit):
    a, b, k, kind, neg = lit
    t = " + ".join([f"{a} * y"] * (a != 0) + [f"{b} * u"] * (b != 0)
                   + [f"{k}"])
    text = f"U({t})" if kind == "U" else f"({t} {kind} 0)"
    return "~" + text if neg else text


def _nested_answer(q_u, c_u, outer, neg, q_y, c_y, inner) -> bool:
    """The truth of Q u. (outer c ~Q' y. (inner c' ...)) over the
    rationals, each literal (a, b, k, kind, negated), a = 0 in outer: the
    truth in y changes only where two y-roots meet, and in u also at a
    u-literal's root."""
    def join(c, truths):
        return all(truths) if c == "&" else any(truths)

    def quant(q, truths):
        return all(truths) if q == "A" else any(truths)

    def at_u(u):
        ys = _cell_points([(Fraction(kind == "U", a), (-b * u - k) / a)
                           for a, b, k, kind, _ in inner])
        sub = quant(q_y, [join(c_y, [_holds(l, u, y) for l in inner])
                          for y in ys])
        return join(c_u, [_holds(l, u, 0) for l in outer] + [sub != neg])

    us = _meets(inner) + [(Fraction(kind == "U", b), -k / b)
                          for _, b, k, kind, _ in outer]
    return quant(q_u, [at_u(u) for u in _cell_points(us)])


def _meets(inner) -> list:
    """The u where two y-roots meet, each r(u) = p*pi + q + s*u."""
    lines = [(Fraction(kind == "U", a), Fraction(-k, a), Fraction(-b, a))
             for a, b, k, kind, _ in inner]
    return [((p2 - p1) / (s1 - s2), (q2 - q1) / (s1 - s2))
            for (p1, q1, s1), (p2, q2, s2)
            in itertools.combinations(lines, 2) if s1 != s2]


def _nested_text(q_u, c_u, outer, neg, q_y, c_y, inner) -> str:
    sub = f"({q_y} y. ({f' {c_y} '.join(map(_lit_text, inner))}))"
    body = f" {c_u} ".join([*map(_lit_text, outer), "~" * neg + sub])
    return f"{q_u} u. ({body})"


def _nested_draw(rng) -> tuple:
    def lit(in_y):
        a = rng.choice((-2, -1, 1, 2)) if in_y else 0
        b = rng.choice((-2, -1, 1, 2)) if not in_y or rng.random() < 0.7 \
            else 0
        return (a, b, Fraction(rng.randint(-6, 6), 2),
                rng.choice(("<", "=", "U", "U")), rng.random() < 0.5)

    # the draws lean toward where a weak reading of a strict bound that
    # carries alpha would show: the u-literal is ~U(...) under E u. and &,
    # or U(...) under A u. and | (the same, read as ~E u. ~...), and where
    # two y-roots meet at a point that carries pi, its root lies there, so
    # an outer bound ties with a bound of the inner result
    q_u = rng.choice("EA")
    inner = [lit(True) for _ in range(rng.randint(2, 3))]
    outer = [lit(False)[:4] + (q_u == "E",)]
    ties = [(p, q) for p, q in _meets(inner) if p]
    if ties:
        p, q = rng.choice(ties)  # root (pi - k)/b = p*pi + q
        outer[0] = (0, 1 / p, -q / p, "U", q_u == "E")
    return (q_u, "&" if q_u == "E" else "|", outer, rng.random() < 0.5,
            rng.choice("EA"), rng.choice("&|"), inner)


class TestRationalOrder:
    # over q1_pi, ~U(u) is u > pi at a rational u, and then a rational y
    # lies in (pi, (pi + u)/2), so E y. (~U(y) & U(2*y - u)) holds at every
    # u outside U: the first sentence is false, the second true
    @pytest.mark.parametrize("text, answer", [
        ("E u. ~U(u) & ~E y. (~U(y) & U(2*y - u))", False),
        ("A u. U(u) | E y. (~U(y) & U(2*y - u))", True),
    ])
    def test_no_rational_point_is_an_irrational_root(self, m_pi, text,
                                                     answer):
        assert oracle_truth(m_pi, parse_formula(text), {}) is answer

    # seed-1 eliminate_cut inputs over lex3_val_1pi0: qe_star's answer is
    # equivalent to each, so the closure of the two implications holds
    @pytest.mark.parametrize("text", [
        "E y. ~U(2*x + 3/2*y + -1/2) & U(2*x + 4*y) & U(-3*y + -2*e_in)",
        "E y. U(-3*y + 3*z) & ~U(1/2*y + -1*z + 2*x + 3) & "
        "U(4*z + 2*y + 1*e_in)",
        "E y. ~U(3/2*y + 3*z + -1/2*x + -1*e_in) & U(-1*y) & "
        "U(2*z + 2*y + 2)",
        "E y. ~U(3*x + 1/2*y) & U(1*z + 3*x + 4*y + 3)",
        "E y. ~U(-2*y) & U(-3*y + 1/2*z + 3/2*x + 2*e_in) & "
        "U(4*z + 3/2*x + 1*y + -1*e_in)",
        "E y. U(-1/2*x + -2*y) & ~U(-1/2*y + 4*x + 4*z + -1*e_in)",
        "E y. U(4*z + 4*y + -1*e_in) & U(-1/2*y + 1*e_in) & "
        "~U(-1/2*z + 1/2*y)",
        "E y. ~U(3/2*z + 3*y) & U(-3*z + 3*y + -2*e_in) & "
        "~U(1/2*y + 1*x + 1/2)",
    ])
    def test_eliminations_are_equivalent(self, m_1pi0, text):
        f = parse_formula(text)
        out = qe_star(f, build_structure(m_1pi0))
        g = And(Implies(out, f), Implies(f, out))
        for v in sorted(free_vars(f)):
            g = Forall(v, g)
        assert oracle_truth(m_1pi0, g, {})

    def test_nested_sentences_agree_with_brute_force(self, m_pi):
        rng = random.Random(10)
        seen = set()
        for _ in range(400):
            spec = _nested_draw(rng)
            text, answer = _nested_text(*spec), _nested_answer(*spec)
            assert oracle_truth(m_pi, parse_formula(text), {}) is answer, \
                text
            seen.add(answer)
        assert seen == {True, False}


# quantifier bodies whose binders the parser would rename apart, built
# directly: a reused binder, and a bound name that is also free; with
# normal, each <=, != and -> is written out as the pre-pass-free reference
# reads it: a <= b as ~(b < a), a != b as ~(a = b), p -> q as ~p | q
def _shadowing_formulas(normal: bool = False):
    def p(text, written_out=None):
        return parse_formula(written_out if normal and written_out else text)
    return [
        Exists("x", And(p("x < y"), Exists("x", p("y < x")))),
        And(p("x < 1/2"), Exists("x", p("x = y + 1"))),
        Forall("x", And(p("x < y | y <= x", "x < y | ~(x < y)"),
                        Exists("x", And(p("U(x)"),
                                        p("x != y", "~(x = y)"))))),
        Exists("y", And(p("~(y <= x)", "~~(x < y)"),
                        Forall("y", p("y != x -> ~(y = 2 * x)",
                                      "~~(y = x) | ~(y = 2 * x)")))),
    ]


_PREPASS_TEXTS = [
    "~(x <= y)", "~(x != y)", "~(x <= y -> U(x - y))",
    "A y. (x <= y -> y != z)", "A y. ~(y <= x) -> I(y - z)",
    "(x <= y -> y <= z) -> x <= z", "~((x != y -> U(y)) -> ~(z <= x))",
    "A y. E z. (y <= z -> ~(z != x + y))", "E y. ~(U(y) -> y <= x)",
]

# the same formulas in normal form, written out as for _shadowing_formulas
_NORMAL_TEXTS = [
    "~~(y < x)", "~~(x = y)", "~(~~(y < x) | U(x - y))",
    "A y. (~~(y < x) | ~(y = z))", "A y. (~~~(x < y) | I(y - z))",
    "~(~~(y < x) | ~(z < y)) | ~(z < x)",
    "~(~(~~(x = y) | U(y)) | ~~(x < z))",
    "A y. E z. (~~(z < y) | ~~(z = x + y))", "E y. ~(~U(y) | ~(x < y))",
]


class TestWithoutPrePasses:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_decided_as_after_renaming_and_normalizing(self, name):
        m = get_model(name)
        rng = random.Random(name)
        forms = _shadowing_formulas() + [parse_formula(t)
                                         for t in _PREPASS_TEXTS]
        normal = _shadowing_formulas(True) + [parse_formula(t)
                                              for t in _NORMAL_TEXTS]
        for f in forms[:4]:
            assert rename_bound(f) != f
        for f, g in zip(forms, normal, strict=True):
            ev = oracle_compile(m, f)
            ref = oracle_compile(m, rename_bound(g))
            for _ in range(20):
                asgn = {v: gen_point(rng, m) for v in free_vars(f)}
                assert ev.eval_points(asgn) == ref.eval_points(asgn), str(f)


class TestIntegerForms:
    @pytest.mark.parametrize("a, b", [("2*y < 0", "y < 0"),
                                      ("x = 0", "-x = 0")],
                             ids=["strict-multiple", "negated-equation"])
    def test_multiples_are_one_atom(self, m_sub2, a, b):
        da = _decomposed(m_sub2, parse_formula(a))
        db = _decomposed(m_sub2, parse_formula(b))
        # literals number atoms per decision: equal trees alone could name
        # different atoms, so the atoms behind them are compared too
        assert da[0] == db[0]
        assert ([(x.kind, x.form) for x in _atoms(*da)]
                == [(x.kind, x.form) for x in _atoms(*db)])
        _assert_primitive(*da)

    def test_equal_atoms_are_one_object(self, m_1pi0):
        # eliminating y leaves clauses that share coordinate atoms; a
        # decision holds each distinct atom once
        f = parse_formula("E y. (x < y & y < z) | (x < y & U(y - z))")
        tree, table = _decomposed(m_1pi0, f)
        lits = _literals(tree)
        atoms = {id(a): a for a in _atoms(tree, table)}
        assert len(lits) > len(atoms)
        assert len({(a.kind, a.form) for a in atoms.values()}) == len(atoms)
        assert len({(a.kind, a.form) for a in table}) == len(table)


class TestOracleScale:
    # the costliest oracle compiles among the benchmark's seed-1
    # eliminate_cut requests; the first nested deeper than the recursion
    # limit allowed while the oracle's boolean trees were binary
    @pytest.mark.parametrize("name, text", [
        ("lex3_val_1pi0", "E y. ~-2 * y - z - e_in < 0 & "
         "~U(2 * x + 3 * y + 3/2 * z) & ~-3 * y < 0 & ~U(-3 * x + y + 2)"),
        ("lex2_rat_11", "E y. ~-2 * x + y - 1/2 < 0 & "
         "~2 * x + 4 * y + 1/2 < 0 & U(3 * y - 1/2 * z - 1/2) & "
         "~U(3 * x + 2 * y + 4 * z)"),
        ("lex3_sub2", "E y. I(1/2 * x + y - 2) & ~2 * x + 1/2 * y + 3 * z < 0 "
         "& ~3/2 * x + 2 * y + z < 0 & ~-1/2 * x + 3/2 * y < 0"),
        ("lex3_val_1pi0", "E y. 2 * y < 0 & ~-3 * y + 2 * z + 2 * e_in < 0 & "
         "-x - 1/2 * y + 3 < 0 & ~-1/2 * x + 1/2 * y - 1/2 * z < 0"),
        ("lex2_rat_11", "E y. I(3/2 * x - 2 * y) & -1/2 * x - 1/2 * y < 0 & "
         "~U(3 * x - 2 * y + 3 * z) & U(4 * y + 3/2 * z)"),
    ], ids=["val_1pi0-a", "rat_11-a", "sub2", "val_1pi0-b", "rat_11-b"])
    def test_heavy_input_agrees_with_qe_star(self, models, name, text):
        m = models[name]
        f = parse_formula(text)
        _assert_primitive(*_decomposed(m, f))
        ev = oracle_compile(m, f)
        out = qe_star(f, build_structure(m))
        rng = random.Random(9)
        for _ in range(40):
            asgn = {v: gen_point(rng, m) for v in ("x", "z")}
            assert ev.eval_points(asgn) == eval_formula(m, out, asgn)

    # the oracle's cache key hashes the formula: a first hash must not
    # recurse through the unhashed subformulas
    @pytest.mark.parametrize("text, at_neg, at_pos", [
        ("~" * 3000 + "x < 0", True, False),
        ("~(x < 0 & " * 400 + "x < 0" + ")" * 400, True, True),
    ], ids=["stacked-negations", "alternating-nesting"])
    def test_deep_input_truth(self, m_sub2, text, at_neg, at_pos):
        f = parse_formula(text)
        assert oracle_truth(m_sub2, f, {"x": Point.of(-1, 0)}) is at_neg
        assert oracle_truth(m_sub2, f, {"x": Point.of(1, 0)}) is at_pos

    def test_deep_existential(self, m_pi, m_sub2):
        # x < y innermost, wrapped alternately in (y < k & ...) and
        # (k < y | ...): 1,000 levels under one quantifier
        body = "x < y"
        for k in range(1000):
            body = (f"(y < {k} & {body})" if k % 2 == 0
                    else f"({k} < y | {body})")
        f = parse_formula("E y. " + body)
        assert oracle_truth(m_pi, f, {"x": Point.of(0)})
        # over two coordinates each < is two clauses: the DNF outgrows the
        # budget
        with pytest.raises(BudgetExceededError):
            oracle_truth(m_sub2, f, {"x": Point.of(0, 0)})

    def test_negation_is_linear(self, m_sub2, monkeypatch):
        # alternately nested ~(x < k & ~(x < k' | ...)): each ~ negates the
        # whole subtree below it unless the polarity is carried down
        levels = 3000
        text = "".join(f"~(x < {k} {'|&'[k % 2 == 0]} "
                       for k in range(levels)) + "x < 0" + ")" * levels
        f = parse_formula(text)
        calls = 0
        bnot = oracle._bnot

        def counted(a):
            nonlocal calls
            calls += 1
            return bnot(a)

        monkeypatch.setattr(oracle, "_bnot", counted)
        ev = oracle_compile(m_sub2, f)
        assert calls <= 3 * levels
        assert ev.eval_points({"x": Point.of(-1, 0)})


class TestResolvents:
    def test_each_resolvent_is_combined_once(self, monkeypatch):
        # over two coordinates each < is (f0 < 0) | (f0 = 0 & f1 < 0): the
        # DNF's clauses meet the same lower/upper and equation pairs again
        # and again, and each pair is combined once, for its node
        m = get_model("lex2_sub1")
        f = parse_formula("E y. (x < y | z < y) & (y < w | y < v) & ~(y < u)")
        calls = []
        combine = oracle._combine
        monkeypatch.setattr(oracle, "_combine",
                            lambda *args: calls.append(args) or combine(*args))
        d = _Decomposer(m, DEFAULT_ORACLE_BUDGET)
        d.decompose(f)
        assert 0 < len(calls) <= len(d.resolvent_nodes)
        ev = oracle_compile(m, f)
        out = qe_star(f, build_structure(m))
        rng = random.Random(4)
        seen = set()
        for _ in range(60):
            asgn = {v: gen_point(rng, m) for v in "xzwvu"}
            truth = eval_formula(m, out, asgn)
            assert ev.eval_points(asgn) == truth
            seen.add(truth)
        assert seen == {True, False}


class TestAtomTable:
    @pytest.mark.parametrize("name, text", [
        ("lex2_sub1", "x < 0"), ("lex2_rat_11", "U(x)")])
    def test_the_table_holds_what_the_tree_reaches(self, name, text):
        # the last coordinate's f = 0 would be joined to False
        tree, atoms = _decomposed(get_model(name), parse_formula(text))
        reached = {n if n >= 0 else ~n for n in _literals(tree)}
        assert reached == set(range(len(atoms))) and len(reached) == 3

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_quantifier_free_tables_hold_only_reached_atoms(self, name):
        m = get_model(name)
        for text in ("x < 0", "x <= 1/2", "x = y", "x != y", "U(x)",
                     "I(x - y)", "~U(x + 1/2) | y < x", "U(x) & ~(x < 1)"):
            tree, atoms = _decomposed(m, parse_formula(text))
            reached = {n if n >= 0 else ~n for n in _literals(tree)}
            assert reached == set(range(len(atoms))), text


class TestManyAtoms:
    def test_atoms_past_the_small_int_cache(self, m_sub2):
        # Lowering keys frame slots by atom number, a negative literal n by
        # ~n, so the numbers past CPython's small-int cache, fresh objects
        # each, must still take one slot per atom.  Here 100 pairs (A, B),
        # exactly one of which holds at every sampled point (their sides
        # are never equal there), give more atoms than CPython caches small
        # ints for.  Each pair states
        # "at most one" three times and "at least one" twice, alternately,
        # so negated literals recur right after positive ones of their
        # atoms.
        pairs = []
        for a, b, c in itertools.islice(itertools.product(
                range(1, 6), (-3, -2, -1, 1, 2, 3), range(-4, 5)), 100):
            s, k = f"{a} * x + {b} * z", f"{c} + 1/3"
            pairs.append((f"{s} < {k}", f"{k} < {s}"))
        clauses = []
        for A, B in pairs:
            most, one = f"(~{A} | ~{B})", f"({A} | {B})"
            clauses += [most, one, most, one, most]
        f = parse_formula("(E y. (x < y & y < z)) & " + " & ".join(clauses))
        tree, _ = _decomposed(m_sub2, f)
        lits = _literals(tree)
        atoms = {n if n >= 0 else ~n for n in lits}
        assert len(atoms) > 257 and max(atoms) > 257
        assert 2 * sum(n < 0 for n in lits) > len(lits)
        # one frame slot per distinct atom
        ev = oracle_compile(m_sub2, f)
        assert len(ev.blank) == len(atoms)
        out = qe_star(f, build_structure(m_sub2))
        orc = IntOracleEval(ev, SAMPLE_DENOM)
        draw = pool_drawer(random.Random(3), int_sample_pool(m_sub2))
        seen = set()
        for _ in range(40):
            ints = {v: draw(2) for v in "xz"}
            asgn = {v: Point.of(*(Fraction(q, SAMPLE_DENOM) for q in p))
                    for v, p in ints.items()}
            truth = eval_formula(m_sub2, out, asgn)
            assert orc.eval(ints) == truth
            seen.add(truth)
        assert seen == {True, False}


def _walk_pairs(a, b):
    """(a node, b node) pairs of two trees of one shape, on a stack."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        yield x, y
        if type(x) is tuple:
            assert type(y) is tuple and len(x) == len(y)
            stack.extend(zip(x[1:], y[1:]))


class TestNegation:
    def test_deep_tree_under_a_low_recursion_limit(self):
        # & and | alternate 5,000 levels deep; the negation swaps them and
        # flips each literal, and negating twice gives the tree back
        lits = list(range(5001))
        tree = lits[-1]
        for k in reversed(range(5000)):
            tree = ("&" if k % 2 else "|", lits[k], tree)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            neg = oracle._bnot(tree)
            back = oracle._bnot(neg)
        finally:
            sys.setrecursionlimit(limit)
        for x, y in _walk_pairs(tree, neg):
            if type(x) is tuple:
                assert {x[0], y[0]} == {"&", "|"}
            else:
                # a literal and its negation name one atom, n and ~n
                assert type(y) is int and y == ~x
        for x, y in _walk_pairs(tree, back):
            assert x[0] == y[0] if type(x) is tuple else x == y
        assert oracle._bnot(True) is False
        assert oracle._bnot(False) is True
        assert oracle._bnot(("&", 0, ~1)) == ("|", ~0, 1)
