import hashlib
import random
import time
from decimal import MAX_EMAX, MAX_PREC, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from convexqe.cutqe import qe
from convexqe.errors import BudgetExceededError, FormulaSyntaxError
from convexqe.fuzz import gen_formula
from convexqe.models import eval_formula
from convexqe.normalform import dnf_clauses, normalize_atoms, simplify, to_dnf
from convexqe.parser import parse_formula, parse_term
from convexqe.syntax import (And, Atom, AtomF, AtomKind, Exists, FALSE,
                             Forall, Formula, Not, Or, TRUE, Term, atoms_of,
                             canonicalize_bound, conj, disj, free_vars,
                             is_quantifier_free, print_formula, rename_bound,
                             term_to_str)


def rt(text: str) -> Formula:
    return parse_formula(text)


_COEFFS = ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2", "3/2", "4",
           "- 2/6", "0")


def _cut_text(rng: random.Random) -> str:
    """An `eliminate`-style request: E y. over literals with rational
    coefficients, constants and e_in/e_out parts."""
    lits = []
    for _ in range(rng.randint(2, 4)):
        parts = [f"{rng.choice(_COEFFS)}*{v}" for v in ("y", "x", "z")
                 if v == "y" or rng.random() < 0.5]
        rng.shuffle(parts)
        r = rng.random()
        if r < 0.3:
            parts.append(rng.choice(("1", "-1", "1/2", "3", "4/2")))
        elif r < 0.5:
            parts.append(f"{rng.choice(('1', '-1', '2'))}*e_in")
        elif r < 0.6:
            parts.append("-e_out")
        t = rng.choice((" + ", "+", " - ")).join(parts)
        r = rng.random()
        lit = (f"U({t})" if r < 0.3 else f"I({t})" if r < 0.5
               else f"{t} < {rng.choice(('0', 'x', '1/3', '-y'))}"
               if r < 0.8 else f"{t} {rng.choice(('<=', '=', '!='))} 0")
        lits.append("~" + lit if rng.random() < 0.4 else lit)
    return "E y. " + rng.choice((" & ", " | ", " -> ")).join(lits)


def _parse_corpus() -> list[str]:
    """Seeded gen_formula prints, some wrapped so a binder name repeats or
    equals a free name; eliminate-style requests; and hand-made cases."""
    rng = random.Random(2024)
    texts = []
    for i in range(1200):
        text = print_formula(gen_formula(rng, ["x", "y"], rng.randint(0, 6), 3))
        texts.append((text, f"E x. E x. ({text})",
                      f"(E z. z < 0) & ({text}) & z != 1",
                      f"A y. ({text}) | E y. y = x")[i % 4])
    texts += [_cut_text(rng) for _ in range(800)]
    chain = " * ".join(f"{k}/{k + 1}" for k in range(1, 41))
    texts += [
        "(E y. y < 0) & y < 0",
        "E y. E y. y < x",
        "x - x < 0 & E x. x < 1",
        "E x. (x < 0 & E x. x < 1)",
        "E x. E x. E x_1. x + 2 * x_1 < 0",
        "A x. E y. (x < y -> E x. x = y) & E z. z < x",
        f"{chain} * x < 1/41",
        f"{chain} * - {chain} * y + {chain} = e_in",
        "2 * - 3/4 * - - x + 1/2 * 2 - 0 * y < 0",
        "- " * 60 + "1/3 * - 7/5 * e_out < e_in",
        "123456789012345678901234567890123/98765432109876543210 * x"
        " + 5/10 < 7/14 * y - 10/4",
        "x + x + x - 3 * x < 0 | 6/4 * e_in - 3/2 * e_in + 0/5 = 0",
        "U(\n\t1/2*x\r\n)  &  I( e_in )->~~(x<=0|y!=0)",
        "~(x < 0 -> y < 0 -> z < 0) | true & false",
        "E x_1. A _y. x_1 + _y < 007",
        "((((x < 0))))",
    ]
    return texts


# recorded before the parser's hot path was rewritten
PARSE_DIGEST = (
    "ef19fe78eb832b19b982f30de1470605da108c86167313612a021191f4fc7424")
_LONG = "1" * 5000  # past the interpreter's int/str digit limit
# one or more cases per raise site, with the (message, line, column)
# recorded before that rewrite, but those after a long literal, which was
# an error then: (parse, text, message, line, column)
PARSE_ERRORS = [
    (parse_formula, 'x < 0 & y # 1', "1:11: unexpected character '#'", 1, 11),
    (parse_formula, 'x < 0 &\n\t y\t$ 1',
     "2:5: unexpected character '$'", 2, 5),
    (parse_formula, '\n\n\t\té < 0', "3:3: unexpected character 'é'", 3, 3),
    (parse_formula, 'x > 0', "1:3: unexpected character '>'", 1, 3),
    (parse_formula, 'x < ) ! 0', "1:7: unexpected character '!'", 1, 7),
    (parse_formula, 'x < 0 -\n> y', "2:1: unexpected character '>'", 2, 1),
    (parse_formula, 'x < 0 y', "1:7: trailing input 'y'", 1, 7),
    (parse_formula, 'x < 0\n  )', "2:3: trailing input ')'", 2, 3),
    (parse_formula, '(x < 0', "1:7: expected ')'", 1, 7),
    (parse_formula, 'E y. ((x < y)\n\t ', "2:3: expected ')'", 2, 3),
    (parse_formula, '(x < 0 y < 1)', "1:8: expected ')', found 'y'", 1, 8),
    (parse_formula, 'U(x', "1:4: expected ')'", 1, 4),
    (parse_formula, 'U x)', "1:3: expected '(', found 'x'", 1, 3),
    (parse_formula, 'x + 1 & y < 0',
     '1:7: expected a relation (<, <=, =, !=)', 1, 7),
    (parse_formula, 'x + 1\n',
     '2:1: expected a relation (<, <=, =, !=)', 2, 1),
    (parse_formula, 'E . x < 0',
     '1:3: expected a variable after quantifier', 1, 3),
    (parse_formula, 'A\n  1. x < 0',
     '2:3: expected a variable after quantifier', 2, 3),
    (parse_formula, 'E e_in. x < 0',
     '1:3: expected a variable after quantifier', 1, 3),
    (parse_formula, 'E', '1:2: expected a variable after quantifier', 1, 2),
    (parse_formula, 'E x x < 0', "1:5: expected '.', found 'x'", 1, 5),
    (parse_formula, '1/0 * x < 0', '1:3: zero denominator', 1, 3),
    (parse_formula, 'x < 0 |\r\n\t3/ 00 * y < 0',
     '2:5: zero denominator', 2, 5),
    (parse_formula, 'x < 1/x', '1:7: expected a number', 1, 7),
    (parse_formula, f"x < {_LONG} y", "1:5006: trailing input 'y'", 1, 5006),
    (parse_formula, f"x < {_LONG}/0", '1:5006: zero denominator', 1, 5006),
    (parse_formula, f"\n {_LONG} * y",
     '2:5006: expected a relation (<, <=, =, !=)', 2, 5006),
    (parse_formula, 'x < E',
     "1:5: reserved word 'E' cannot be used as a variable", 1, 5),
    (parse_formula, 'x +\n  A < 0',
     "2:3: reserved word 'A' cannot be used as a variable", 2, 3),
    (parse_formula, 'E U. U < 0',
     '1:3: expected a variable after quantifier', 1, 3),
    (parse_formula, '2 * true < 0',
     "1:5: reserved word 'true' cannot be used as a variable", 1, 5),
    (parse_formula, 'x < ', '1:5: expected a term', 1, 5),
    (parse_formula, 'x < )', '1:5: expected a term', 1, 5),
    (parse_formula, 'x < * 2', '1:5: expected a term', 1, 5),
    (parse_formula, 'x - - ', '1:7: expected a term', 1, 7),
    (parse_formula, '', '1:1: expected a term', 1, 1),
    (parse_formula, '   \n ', '2:2: expected a term', 2, 2),
    (parse_formula, 'x < 0 & ', '1:9: expected a term', 1, 9),
    (parse_formula, '~', '1:2: expected a term', 1, 2),
    (parse_term, 'x + 1 )', "1:7: trailing input ')'", 1, 7),
    (parse_term, 'x\n y', "2:2: trailing input 'y'", 2, 2),
    (parse_term, 'x < 0', "1:3: trailing input '<'", 1, 3),
    (parse_term, '2 * 3 #', "1:7: unexpected character '#'", 1, 7),
    (parse_term, '', '1:1: expected a term', 1, 1),
]


class TestLongNumbers:
    def test_chunked_conversion_matches_str(self):
        # below the interpreter's digit limit str() is the reference; str()
        # itself prints below 500 digits, so that edge is tried
        from convexqe.syntax import _int_text
        rng = random.Random(12)
        edge = 10 ** 500
        cases = [0, 1, edge - 1, edge, edge + 1, edge ** 2, edge ** 2 - 1,
                 7 * edge ** 3 + 5]
        cases += [rng.randrange(10 ** rng.randint(400, 4000))
                  for _ in range(40)]
        for n in cases:
            assert _int_text(n) == str(n)
            assert _int_text(-n) == str(-n)

    @pytest.mark.digit_limit
    def test_a_million_digits_print_quickly(self):
        # 3^2,100,000 has 1,001,955 digits, and its reference is decimal's
        # own power; a conversion quadratic in the length takes seconds
        from convexqe.syntax import _int_text
        k = 2_100_000
        with localcontext() as ctx:
            ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
            want = str(Decimal(3) ** k)
        n = 3 ** k
        start = time.perf_counter()
        got = _int_text(n), _int_text(1 - n)
        assert time.perf_counter() - start < 5
        assert got == (want, "-" + want[:-1] + "0")  # 3^k ends in 1

    @pytest.mark.digit_limit
    def test_long_literals_parse_exactly(self):
        # on both sides of the 500-digit edge, and split unevenly; the
        # references are built without converting a string
        for n in (1, 499, 500, 501, 1001, 5000):
            for digits, want in (("7" * n, 7 * (10 ** n - 1) // 9),
                                 ("1" + "0" * n + "3", 10 ** (n + 1) + 3),
                                 ("0" * n + "42", 42)):
                t = parse_term(f"{digits} * x")
                assert t.coeff("x") == want, n

    @pytest.mark.digit_limit
    def test_long_fraction_prints_in_full(self):
        # 3 * 10^5000 / 7 has a 5,001-digit numerator
        t = Term({"x": Fraction(3 * 10 ** 5000, 7)})
        assert term_to_str(t) == "3" + "0" * 5000 + "/7 * x"


class TestParsing:
    def test_quantified_conjunction_shape(self):
        f = rt("E y. (x < y & U(y))")
        assert isinstance(f, Exists)
        assert isinstance(f.body, And)
        lhs, rhs = f.body.args
        assert lhs.atom.kind == AtomKind.LT
        assert rhs.atom.kind == AtomKind.UMEM

    def test_constant_atom(self):
        f = rt("U(e_in)")
        assert f.atom == Atom(AtomKind.UMEM, Term.ein())

    def test_linear_form_normalization(self):
        f = rt("2 * x - 3 * y < 1")
        t = f.atom.term
        assert f.atom.kind == AtomKind.LT
        assert t.coeff("x") == 2 and t.coeff("y") == -3
        assert t.offset == -1

    def test_rationals_and_unary_minus(self):
        t = parse_term("3/2 * x - -1")
        assert t.coeff("x") == Fraction(3, 2) and t.offset == 1

    def test_scaling_prefixes_multiply(self):
        t = parse_term("2 * - 3/4 * - - x + 1/2 * 2 - 0 * y")
        assert t == Term.var("x").scale(Fraction(-3, 2)) + Term.const(1)
        assert parse_term("- 2 * 3") == Term.const(-6)

    def test_precedence(self):
        f = rt("~a < 0 & b < 0 | c < 0 -> d < 0")
        # -> binds loosest, then |, then &, then ~
        from convexqe.syntax import Implies
        assert isinstance(f, Implies)
        assert isinstance(f.lhs, Or)
        assert isinstance(f.lhs.args[0], And)
        assert isinstance(f.lhs.args[0].args[0], Not)

    def test_quantifier_body_extends_right(self):
        f = rt("E y. x < y & U(y)")
        assert isinstance(f, Exists)
        assert isinstance(f.body, And)

    def test_syntax_error_has_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("E y. ((x < y)")
        assert err.value.line == 1

    @pytest.mark.parametrize("text, line, column", [
        ("x < 0 &\n  y # 1", 2, 5),           # unexpected character
        ("x < 0 &\n\n   (y <\n 0", 4, 3),    # at the end of input
        ("x < 0 |\r\n\t1/0 * y < 0", 2, 4),  # zero denominator
    ])
    def test_syntax_error_position_across_lines(self, text, line, column):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_reserved_word_misuse(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("E U. U < 0")

    def test_bound_variables_unique(self):
        f = rt("E x. (x < 0 & E x. x < 1)")
        inner = f.body.args[1]
        assert isinstance(inner, Exists)
        assert inner.var != f.var

    def test_parse_output_is_pinned(self):
        """The parse of a fixed corpus, as repr, print and each atom's
        integer tuple, hashes to a digest recorded before the parser's
        hot path was rewritten."""
        h = hashlib.sha256()
        for text in _parse_corpus():
            f = parse_formula(text)
            terms = [tuple(a.term) for a in atoms_of(f)]
            h.update(f"{text}\n{f!r}\n{print_formula(f)}\n{terms}\n".encode())
        assert h.hexdigest() == PARSE_DIGEST

    @pytest.mark.parametrize("case", PARSE_ERRORS,
                             ids=[str(i) for i in range(len(PARSE_ERRORS))])
    def test_parse_errors_are_pinned(self, case):
        parse, text, message, line, column = case
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text)
        assert type(err.value) is FormulaSyntaxError
        assert (str(err.value), err.value.line, err.value.column) \
            == (message, line, column)


class TestShape:
    A, B, C = (AtomF(Atom(AtomKind.LT, Term.var(v))) for v in "abc")

    @pytest.mark.parametrize("op", [And, Or])
    def test_nested_connectives_are_spliced(self, op):
        a, b, c = self.A, self.B, self.C
        flat = op(a, b, c)
        assert flat.args == (a, b, c)
        for g in (op(op(a, b), c), op(a, op(b, c)), op(op(a), op(b, c))):
            assert g == flat and hash(g) == hash(flat)
        other = Or if op is And else And
        assert op(a, other(b, c)).args == (a, other(b, c))

    def test_conj_disj_build_one_node(self):
        a, b, c = self.A, self.B, self.C
        assert conj([And(a, b), TRUE, c, a]) == And(a, b, c)
        assert disj([a, FALSE, Or(b, c), b]) == Or(a, b, c)
        assert conj([a, FALSE, b]) == FALSE and disj([a, TRUE]) == TRUE
        assert conj([a, a]) is a and conj([]) == TRUE and disj([]) == FALSE

    def test_printing_drops_same_connective_groups(self):
        f = rt("(a < 0 & b < 0) & (c < 0 | (d < 0 | e < 0))")
        assert print_formula(f) == "a < 0 & b < 0 & (c < 0 | d < 0 | e < 0)"

    def test_binder_renaming_is_simultaneous(self):
        f = rt("E x. E x. E x_1. x + 2 * x_1 < 0")
        assert print_formula(f) == "E x. E x_1. E x_1_1. x_1 + 2 * x_1_1 < 0"
        assert canonicalize_bound(rt("E q2. E q1. q1 + 2 * q2 < 0")) \
            == canonicalize_bound(rt("E a. E b. b + 2 * a < 0"))


N_ATOMS = 10_000
N_NEGATIONS = 5_000


def _bounds(n):
    """x_i - y < 0 for i < n: lower bounds on y, so E y. of any positive
    combination is true."""
    one = Fraction(1)
    return [AtomF(Atom(AtomKind.LT, Term(((f"x{i}", one), ("y", -one)))))
            for i in range(n)]


def _left_nested(op, fs):
    g = fs[0]
    for f in fs[1:]:
        g = op(g, f)
    return g


def _right_nested(op, fs):
    g = fs[-1]
    for f in reversed(fs[:-1]):
        g = op(f, g)
    return g


def _walk_everything(f, names, clauses, simplified):
    """Every structural walk over f and E y. f; none may recurse."""
    g = Exists("y", f)
    assert free_vars(f) == names and free_vars(g) == names - {"y"}
    assert rename_bound(g) is g
    assert canonicalize_bound(g).var == "q1"
    text = print_formula(g)
    assert print_formula(parse_formula(text)) == text
    assert normalize_atoms(g) is g
    assert simplify(f) == simplified
    assert len(dnf_clauses(f)) == clauses
    assert qe(g) == TRUE


@pytest.mark.parametrize("op", [And, Or])
def test_long_connectives_are_one_node(op):
    """Built left-nested, right-nested or by conj/disj, a 10,000-atom
    conjunction or disjunction is the same single node."""
    fs = _bounds(N_ATOMS)
    built = [_left_nested(op, fs), _right_nested(op, fs),
             (conj if op is And else disj)(fs)]
    for f in built:
        assert type(f) is op and f.args == tuple(fs)
        assert hash(f) == hash(built[0])
    names = {"y"} | {f"x{i}" for i in range(N_ATOMS)}
    _walk_everything(built[0], names, N_ATOMS if op is Or else 1, built[0])


def test_long_negation_chain():
    [a] = _bounds(1)
    f = a
    for _ in range(N_NEGATIONS):
        f = Not(f)
    _walk_everything(f, {"x0", "y"}, 1, a)


def _alternations(n: int, innermost: int = 0) -> str:
    text = f"x < {innermost}"
    for i in range(n):
        text = f"~(x < {i} {'&|'[i % 2]} {text})"
    return text


def test_equality_of_deep_formulas_is_iterative():
    """== between two separate parses of 3,000 alternately nested
    negated connectives walks them without recursion, and tells apart a
    copy whose innermost atom differs."""
    text = _alternations(3000)
    f, g, h = (parse_formula(t) for t in (text, text, _alternations(3000, 7)))
    assert f is not g
    assert f != h  # hashed when built: two hashes that differ end == at once
    assert f == g and hash(f) == hash(g)  # equal hashes: walked to the atoms
    assert f != h


class TestNormalization:
    def test_le_rewrite(self):
        f = normalize_atoms(rt("x <= y"))
        assert f == Not(AtomF(Atom(AtomKind.LT, Term.var("y") - Term.var("x"))))

    def test_neq_rewrite(self):
        f = normalize_atoms(rt("x != y"))
        assert isinstance(f, Not)
        assert f.sub.atom.kind == AtomKind.EQ

    def test_implies_rewrite(self):
        f = normalize_atoms(rt("U(x) -> U(2 * x)"))
        assert f == rt("~U(x) | U(2 * x)")

    def test_only_normal_kinds_remain(self):
        f = normalize_atoms(rt("x <= y & (x != z -> U(x))"))
        from convexqe.syntax import atoms_of
        kinds = {a.kind for a in atoms_of(f)}
        assert kinds <= {AtomKind.LT, AtomKind.EQ, AtomKind.UMEM, AtomKind.IMEM}


class TestDnf:
    def test_distribution(self):
        f = normalize_atoms(rt("(a < 0 | b < 0) & c < 0"))
        assert to_dnf(f) == rt("a < 0 & c < 0 | b < 0 & c < 0")

    def test_single_literal_identity(self):
        f = normalize_atoms(rt("a < 0"))
        assert to_dnf(f) == f

    def test_de_morgan(self):
        f = normalize_atoms(rt("~(a < 0 & b < 0)"))
        assert to_dnf(f) == rt("~(a < 0) | ~(b < 0)")

    def test_budget(self):
        parts = " & ".join(f"(x{i} < 0 | y{i} < 0)" for i in range(12))
        f = normalize_atoms(parse_formula(parts))
        with pytest.raises(BudgetExceededError):
            dnf_clauses(f, budget=100)

    def test_truth_preserved_sampled(self, models):
        rng = random.Random(3)
        from convexqe.fuzz import gen_formula, gen_point
        for name in ("lex2_sub1", "lex3_val_1pi0"):
            m = models[name]
            for _ in range(25):
                f = gen_formula(rng, ["x", "y"], 3, 0)
                nf = normalize_atoms(f)
                if not is_quantifier_free(nf):
                    continue
                df = to_dnf(nf)
                for _ in range(10):
                    asgn = {v: gen_point(rng, m) for v in free_vars(f)}
                    ref = eval_formula(m, f, asgn)
                    assert eval_formula(m, nf, asgn) == ref
                    assert eval_formula(m, df, asgn) == ref


# --- round-trip property ----------------------------------------------------

_names = st.sampled_from(["x", "y", "z", "w"])
_rats = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def terms(draw):
    t = Term()
    for _ in range(draw(st.integers(1, 3))):
        t = t + Term.var(draw(_names)).scale(draw(_rats))
    if draw(st.booleans()):
        t = t + Term.const(draw(_rats))
    if draw(st.booleans()):
        t = t + Term.ein(draw(_rats))
    return t


@st.composite
def formulas(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        kind = draw(st.sampled_from(list(AtomKind)))
        return AtomF(Atom(kind, draw(terms())))
    shape = draw(st.integers(0, 4))
    if shape == 0:
        return Not(draw(formulas(depth=depth - 1)))
    if shape == 1:
        return And(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    if shape == 2:
        return Or(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    cls = Exists if shape == 3 else Forall
    return cls(draw(_names), draw(formulas(depth=depth - 1)))


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_print_parse_round_trip(f):
    text = print_formula(f)
    g = parse_formula(text)
    assert canonicalize_bound(g) == canonicalize_bound(f)
    assert free_vars(g) == free_vars(f)
