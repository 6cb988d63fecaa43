import random
from fractions import Fraction

import pytest

from convexqe.cutqe import (CutClass, build_structure, check_resistance,
                            qe_star, skolemize)
from convexqe.errors import (ConvexQEError, NonvaluationalInterpretationError,
                             SkolemShapeUnsupportedError, UnsupportedCutError)
from convexqe.models import (PLUS_INF, DownwardCut, IntCompiledFormula,
                             ModelDescriptor, PiOracle, Point, eval_formula,
                             term_value, u_member)
from convexqe.oracle import oracle_compile, oracle_truth
from convexqe.parser import parse_formula, parse_term
from convexqe.piecewise import UnaryPiecewiseLinear
from convexqe.skolemlab import verify_skolem
from convexqe.cutarith import edge_member
from convexqe.fuzz import (SAMPLE_DENOM, FuzzConfig, gen_formula, gen_point,
                           int_sample_pool, model_sample_pool, run_fuzz)
from convexqe.syntax import (Exists, disj, free_vars, is_quantifier_free,
                             print_formula)
from conftest import get_model


def assert_equiv(m, f, g, rng, n=100):
    assert is_quantifier_free(g)
    decision = oracle_compile(m, f)
    for _ in range(n):
        asgn = {v: gen_point(rng, m) for v in sorted(free_vars(f) | free_vars(g))}
        assert decision.eval_points(asgn) == eval_formula(m, g, asgn), (
            print_formula(f), print_formula(g),
            {k: str(v) for k, v in asgn.items()})


class TestStructures:
    def test_classes(self, models):
        expected = {"lex2_sub1": CutClass.SUBGROUP,
                    "lex3_sub2": CutClass.SUBGROUP,
                    "lex2_val_1inf": CutClass.COSET_CUT,
                    "lex3_val_1pi0": CutClass.IRRATIONAL_CUT,
                    "lex2_rat_11": CutClass.RATIONAL_CUT,
                    "q1_pi": CutClass.NONVALUATIONAL,
                    "q3_11pi": CutClass.NONVALUATIONAL}
        for name, cls in expected.items():
            assert build_structure(models[name]).cls is cls

    def test_coset_cut_edge_term(self, m_1inf):
        st = build_structure(m_1inf)
        assert term_value(m_1inf, st.tau, {}).coords[0] == 1

    def test_rational_threshold_term(self, m_rat):
        st = build_structure(m_rat)
        assert term_value(m_rat, st.tau, {}) == Point.of(1, 1)


def _lex(threshold, e_in, e_out, strict=True):
    """LEX(len(threshold)) with U the downward cut at threshold."""
    return ModelDescriptor(len(threshold), DownwardCut(threshold, strict),
                           Point.of(*e_in), Point.of(*e_out))


F = Fraction
# cut shapes that no fixture has, each with its class, the term naming its
# threshold or top coset, and the closed term inside it
OFF_FIXTURE_CUTS = {
    # U(t) is ~(tau < t)
    "rational-weak": (lambda: _lex((F(1), F(1)), (0, 1), (2, 0), False),
                      CutClass.RATIONAL_CUT, "1 + e_in", "e_in"),
    # tau = e_in + e_out - 1 takes a row reduction: e_out's pivot clears
    # the unit's row
    "rational-reduced": (lambda: _lex((F(1), F(1), F(1)), (0, 0, 1),
                                      (2, 1, 0)),
                         CutClass.RATIONAL_CUT, "e_in + e_out - 1", "e_in"),
    # e_in lies above the cut, so the anchor is searched for, and the
    # search stops at -1, or doubles once to -2
    "anchor-1": (lambda: _lex((F(-1), PiOracle(), F(0)), (0, 0, 1),
                              (1, 0, 0)),
                 CutClass.IRRATIONAL_CUT, None, "-1"),
    "anchor-2": (lambda: _lex((F(-3, 2), PiOracle(), F(0)), (0, 0, 1),
                              (1, 0, 0)),
                 CutClass.IRRATIONAL_CUT, None, "-2"),
    "coset": (lambda: _lex((F(-1), PLUS_INF), (0, 1), (1, 0)),
              CutClass.COSET_CUT, "-1", "-1"),
}


class TestCutsOffTheFixtures:
    """The elimination branches that only cut shapes no fixture has reach,
    differentially tested against the oracle."""

    @pytest.mark.parametrize("name", OFF_FIXTURE_CUTS)
    def test_structure(self, name):
        make, cls, tau, anchor = OFF_FIXTURE_CUTS[name]
        st = build_structure(make())
        assert st.cls is cls
        assert st.tau == (tau and parse_term(tau))
        assert st.anchor_in == parse_term(anchor)

    @pytest.mark.parametrize("name", OFF_FIXTURE_CUTS)
    def test_qe_agrees_with_the_oracle(self, name):
        m = OFF_FIXTURE_CUTS[name][0]()
        for seed in range(5):
            rep = run_fuzz(m, FuzzConfig(formulas=60, assignments=200,
                                         seed=seed))
            assert rep["checked_formulas"] == 60
            assert rep["discrepancy_count"] == 0, rep["discrepancies"][0]

    @pytest.mark.parametrize("name", OFF_FIXTURE_CUTS)
    def test_skolem_definitions_verify(self, name):
        # criterion 5's traffic: phi whose closure the oracle accepts
        m = OFF_FIXTURE_CUTS[name][0]()
        st = build_structure(m)
        rng = random.Random(f"off-fixture:{name}")
        done = 0
        while done < 150:
            phi = gen_formula(rng, ["x", "y"], 3, 0)
            if ("y" not in free_vars(phi) or not oracle_truth(
                    m, Exists("x", Exists("y", phi)), {})):
                continue
            try:
                sk = skolemize(phi, "y", st)
            except SkolemShapeUnsupportedError:
                continue
            rep = verify_skolem(m, phi, sk, samples=200, seed=done, st=st)
            assert rep.passed, (print_formula(phi), rep)
            done += 1

    @pytest.mark.parametrize("threshold, message", [
        ((F(1), F(1), PLUS_INF), "names the cut's top coset"),
        ((F(1), F(1), F(1)), "names the rational threshold point"),
    ], ids=["coset", "rational"])
    def test_unnamed_cuts_are_refused(self, threshold, message):
        # no closed term reaches the middle coordinate 1: e_in and e_out
        # are 0 there
        m = _lex(threshold, (0, 0, 1), (2, 0, 0))
        with pytest.raises(UnsupportedCutError, match=message):
            build_structure(m)


class TestEliminateOneCut:
    """qe_star of an existential over one conjunct of literals."""

    def test_subgroup_ray_into_coset(self, m_sub2):
        f = parse_formula("E y. (x < y & U(y))")
        g = qe_star(f, build_structure(m_sub2))
        assert g == parse_formula("~(-x < 0 & ~U(x))")
        # exhaustive over a small rational grid
        vals = [Point.of(a, b) for a in (-2, -1, 0, 1, 2) for b in (-1, 0, 2)]
        for x in vals:
            assert (oracle_truth(m_sub2, f, {"x": x})
                    == eval_formula(m_sub2, g, {"x": x}))

    def test_subgroup_interval_meets_coset(self, m_sub2):
        f = parse_formula("E y. (U(y) & x < y & y < z)")
        g = qe_star(f, build_structure(m_sub2))
        assert_equiv(m_sub2, f, g, random.Random(7))

    def test_coset_inside_cut_iff_representative(self, m_1pi0):
        g = qe_star(parse_formula("E y. (I(y - x) & U(y))"),
                    build_structure(m_1pi0))
        assert g == parse_formula("U(x)")

    def test_nonvaluational_refused(self, m_pi):
        st = build_structure(m_pi)
        with pytest.raises(NonvaluationalInterpretationError):
            qe_star(parse_formula("E y. (x < y & U(y))"), st)


class TestQeStar:
    def test_inside_witness_above_e_in(self, models):
        f = parse_formula("E y. (U(y) & e_in < y)")
        for name in ("lex2_sub1", "lex3_sub2", "lex2_val_1inf", "lex3_val_1pi0"):
            m = models[name]
            g = qe_star(f, build_structure(m))
            assert eval_formula(m, g, {})

    def test_witness_below_e_out(self, models):
        f = parse_formula("E y. (~U(y) & y < e_out)")
        for name in ("lex2_sub1", "lex3_sub2", "lex2_val_1inf", "lex3_val_1pi0"):
            m = models[name]
            g = qe_star(f, build_structure(m))
            assert eval_formula(m, g, {})

    def test_stabilizer_step_stays_inside(self, models):
        f = parse_formula("A x. (U(x) -> U(x + e_in))")
        for name in ("lex2_sub1", "lex3_sub2", "lex2_val_1inf", "lex3_val_1pi0"):
            m = models[name]
            g = qe_star(f, build_structure(m))
            assert eval_formula(m, g, {})

    def test_rational_cut_supported(self, m_rat):
        st = build_structure(m_rat)
        f = parse_formula("E y. (x < y & U(y))")
        g = qe_star(f, st)
        assert_equiv(m_rat, f, g, random.Random(8))

    def test_nonvaluational_pure_group_still_works(self, m_pi):
        st = build_structure(m_pi)
        g = qe_star(parse_formula("E y. x < y"), st)
        assert eval_formula(m_pi, g, {"x": Point.of(0)})

    def test_nonvaluational_cut_formula_refused(self, m_pi):
        st = build_structure(m_pi)
        with pytest.raises(NonvaluationalInterpretationError):
            qe_star(parse_formula("E y. (x < y & U(y))"), st)

    def test_differential_soundness(self, models):
        from convexqe.fuzz import gen_formula
        rng = random.Random(11)
        for name in ("lex2_sub1", "lex3_sub2", "lex2_val_1inf",
                     "lex3_val_1pi0", "lex2_rat_11"):
            m = models[name]
            st = build_structure(m)
            for _ in range(30):
                f = gen_formula(rng, ["x", "y"], 3, 2)
                g = qe_star(f, st)
                assert_equiv(m, f, g, rng, n=40)

    def test_eliminated_variable_absent(self, m_1pi0):
        st = build_structure(m_1pi0)
        g = qe_star(parse_formula("E y. (U(2 * y + x) & I(y - z))"), st)
        assert "y" not in free_vars(g)


_CELL_FIXTURES = ["lex2_sub1", "lex3_sub2", "lex2_val_1inf", "lex3_val_1pi0",
                  "lex2_rat_11"]
# {M} is U where U is the working subgroup and I otherwise.  A negated
# membership splits into above/below branches and disj stops at the first
# TRUE one, so each body carries a point bound that makes its siblings false.
_CELL_BODIES = ["x < y & y < z",
                "x < y & y < x + e_out & ~{M}(y - z)",
                "y < x & ~{M}(y - z)",
                "x < y & y < z & ~{M}(y - x) & ~{M}(y - z)",
                "{M}(y - x) & {M}(y - z)",
                "{M}(y - x) & z < y",
                "{M}(y - x) & y < z",
                "{M}(y - x) & ~{M}(y - z)"]
# the cut-ray cells, which only the irrational cut has
_RAY_BODIES = ["x < y & U(y - z)",
               "~U(y - x) & y < z",
               "~U(y - x) & y < z & ~I(y - z)",
               "x < y & ~I(y - x) & U(y - z)",
               "~U(y - x) & U(y - z)",
               "~U(y - x) & U(2 * y - z)",
               "U(x - y) & U(y - z)",
               "~U(2 * y - x) & U(y - z)",
               "I(y - x) & U(y - z)"]


def _cell_cases():
    for name in _CELL_FIXTURES:
        mem = "U" if name in ("lex2_sub1", "lex3_sub2") else "I"
        for body in _CELL_BODIES:
            yield name, body.format(M=mem)
    for body in _RAY_BODIES:
        yield "lex3_val_1pi0", body


class TestComparisonTableCells:
    """Every (class, lower, upper) pair cell and every membership cell of
    the comparison table, each of the three ray-ray endpoint comparisons
    included, decides some existential here against the oracle."""

    @pytest.mark.parametrize("name,body", list(_cell_cases()))
    def test_cell(self, models, name, body):
        m = models[name]
        f = parse_formula(f"E y. ({body})")
        assert_equiv(m, f, qe_star(f, build_structure(m)), random.Random(17),
                     n=40)


class TestSkolemize:
    @pytest.mark.parametrize("text", ["x < y & U(y)", "y + y = x", "I(x - y)"])
    def test_core_shapes_verify(self, models, text):
        phi = parse_formula(text)
        for name in ("lex2_sub1", "lex3_sub2", "lex2_val_1inf", "lex3_val_1pi0"):
            m = models[name]
            st = build_structure(m)
            sk = skolemize(phi, "y", st)
            rep = verify_skolem(m, phi, sk, samples=500, seed=13, st=st)
            assert rep.passed, (name, text, rep.failure)

    def test_divisibility_single_case(self, m_sub2):
        sk = skolemize(parse_formula("y + y = x"), "y", build_structure(m_sub2))
        assert len(sk.cases) == 1
        guard, witness = sk.cases[0]
        assert witness == parse_term("1/2 * x")

    def test_identity_witness_for_fiber(self, m_1pi0):
        sk = skolemize(parse_formula("I(x - y)"), "y", build_structure(m_1pi0))
        assert sk.cases[0][1] == parse_term("x")

    def test_unsatisfiable_gives_empty(self, m_sub2):
        sk = skolemize(parse_formula("y < y"), "y", build_structure(m_sub2))
        assert sk.cases == ()

    def test_guard_exhaustiveness(self, models):
        # the disjunction of guards must match the eliminated existential
        rng = random.Random(14)
        for name in ("lex2_sub1", "lex2_val_1inf", "lex3_val_1pi0"):
            m = models[name]
            st = build_structure(m)
            for text in ("x < y & U(y)", "U(y) & y < x", "I(y - x) & x < y"):
                phi = parse_formula(text)
                sk = skolemize(phi, "y", st)
                guards = disj(g for g, _ in sk.cases)
                ex = qe_star(Exists("y", phi), st)
                pool = int_sample_pool(m)
                ge = IntCompiledFormula(m, guards, SAMPLE_DENOM)
                ee = IntCompiledFormula(m, ex, SAMPLE_DENOM)
                for _ in range(300):
                    ints = {"x": tuple(rng.choice(pool) for _ in range(m.dim))}
                    assert ge.eval(ints) == ee.eval(ints), (name, text, ints)

    def test_witness_vocabulary(self, models):
        # witnesses mention only parameters and the designated constants
        for name in ("lex2_sub1", "lex2_val_1inf", "lex3_val_1pi0"):
            m = models[name]
            st = build_structure(m)
            phi = parse_formula("x < y & U(y) & z < y")
            sk = skolemize(phi, "y", st)
            assert sk.cases
            for guard, w in sk.cases:
                assert w.vars() <= {"x", "z"}
                assert is_quantifier_free(guard)

    def test_quantified_matrix_handled(self, m_sub2):
        st = build_structure(m_sub2)
        phi = parse_formula("x < y & E z. (y < z & U(z))")
        sk = skolemize(phi, "y", st)
        rep = verify_skolem(m_sub2, phi, sk, samples=300, seed=5, st=st)
        assert rep.passed, rep.failure

    def test_cut_band_shape_unsupported(self, m_1pi0):
        # a witness strictly between two irrational cut images cannot be a
        # guarded linear term; the synthesizer refuses rather than undercover
        st = build_structure(m_1pi0)
        with pytest.raises(SkolemShapeUnsupportedError):
            skolemize(parse_formula("U(2 * y + x) & ~U(3 * y + z)"), "y", st)

    def test_nonvaluational_refused(self, m_pi):
        with pytest.raises(NonvaluationalInterpretationError):
            skolemize(parse_formula("x < y & U(y)"), "y", build_structure(m_pi))

    @pytest.mark.parametrize("name", ["lex2_sub1", "lex3_sub2", "lex2_val_1inf",
                                      "lex3_val_1pi0", "lex2_rat_11"])
    def test_compiled_guards_select_as_eval_formula(self, models, name):
        # the first guard true under eval_formula selects the witness
        m = models[name]
        st = build_structure(m)
        rng = random.Random(f"select:{name}")
        extra = model_sample_pool(m)
        seen = set()
        done = 0
        while done < 12:
            phi = gen_formula(rng, ["x", "y", "z"], 3, 0)
            if "y" not in free_vars(phi):
                continue
            try:
                sk = skolemize(phi, "y", st)
            except ConvexQEError:
                continue
            done += 1
            choose = sk.chooser(m)
            for _ in range(15):
                asgn = {v: gen_point(rng, m, extra) for v in ("x", "z")}
                want = next((term_value(m, w, asgn) for g, w in sk.cases
                             if eval_formula(m, g, asgn)), None)
                assert choose(asgn) == want, (
                    name, print_formula(phi), asgn)
                seen.add(want is None)
        assert seen == {True, False}


class TestCheckResistance:
    def test_subgroup_closed_under_scaling(self, m_sub2):
        # the second map triples its slope beyond 1: it moves points only at
        # the breakpoint's unit scale, so the subgroup stays closed
        for f in (UnaryPiecewiseLinear.affine(3, 0),
                  UnaryPiecewiseLinear.of([1], [(1, 0), (3, -2)])):
            assert check_resistance(m_sub2, f).closed

    def test_subgroup_escapes_by_translation(self, m_sub2):
        from convexqe.syntax import Term
        f = UnaryPiecewiseLinear.affine(1, Term.eout())
        res = check_resistance(m_sub2, f)
        assert not res.closed
        assert res.witness == Point.zero(2)

    def test_pi_cut_doubling_escapes(self, m_pi):
        f = UnaryPiecewiseLinear.affine(2, 0)
        res = check_resistance(m_pi, f)
        assert not res.closed
        a = res.witness
        assert u_member(m_pi, a) and not u_member(m_pi, f.eval(m_pi, a))
        # the classical witness is valid too
        assert u_member(m_pi, Point.of(2)) and not u_member(m_pi, Point.of(4))

    def test_halving_is_closed_on_pi_cut(self, m_pi):
        res = check_resistance(m_pi, UnaryPiecewiseLinear.affine(Fraction(1, 2), 0))
        assert res.closed

    def test_piecewise_candidates(self):
        """On every fixture an escape witness escapes, and a closed result
        has no escape among sampled members: members of C within 2^-1 ...
        2^-6 of sup C and random points that probe the threshold
        entries."""
        rng = random.Random(15)
        sample_rng = random.Random(16)
        for name in ("lex2_sub1", "lex2_val_1inf", "q1_pi", "q3_11pi",
                     "lex3_val_1pi0", "lex2_rat_11", "lex3_sub2"):
            # a fresh model: oracle refinements are memoized per oracle
            # object, and the shared fixtures must not see these
            m = get_model(name)
            samples = [edge_member(m, gap=Fraction(1, 2 ** k))
                       for k in range(1, 7)]
            samples += [gen_point(sample_rng, m, model_sample_pool(m))
                        for _ in range(200)]
            members = [a for a in samples if u_member(m, a)]
            outcomes = set()
            for _ in range(15):
                f = _random_continuous_pl(rng)
                res = check_resistance(m, f)
                outcomes.add(res.closed)
                if not res.closed:
                    a = res.witness
                    assert u_member(m, a), (name, a)
                    assert not u_member(m, f.eval(m, a)), (name, a)
                else:
                    for a in members:
                        assert u_member(m, f.eval(m, a)), (name, f, a)
            assert outcomes == {True, False}, name


def _random_continuous_pl(rng, lo=-3, hi=3, allow_flat=True):
    n_breaks = rng.randint(0, 3)
    bps = sorted(rng.sample(range(lo, hi + 1), n_breaks))
    slopes = []
    for _ in range(n_breaks + 1):
        pool = [-2, -1, Fraction(-1, 2), Fraction(1, 2), 1, 2, 3]
        if allow_flat:
            pool.append(0)
        slopes.append(Fraction(rng.choice(pool)))
    pieces = [(slopes[0], Fraction(rng.randint(-2, 2)))]
    for i, b in enumerate(bps):
        s_prev, c_prev = pieces[-1]
        s_new = slopes[i + 1]
        c_new = (s_prev - s_new) * b + c_prev  # value match at the boundary
        pieces.append((s_new, c_new))
    return UnaryPiecewiseLinear.of(bps, pieces)
