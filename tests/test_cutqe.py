import random
import time
from fractions import Fraction

import pytest

from convexqe import cutqe
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


# ground literals, each with its truth value; the engine folds one where it
# reads the atom, so no DNF clause it builds holds one
_GROUND = [("1 < 0", False), ("x - x < 0", False), ("0 = 0", True),
           ("I(0)", True), ("e_in - e_in = 0", True)]
_GROUND_BODIES = ["x < y & {}", "U(y - x) | {}", "I(y - z) & y != x & {}",
                  "{} -> y <= x"]
_ELIMINABLE = ["lex2_sub1", "lex3_sub2", "lex2_val_1inf", "lex3_val_1pi0",
               "lex2_rat_11"]


class TestGroundAtoms:
    """A body's ground literal acts as its truth value: qe_star, under E
    and A, and skolemize give what they give with true or false in its
    place, and the answers agree with the oracle.  A subgroup reads I(0)
    as U(0), which is kept, as 0 need not lie in a cut."""

    @pytest.mark.parametrize("name", _ELIMINABLE)
    def test_folded_as_their_truth_value(self, models, name):
        m = models[name]
        st = build_structure(m)
        rng = random.Random(f"ground:{name}")
        for ground, truth in _GROUND:
            folded = ground != "I(0)" or st.cls is not CutClass.SUBGROUP
            for negated in (False, True):
                lit = f"~({ground})" if negated else f"({ground})"
                value = "true" if truth != negated else "false"
                for body in _GROUND_BODIES:
                    for q in "EA":
                        f = parse_formula(f"{q} y. ({body.format(lit)})")
                        out = qe_star(f, st)
                        if folded:
                            assert out == qe_star(parse_formula(
                                f"{q} y. ({body.format(value)})"), st)
                        assert_equiv(m, f, out, rng, n=8)
                    phi = parse_formula(body.format(lit))
                    sk = skolemize(phi, "y", st)
                    if folded:
                        assert sk == skolemize(
                            parse_formula(body.format(value)), "y", st)
                    rep = verify_skolem(m, phi, sk, samples=40, seed=3, st=st)
                    assert rep.passed, (body, lit, rep.failure)


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


def _alternation(levels: int) -> str:
    """x < 0 wrapped in (x < k & ...) and (k < x | ...) alternately."""
    text = "x < 0"
    for k in range(1, levels + 1):
        text = f"(x < {k} & {text})" if k % 2 else f"({k} < x | {text})"
    return text


class TestCellsBuiltOnce:
    """Branches of one clause, and clauses of one body, share their bounds;
    one elimination or one Skolem synthesis builds each distinct cell of
    the comparison table once, and keeps none past its call."""

    @staticmethod
    def _record(monkeypatch) -> tuple[list, list]:
        """The cells each _eliminate call builds, one list per call after
        the first list, which takes the cells built outside any
        elimination; and a one-item count of the cells asked for."""
        calls: list = [[]]
        cell, eliminate, at = cutqe._cell, cutqe._eliminate, cutqe._at
        hits = [0]

        def counted_cell(st, kind, val, w):
            calls[-1].append((kind, val, w))
            return cell(st, kind, val, w)

        def counted_eliminate(*args):
            calls.append([])
            return eliminate(*args)

        def counted_at(*args):
            hits[0] += 1
            return at(*args)

        monkeypatch.setattr(cutqe, "_cell", counted_cell)
        monkeypatch.setattr(cutqe, "_eliminate", counted_eliminate)
        monkeypatch.setattr(cutqe, "_at", counted_at)
        return calls, hits

    # literals on y whose bounds the clauses of a DNF share
    LITERALS = ["x < y", "y < z", "y < x + 1", "z - e_in < y", "y = x + 1/2",
                "~(y = z)", "U(y - x)", "~U(y - z)", "I(y - x)", "~I(y + z)",
                "U(2 * y - x)", "~U(y + e_in)"]

    def _body(self, rng) -> str:
        """A conjunction of two to four disjunctions of literals."""
        return " & ".join(
            "(" + " | ".join(rng.sample(self.LITERALS, rng.randint(1, 3)))
            + ")" for _ in range(rng.randint(2, 4)))

    @pytest.mark.parametrize("name", _CELL_FIXTURES)
    def test_each_elimination_builds_a_cell_once(self, monkeypatch, models,
                                                 name):
        st = build_structure(models[name])
        rng = random.Random(f"cells:{name}")
        calls, hits = self._record(monkeypatch)
        for i in range(30):
            # every third input nests one elimination in another
            body = f"E y. ({self._body(rng)})"
            f = parse_formula(body if i % 3 else f"E z. (x < z & {body})")
            qe_star(f, st)
        built = [cells for cells in calls[1:] if cells]
        assert not calls[0] and len(built) >= 20
        for cells in built:
            assert len(cells) == len(set(cells))
        # the dict pays: more cells are asked for than built
        assert hits[0] > sum(map(len, built))

    @pytest.mark.parametrize("name", _CELL_FIXTURES)
    def test_each_synthesis_builds_a_guard_cell_once(self, monkeypatch,
                                                     models, name):
        st = build_structure(models[name])
        calls, hits = self._record(monkeypatch)
        phi = parse_formula("(x < y | z < y) & (y < x + 1 | y < z + 2) & "
                            "~(y = x + 1/2) & (U(y - x) | ~U(y - z))")
        sk = skolemize(phi, "y", st)
        (cells,) = calls  # phi is quantifier-free: no elimination runs
        assert sk.cases and len(cells) == len(set(cells))
        assert hits[0] > len(cells)

    def test_no_cell_outlives_its_call(self, models):
        # the same input over structures whose working vocabularies differ,
        # in turn, answers as on fresh structures, and each answer agrees
        # with the oracle, which no leaked cell can reach: the first two
        # inputs ask for the same cell keys, built from U atoms on the
        # subgroups and from I atoms on the other valuational fixtures
        texts = ["E y. (I(y - x) & ~I(y - z) & x < y)",
                 "I(y - x) & ~I(y - z) & z < y",
                 "E y. (x < y & U(y - x) & ~I(y - z) & y < z)",
                 "E y. (I(y - x) | ~U(y + x)) & A z. (z < y | U(z - x))",
                 "x < y & ~U(y - x) & (z < y | I(y + z))"]
        order = ["lex2_sub1", "lex2_rat_11", "lex2_val_1inf", "lex2_sub1",
                 "lex3_val_1pi0", "lex2_rat_11"]
        for text in texts:
            f = parse_formula(text)
            for name in order:
                m = models[name]
                st, fresh = build_structure(m), build_structure(get_model(name))
                if is_quantifier_free(f):
                    sk = skolemize(f, "y", st)
                    assert sk == skolemize(f, "y", fresh), (name, text)
                    rep = verify_skolem(m, f, sk, samples=200, seed=3, st=st)
                    assert rep.passed, (name, text, rep.failure)
                else:
                    out = qe_star(f, st)
                    assert out == qe_star(f, fresh), (name, text)
                    assert_equiv(m, f, out, random.Random(name), n=60)


class TestDeepSkolemize:
    """skolemize over the deep (x < k & ...)/(k < x | ...) alternation
    over lex2_sub1 (target x): its cases grow about cubically with the
    depth, and its guards share their cells."""

    @pytest.mark.parametrize("levels, cases", [(25, 116), (50, 375),
                                               (100, 1375)])
    def test_case_counts(self, m_sub2, levels, cases):
        phi = parse_formula(_alternation(levels))
        sk = skolemize(phi, "x", build_structure(m_sub2))
        assert len(sk.cases) == cases

    def test_hundred_levels_in_bounded_time(self, m_sub2):
        # about 0.15 s with the cells kept per call and 0.5 s without them
        # (Python 3.11, one core); the bound only catches a gross
        # regression on a slow runner
        phi = parse_formula(_alternation(100))
        st = build_structure(m_sub2)
        start = time.perf_counter()
        skolemize(phi, "x", st)
        assert time.perf_counter() - start < 5.0


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
