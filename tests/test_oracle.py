import random

from convexqe.cutqe import build_structure, qe_star
from convexqe.models import Point, eval_formula
from convexqe.oracle import oracle_compile, oracle_truth
from convexqe.parser import parse_formula
from convexqe.fuzz import gen_formula, gen_point
from convexqe.syntax import free_vars, is_quantifier_free
from convexqe.normalform import normalize_atoms


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
                if not is_quantifier_free(normalize_atoms(f)):
                    continue
                for _ in range(15):
                    asgn = {v: gen_point(rng, m) for v in free_vars(f)}
                    assert (oracle_truth(m, f, asgn)
                            == eval_formula(m, f, asgn)), (m.describe(), str(f))


class TestOracleScale:
    def test_deep_decomposition_compiles(self, m_1pi0):
        # its coordinate decomposition nests deeper than the recursion limit
        # allowed while the oracle's boolean trees were binary
        f = parse_formula("E y. ~-1*z + -2*y + -1*e_in < 0 & "
                          "~U(3*y + 2*x + 3/2*z) & ~-3*y < 0 & "
                          "~U(1*y + -3*x + 2)")
        dec = oracle_compile(m_1pi0, f)
        out = qe_star(f, build_structure(m_1pi0))
        rng = random.Random(4)
        for _ in range(40):
            asgn = {v: gen_point(rng, m_1pi0) for v in ("x", "z")}
            assert dec.eval(asgn) == eval_formula(m_1pi0, out, asgn)
