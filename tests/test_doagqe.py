"""The pure ordered-group language (no U/I atoms), eliminated by the one
engine in cutqe under the empty-vocabulary structure PURE_GROUP."""

import random

import pytest

from convexqe.cutqe import PURE_GROUP, build_structure, qe, qe_star
from convexqe.doagqe import QeOptions
from convexqe.models import eval_formula
from convexqe.oracle import oracle_compile, oracle_truth
from convexqe.parser import parse_formula
from convexqe.fuzz import gen_formula, gen_point
from convexqe.syntax import (FalseF, TrueF, free_vars, is_quantifier_free,
                             mentions_membership, print_formula)


def eliminate_one(text: str):
    """E v. over one conjunct of literals, run by the engine itself (qe
    checks the vocabulary before the engine sees the formula)."""
    return qe_star(parse_formula(f"E v. ({text})"), PURE_GROUP)


def assert_equiv(m, f, g, var_names, rng, n=80):
    decision = oracle_compile(m, f)
    for _ in range(n):
        asgn = {v: gen_point(rng, m) for v in var_names}
        assert decision.eval_points(asgn) == eval_formula(m, g, asgn), (
            print_formula(f), print_formula(g), asgn)


class TestEliminateOne:
    def test_dense_interval(self):
        g = eliminate_one("a < v & v < b")
        assert g == parse_formula("a - b < 0")

    def test_divisibility(self):
        g = eliminate_one("v + v = x")
        assert isinstance(g, TrueF)

    def test_disequality_discharged(self, m_sub2):
        f = parse_formula("E v. (a < v & v < b & v != c)")
        g = eliminate_one("a < v & v < b & v != c")
        assert g == parse_formula("a - b < 0")
        assert_equiv(m_sub2, f, g, ["a", "b", "c"], random.Random(1))

    def test_pinned_equality_substituted(self):
        g = eliminate_one("v + v = x & v < b")
        assert g == parse_formula("1/2 * x - b < 0")

    def test_variable_hygiene(self):
        g = eliminate_one("a < v & v < b & c < d")
        assert "v" not in free_vars(g)

    def test_membership_atoms_rejected(self):
        with pytest.raises(ValueError):
            eliminate_one("U(v)")


class TestQe:
    def test_no_upper_endpoint(self):
        assert isinstance(qe(parse_formula("A x. E y. x < y")), TrueF)

    def test_irreflexivity(self):
        assert isinstance(qe(parse_formula("E y. (x < y & y < x)")), FalseF)

    def test_scaled_bounds(self, m_sub2):
        f = parse_formula("E y. (x < y + y & y + y < z)")
        g = qe(f)
        assert is_quantifier_free(g)
        assert_equiv(m_sub2, f, g, ["x", "z"], random.Random(2))

    def test_nonstrict_bounds(self, m_sub2):
        f = parse_formula("E v. (a <= v & v <= b)")
        g = qe(f)
        assert_equiv(m_sub2, f, g, ["a", "b"], random.Random(3))

    def test_universal_dualization(self, m_sub2):
        f = parse_formula("A v. (v < a -> v < b)")
        g = qe(f)
        assert_equiv(m_sub2, f, g, ["a", "b"], random.Random(4))

    def test_rejects_membership(self, m_sub2):
        with pytest.raises(ValueError):
            qe(parse_formula("E y. U(y)"))

    def test_idempotent_pointwise(self, m_sub2):
        rng = random.Random(5)
        for _ in range(20):
            f = gen_formula(rng, ["x", "y"], 3, 2)
            if mentions_membership(f):
                continue
            g = qe(f)
            g2 = qe(g)
            for _ in range(10):
                asgn = {v: gen_point(rng, m_sub2) for v in free_vars(f)}
                assert (eval_formula(m_sub2, g, asgn)
                        == eval_formula(m_sub2, g2, asgn))

    def test_differential_soundness(self, models):
        rng = random.Random(6)
        for name in ("lex2_sub1", "q3_11pi"):
            m = models[name]
            done = 0
            while done < 25:
                f = gen_formula(rng, ["x", "y"], 3, 2)
                if mentions_membership(f):
                    continue
                g = qe(f)
                assert is_quantifier_free(g)
                assert_equiv(m, f, g, sorted(free_vars(f)), rng, n=25)
                done += 1

    def test_injected_bug_changes_output(self, models):
        # one hook serves every class that runs the point cells: the pure
        # group, a rational cut, and U/I-free input over a nonvaluational cut
        f = parse_formula("E y. (x < y & y < z)")
        bug = QeOptions(inject_bug=True)
        assert qe(f) != qe(f, bug)
        for name in ("lex2_rat_11", "q3_11pi"):
            m = models[name]
            st = build_structure(m)
            good, bad = qe_star(f, st), qe_star(f, st, bug)
            assert good == parse_formula("x - z < 0") and bad != good
            rng = random.Random(7)
            points = [{v: gen_point(rng, m) for v in ("x", "z")}
                      for _ in range(40)]
            assert any(eval_formula(m, bad, p) != oracle_truth(m, f, p)
                       for p in points)
        st = build_structure(models["lex2_rat_11"])
        g = parse_formula("E y. (x < y & U(y))")
        assert qe_star(g, st) != qe_star(g, st, bug)
