import itertools
import math
import random
from fractions import Fraction

import pytest

from convexqe.classifier import (IRRATIONAL_NONVALUATIONAL,
                                 IRRATIONAL_VALUATIONAL, RATIONAL_CUT,
                                 canonical_member, canonicalize_cut, classify,
                                 f_valuational, stabilizer, stabilizer_escape)
from convexqe.cutarith import simplest_between
from convexqe.errors import (NonvaluationalInterpretationError,
                             PreconditionViolatedError)
from convexqe.models import (DownwardCut, IrrationalOracle, ModelDescriptor,
                             PLUS_INF, Point, SqrtOracle,
                             SubgroupLevel, closure_member, u_member)
from convexqe.piecewise import (BinaryPiece, BinaryPiecewiseLinear,
                                UnaryPiecewiseLinear, pluslike_from_unary)
from convexqe.fuzz import gen_point

from conftest import get_model, random_cut_model


class TestClassify:
    def test_fixture_kinds(self, models):
        assert classify(models["q1_pi"]).cut_kind == IRRATIONAL_NONVALUATIONAL
        assert classify(models["q3_11pi"]).cut_kind == IRRATIONAL_NONVALUATIONAL
        r = classify(models["lex2_val_1inf"])
        assert r.cut_kind == IRRATIONAL_VALUATIONAL
        assert r.epsilon_witness == Point.of(0, 1)
        assert classify(models["lex2_rat_11"]).cut_kind == RATIONAL_CUT

    def test_oracle_before_last_coordinate_is_valuational(self, m_1pi0):
        r = classify(m_1pi0)
        assert r.cut_kind == IRRATIONAL_VALUATIONAL
        assert r.epsilon_witness == Point.of(0, 0, 1)
        assert r.stabilizer_level == 2

    def test_subgroup_classifies_via_closure(self, m_sub3):
        r = classify(m_sub3)
        assert r.cut_kind == IRRATIONAL_VALUATIONAL
        assert r.epsilon_witness == Point.of(0, 0, 1)

    def test_report_invariants(self, models):
        for m in models.values():
            r = classify(m)
            assert (r.epsilon_witness is not None) == (
                r.cut_kind == IRRATIONAL_VALUATIONAL)
            assert (r.falsifier is not None) == (
                r.cut_kind == IRRATIONAL_NONVALUATIONAL)
            assert r.uniquely_realizable == (
                r.cut_kind == IRRATIONAL_NONVALUATIONAL)
            assert (r.stabilizer_level < m.dim) == (
                r.cut_kind == IRRATIONAL_VALUATIONAL)

    def test_epsilon_witness_stabilizes_sampled(self, models):
        rng = random.Random(31)
        for m in models.values():
            r = classify(m)
            if r.epsilon_witness is None:
                continue
            eps = r.epsilon_witness
            assert eps.lex_sign() > 0
            for _ in range(80):
                a = gen_point(rng, m)
                if closure_member(m, a):
                    assert closure_member(m, a + eps), (m.describe(), a)

    def test_falsifier_outputs_verify(self, models):
        for name in ("q1_pi", "q3_11pi"):
            m = models[name]
            r = classify(m)
            for eps in (Point.unit(m.dim, m.dim - 1),
                        Point.unit(m.dim, m.dim - 1).scale(Fraction(1, 7)),
                        Point.unit(m.dim, 0).scale(Fraction(2, 3))):
                a = r.falsifier(eps)
                assert u_member(m, a) and not u_member(m, a + eps)

    def test_falsifier_for_a_tiny_bump(self):
        # sqrt(2) = [1; 2, 2, ...] has a continued-fraction term per bit or
        # so, and the falsifier squeezes the cut below eps: thousands of
        # terms, more than the recursion limit; pi needs its series to
        # thousands of terms (a fresh model: refinements are kept)
        m_sqrt2 = ModelDescriptor(1, DownwardCut((SqrtOracle(2),)),
                                  Point.of(Fraction(1, 2)), Point.of(2))
        for m, bits in ((m_sqrt2, 3000), (get_model("q1_pi"), 6000)):
            eps = Point.of(Fraction(1, 2 ** bits))
            # 6,002 bits of pi are past the default budget of 4,096
            a = classify(m).falsifier(eps, budget=8192)
            assert u_member(m, a, 8192) and not u_member(m, a + eps, 8192)


class TestSimplestBetween:
    @staticmethod
    def _brute(lo: Fraction, hi: Fraction) -> Fraction:
        """The least denominator, then the least absolute numerator, of a
        rational strictly between lo and hi."""
        for d in itertools.count(1):
            ns = [n for n in range(math.floor(lo * d), math.ceil(hi * d) + 1)
                  if lo < Fraction(n, d) < hi]
            if ns:
                return Fraction(min(ns, key=abs), d)

    def test_smallest_denominator_on_small_intervals(self):
        ends = sorted({Fraction(n, d) for d in range(1, 7)
                       for n in range(-13, 14)})
        for lo, hi in itertools.combinations(ends, 2):
            assert simplest_between(lo, hi) == self._brute(lo, hi), (lo, hi)


class TestStabilizer:
    def test_known_levels(self, models):
        assert stabilizer(models["q3_11pi"]) == 3
        assert stabilizer(models["lex3_val_1pi0"]) == 2
        assert stabilizer(models["lex2_val_1inf"]) == 1
        assert stabilizer(models["lex2_sub1"]) == 1
        assert stabilizer(models["lex3_sub2"]) == 2
        assert stabilizer(models["lex2_rat_11"]) == 2

    def test_escapes_and_invariance(self, models):
        rng = random.Random(32)
        for m in models.values():
            k = stabilizer(m)
            for i in range(m.dim):
                esc = stabilizer_escape(m, i)
                if i < k:
                    a, b = esc
                    assert closure_member(m, a) and not closure_member(m, b)
                else:
                    assert esc is None
            # sampled: stabilizer members stabilize
            if k < m.dim:
                eps = Point.unit(m.dim, k)
                for _ in range(40):
                    a = gen_point(rng, m)
                    if closure_member(m, a):
                        assert closure_member(m, a + eps)

    def test_agrees_with_classify(self, models):
        for m in models.values():
            val = classify(m).cut_kind == IRRATIONAL_VALUATIONAL
            assert (stabilizer(m) < m.dim) == val
            _check_shape(m)


class TestFValuational:
    def test_plain_addition_matches_valuationality(self, models):
        add = BinaryPiecewiseLinear.affine(1, 1)
        for m in models.values():
            res = f_valuational(m, add)
            expected = classify(m).cut_kind == IRRATIONAL_VALUATIONAL
            assert res.valuational == expected, m.describe()

    def test_coset_cut_witness(self, m_1inf):
        res = f_valuational(m_1inf, BinaryPiecewiseLinear.affine(1, 1))
        assert res.valuational and res.epsilon == Point.of(0, 1)

    def test_archimedean_cut_falsifier(self, m_pi):
        res = f_valuational(m_pi, BinaryPiecewiseLinear.affine(1, 1))
        assert not res.valuational
        for eps in (Point.of(Fraction(1, 2)), Point.of(3)):
            a = res.falsifier(eps)
            assert u_member(m_pi, a) and not u_member(m_pi, a + eps)

    def test_scaling_map_is_not_translation_like(self, m_1inf):
        # 2x + 3y strictly increases in both arguments, yet already
        # a = (1, 0) lands at first coordinate 2 > 1 for every eps > 0,
        # so no eps witnesses absorption; the falsifier must certify that
        f = BinaryPiecewiseLinear.affine(2, 3)
        res = f_valuational(m_1inf, f)
        assert not res.valuational
        for eps in (Point.of(0, 1), Point.of(1, 0), Point.of(Fraction(1, 7), 3)):
            a = res.falsifier(eps)
            val = a.scale(2) + eps.scale(3)
            assert u_member(m_1inf, a) and not u_member(m_1inf, val)

    def test_falsifier_reaches_closed_cell_end(self):
        # dx < 0 closes cell 0 at its lower end a = 4 = sup C, the only
        # member that escapes for these eps
        m = ModelDescriptor(1, DownwardCut((Fraction(4),), False),
                            Point.of(Fraction(1, 2)), Point.of(6))
        f = BinaryPiecewiseLinear(
            (Fraction(-1), Fraction(2)), (Fraction(-1), Fraction(0)),
            (BinaryPiece.of(2, 3, -1), BinaryPiece.of(3, 1, -2),
             BinaryPiece.of(3, 1, -2)))
        res = f_valuational(m, f)
        assert not res.valuational
        for e, image in ((Fraction(3, 2), Fraction(23, 2)), (2, 12)):
            eps = Point.of(e)
            a = res.falsifier(eps)
            assert a == Point.of(4)
            assert u_member(m, a) and f.eval(m, a, eps) == Point.of(image)
            assert not u_member(m, f.eval(m, a, eps))

    def test_translation_family_agrees_with_classify(self, models):
        rng = random.Random(33)
        for m in models.values():
            flag = classify(m).cut_kind == IRRATIONAL_VALUATIONAL
            for _ in range(8):
                b = Fraction(rng.choice([1, 2, 3])) / rng.choice([1, 2])
                f = BinaryPiecewiseLinear.affine(1, b)
                assert f_valuational(m, f).valuational == flag
            for _ in range(8):
                h = _identity_tail_pl(rng)
                assert f_valuational(m, pluslike_from_unary(h)).valuational == flag

    def test_not_pluslike_rejected(self, m_1inf):
        with pytest.raises(PreconditionViolatedError):
            f_valuational(m_1inf, BinaryPiecewiseLinear.affine(1, -1))


class TestCanonicalize:
    def test_negative_coset_cut_reflects(self):
        m = ModelDescriptor(2, DownwardCut((Fraction(-1), PLUS_INF)),
                            Point.of(0, 1), Point.of(2, 0))
        c = canonicalize_cut(m)
        assert c.reflected and c.edge_included is False
        assert c.edge_rep == Point.of(1, 0)
        # V = {a : -a outside U and a outside -U} = {|a1| < 1}
        for p, expect in [(Point.of(0, 5), True), (Point.of(Fraction(1, 2), -3), True),
                          (Point.of(1, 0), False), (Point.of(-1, 4), False),
                          (Point.of(2, 0), False)]:
            assert canonical_member(m, c, p) == expect, p

    def test_positive_coset_cut_symmetrizes(self, m_1inf):
        c = canonicalize_cut(m_1inf)
        assert not c.reflected and c.edge_included is True
        assert c.edge_rep == Point.of(1, 0)
        for p, expect in [(Point.of(1, 7), True), (Point.of(-1, 7), True),
                          (Point.of(Fraction(3, 2), 0), False), (Point.of(0, 0), True)]:
            assert canonical_member(m_1inf, c, p) == expect, p

    def test_subgroup_is_identity(self, m_sub2):
        c = canonicalize_cut(m_sub2)
        assert not c.reflected and c.shift == Point.zero(2)
        for p in (Point.of(0, 3), Point.of(0, -5)):
            assert canonical_member(m_sub2, c, p)
        assert not canonical_member(m_sub2, c, Point.of(1, 0))

    def test_irrational_flavor_membership(self, m_1pi0):
        c = canonicalize_cut(m_1pi0)
        assert c.oracle_edge == "pi"
        # V = {a : |a-bar| below (1, pi)}
        for p, expect in [(Point.of(1, 3, 0), True), (Point.of(-1, -3, 9), True),
                          (Point.of(1, 4, 0), False), (Point.of(-2, 0, 0), False)]:
            assert canonical_member(m_1pi0, c, p) == expect, p

    def test_symmetry_sampled(self, models):
        rng = random.Random(34)
        for name in ("lex2_val_1inf", "lex3_val_1pi0", "lex2_sub1"):
            m = models[name]
            c = canonicalize_cut(m)
            for _ in range(60):
                p = gen_point(rng, m)
                assert canonical_member(m, c, p) == canonical_member(m, c, -p)

    def test_rational_and_nonvaluational_rejected(self, m_rat, m_pi):
        with pytest.raises(NonvaluationalInterpretationError):
            canonicalize_cut(m_rat)
        with pytest.raises(NonvaluationalInterpretationError):
            canonicalize_cut(m_pi)


class TestRandomThresholdCrossCheck:
    def test_fifty_random_thresholds(self):
        rng = random.Random(35)
        built = 0
        while built < 50:
            m = random_cut_model(rng)
            if m is None:
                continue
            built += 1
            val = classify(m).cut_kind == IRRATIONAL_VALUATIONAL
            assert (stabilizer(m) < m.dim) == val, m.describe()
            _check_shape(m)


def _check_shape(m):
    """m.cut against the independent stabilizer and the threshold entries:
    the prefix is its leading rationals, the oracle its irrational entry."""
    assert m.cut.stabilizer == stabilizer(m), m.describe()
    if isinstance(m.u_interp, SubgroupLevel):
        assert (m.cut.prefix, m.cut.oracle) == ((), None)
        return
    t = m.u_interp.threshold
    n = len(m.cut.prefix)
    assert m.cut.prefix == t[:n], m.describe()
    assert all(isinstance(e, Fraction) for e in t[:n])
    assert n == m.dim or not isinstance(t[n], Fraction)
    irrational = [e for e in t if isinstance(e, IrrationalOracle)]
    assert m.cut.oracle is (irrational[0] if irrational else None)


def _identity_tail_pl(rng):
    """Strictly increasing PL whose final piece is the identity and whose
    breakpoints sit below every fixture cut region."""
    n = rng.randint(0, 2)
    bps = sorted(rng.sample(range(-6, -1), n)) if n else []
    slopes = [Fraction(rng.choice([1, 2, 3, Fraction(1, 2)])) for _ in range(n)]
    slopes.append(Fraction(1))
    pieces = []
    # build from the right: identity tail, value-matched going left
    consts = [Fraction(0)]
    for i in range(n - 1, -1, -1):
        b = bps[i]
        s_right, c_right = slopes[i + 1], consts[0]
        c_left = (s_right - slopes[i]) * b + c_right
        consts.insert(0, c_left)
    for s, c in zip(slopes, consts):
        pieces.append((s, c))
    return UnaryPiecewiseLinear.of(bps, pieces)
