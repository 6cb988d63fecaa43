import json
from fractions import Fraction

import pytest

from convexqe.errors import (ConstantPieceUnsupportedError,
                             PreconditionViolatedError)
from convexqe.models import Point
from convexqe.piecewise import (AffinePiece, BinaryPiecewiseLinear,
                                UnaryPiecewiseLinear, binary_from_json,
                                check_pluslike,
                                normalize_monotone, pluslike_from_unary,
                                unary_from_json, unary_to_json)
from convexqe.syntax import Term


class TestUnary:
    def test_eval_piecewise(self, m_sub2):
        f = UnaryPiecewiseLinear.of([0], [(-1, 0), (1, 0)])  # |x|
        assert f.eval(m_sub2, Point.of(-2, 1)) == Point.of(2, -1)
        assert f.eval(m_sub2, Point.of(3, 0)) == Point.of(3, 0)

    def test_continuity_detects_jump(self):
        f = UnaryPiecewiseLinear.of([0], [(1, 0), (1, 1)])
        assert f.continuity_defects() == [0]
        with pytest.raises(PreconditionViolatedError):
            f.require_continuous()

    def test_canonical_merges(self):
        f = UnaryPiecewiseLinear.of([0], [(1, 0), (1, 0)])
        assert f.canonical() == UnaryPiecewiseLinear.affine(1, 0)

    def test_json_round_trip(self):
        f = UnaryPiecewiseLinear.of(
            [Fraction(-1, 2), 2],
            [(1, 0), (Fraction(1, 2), Term.ein() + Term.const(Fraction(-1, 4))),
             (2, Term.eout())])
        assert unary_from_json(json.loads(json.dumps(unary_to_json(f)))) == f


class TestNormalizeMonotone:
    def test_absolute_value(self):
        g = UnaryPiecewiseLinear.of([0], [(-1, 0), (1, 0)])
        assert normalize_monotone(g) == UnaryPiecewiseLinear.affine(1, 0)

    def test_up_down_up(self):
        g = UnaryPiecewiseLinear.of([1, 2], [(1, 0), (-1, 2), (1, -2)])
        assert normalize_monotone(g) == UnaryPiecewiseLinear.affine(1, -2)

    def test_already_increasing_unchanged(self):
        g = UnaryPiecewiseLinear.of([0], [(1, 0), (2, 0)])
        assert normalize_monotone(g) == g

    def test_constant_piece_refused(self):
        g = UnaryPiecewiseLinear.of([0], [(0, 0), (1, 0)])
        with pytest.raises(ConstantPieceUnsupportedError):
            normalize_monotone(g)

    def test_decreasing_tail_refused(self):
        g = UnaryPiecewiseLinear.of([0], [(1, 0), (-1, 0)])
        with pytest.raises(PreconditionViolatedError):
            normalize_monotone(g)

    def test_output_strictly_increasing_and_continuous(self):
        import random
        rng = random.Random(21)
        for _ in range(40):
            g = _random_nonflat_pl(rng)
            h = normalize_monotone(g)
            assert h.is_strictly_increasing()

    def test_values_match_on_kept_segment(self, m_sub2):
        # to the right of the last reflection point the function is unchanged
        g = UnaryPiecewiseLinear.of([1, 2], [(1, 0), (-1, 2), (1, -2)])
        h = normalize_monotone(g)
        for q in (3, 4, Fraction(5, 2)):
            x = Point.of(q, 0)
            assert g.eval(m_sub2, x) == h.eval(m_sub2, x)


class TestBinary:
    def test_plain_addition_pluslike(self):
        assert check_pluslike(BinaryPiecewiseLinear.affine(1, 1)).pluslike

    def test_subtraction_violates_with_witness(self, m_sub2):
        f = BinaryPiecewiseLinear.affine(1, -1)
        rep = check_pluslike(f)
        assert not rep.pluslike
        (x1, y1), (x2, y2) = rep.witness
        p1 = f.eval(m_sub2, Point.of(x1, 0), Point.of(y1, 0))
        p2 = f.eval(m_sub2, Point.of(x2, 0), Point.of(y2, 0))
        assert Point.of(y1, 0).lex_lt(Point.of(y2, 0))
        assert not p1.lex_lt(p2)  # fails to increase in the second argument

    def test_positive_slopes_pluslike(self):
        assert check_pluslike(BinaryPiecewiseLinear.affine(2, 3)).pluslike

    def test_discontinuous_fan_rejected(self):
        from convexqe.piecewise import BinaryPiece
        f = BinaryPiecewiseLinear((Fraction(1), Fraction(1)), (Fraction(0),),
                                  (BinaryPiece.of(1, 1, 0), BinaryPiece.of(1, 1, 5)))
        rep = check_pluslike(f)
        assert not rep.pluslike and "discontinuous" in rep.reason

    def test_json_round_trip(self):
        """The binary file format, spelled out, reads back as the function
        it describes."""
        h = UnaryPiecewiseLinear.of([0], [(2, 0), (1, 0)])
        text = ('{"arity": 2, "direction": ["1", "1"], "thresholds": ["0"], '
                '"pieces": [{"coef_x": "2", "coef_y": "2", "intercept": "0"}, '
                '{"coef_x": "1", "coef_y": "1", "intercept": "0"}]}')
        assert binary_from_json(json.loads(text)) == pluslike_from_unary(h)


class TestPluslikeFromUnary:
    def test_identity(self, m_sub2):
        f = pluslike_from_unary(UnaryPiecewiseLinear.affine(1, 0))
        assert f == BinaryPiecewiseLinear.affine(1, 1)

    def test_doubling(self):
        f = pluslike_from_unary(UnaryPiecewiseLinear.affine(2, 0))
        assert f == BinaryPiecewiseLinear.affine(2, 2)

    def test_composition_of_normalized_absolute_value(self):
        h = normalize_monotone(UnaryPiecewiseLinear.of([0], [(-1, 0), (1, 0)]))
        f = pluslike_from_unary(h)
        assert f == BinaryPiecewiseLinear.affine(1, 1)
        assert check_pluslike(f).pluslike

    def test_composition_evaluates_as_h_of_sum(self, m_sub2):
        h = UnaryPiecewiseLinear.of([0], [(2, 0), (1, 0)])
        f = pluslike_from_unary(h)
        for x, y in [((1, 0), (2, 0)), ((-3, 1), (1, 0)), ((-1, 0), (0, 5))]:
            xp, yp = Point.of(*x), Point.of(*y)
            assert f.eval(m_sub2, xp, yp) == h.eval(m_sub2, xp + yp)

    def test_requires_increasing(self):
        with pytest.raises(PreconditionViolatedError):
            pluslike_from_unary(UnaryPiecewiseLinear.affine(-1, 0))


def _random_nonflat_pl(rng):
    n = rng.randint(0, 3)
    bps = sorted(rng.sample(range(-4, 5), n))
    slopes = [Fraction(rng.choice([-2, -1, 1, 2, 3]))
              for _ in range(n)] + [Fraction(rng.choice([1, 2]))]
    pieces = [(slopes[0], Fraction(rng.randint(-2, 2)))]
    for i, b in enumerate(bps):
        s_prev, c_prev = pieces[-1]
        s_new = slopes[i + 1]
        pieces.append((s_new, (s_prev - s_new) * b + c_prev))
    return UnaryPiecewiseLinear.of(bps, pieces)
