"""Witnesses by construction: ``cutarith.edge_member`` and ``edge_gap``, the
regression inputs that once hung or raised in the witness searches, and a
derandomized property test of resistance and the Skolem obstruction."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import convexqe
from convexqe.classifier import f_valuational
from convexqe.cutarith import edge_gap, edge_member, edge_sign
from convexqe.cutqe import check_resistance
from convexqe.errors import PrecisionBudgetError, SearchExhaustedError
from convexqe.fuzz import gen_point, model_sample_pool
from convexqe.models import (DownwardCut, ModelDescriptor, PiOracle, Point,
                             SqrtOracle, closure_member, u_member)
from convexqe.piecewise import (BinaryPiece, BinaryPiecewiseLinear,
                                UnaryPiecewiseLinear)
from convexqe.skolemlab import obstruction_find

from conftest import FIXTURE_NAMES, NONVALUATIONAL_NAMES, fixture_path, get_model

GAPS = [Fraction(1, 2 ** k) for k in (1, 2, 5, 20, 200)]


def _deciding_unit(m: ModelDescriptor) -> Point:
    return Point.unit(m.dim, m.cut.stabilizer - 1)


class TestEdgeMember:
    def test_members_within_the_gap(self):
        """On every fixture: a member of C above lo whose step by the gap
        at the deciding coordinate leaves C."""
        rng = random.Random(5)
        for name in FIXTURE_NAMES:
            m = get_model(name)
            e = _deciding_unit(m)
            los = [None] + [p for p in (gen_point(rng, m, model_sample_pool(m))
                                        for _ in range(30))
                            if u_member(m, p)]
            los += [edge_member(m, gap=Fraction(1, 8))]
            for lo in los:
                for gap in GAPS:
                    a = edge_member(m, lo, gap)
                    assert u_member(m, a), (name, lo, gap)
                    assert lo is None or lo.lex_lt(a), (name, lo, gap)
                    assert not closure_member(m, a + e.scale(gap)), (name, gap)

    def test_gap_on_a_fresh_bracket(self):
        """With nothing refined before, the one refinement is as coarse as
        the gap allows, and the member still lies within the gap."""
        for oracle in (PiOracle, lambda: SqrtOracle(2), lambda: SqrtOracle(5)):
            for k in range(1, 120):
                m = ModelDescriptor(1, DownwardCut((oracle(),)),
                                    Point.of(Fraction(1, 2)), Point.of(4))
                gap = Fraction(1, 2 ** k)
                a = edge_member(m, gap=gap)
                assert u_member(m, a) and not u_member(m, a + Point.of(gap)), k

    def test_nothing_above_a_closed_edge(self):
        m = ModelDescriptor(1, DownwardCut((Fraction(4),), False),
                            Point.of(Fraction(1, 2)), Point.of(6))
        (a,) = edge_member(m, Point.of(3), Fraction(1, 8)).coords
        assert 4 - Fraction(1, 8) < a < 4
        with pytest.raises(SearchExhaustedError):
            edge_member(m, Point.of(4))
        with pytest.raises(SearchExhaustedError):
            edge_member(get_model("q1_pi"), Point.of(4))


    def test_gap_past_the_budget_refines_nothing(self):
        """A gap that needs more bits than the budget is refused before
        the one refinement; within the budget the member is found."""
        for bits, budget in ((4095, 4096), (300, 256), (5000, 4096)):
            m = ModelDescriptor(1, DownwardCut((PiOracle(),)),
                                Point.of(Fraction(1, 2)), Point.of(4))
            gap = Fraction(1, 2 ** bits)
            with pytest.raises(PrecisionBudgetError):
                edge_member(m, gap=gap, budget=budget)
            assert m.cut.oracle.refine(16) == PiOracle().refine(16)
            a = edge_member(m, gap=gap, budget=bits + 2)
            assert u_member(m, a, bits + 2)
            assert not u_member(m, a + Point.of(gap), bits + 2)


class TestEdgeGap:
    def test_bound_below_the_value(self):
        """A positive bound on |(q-1)*g + c| whenever the value is decided
        at the deciding coordinate, and None otherwise."""
        rng = random.Random(6)
        qs = [Fraction(n, d) for n in range(-3, 5) for d in (1, 2, 3)]
        for name in FIXTURE_NAMES:
            m = get_model(name)
            k = m.cut.stabilizer
            for _ in range(60):
                q = rng.choice(qs)
                c = gen_point(rng, m, model_sample_pool(m))
                h = edge_gap(m, q, c)
                if edge_sign(m, q, c) == 0:
                    assert h is None
                    continue
                s = edge_sign(m, q, c)
                e = Point.unit(m.dim, k - 1)
                if h is None:  # no move at the deciding coordinate matters
                    for x in (10 ** 6, -10 ** 6):
                        assert edge_sign(m, q, c + e.scale(x)) == s, (name, q, c)
                    continue
                # moving c by h toward 0 at the deciding coordinate reaches
                # 0 when the value is rational there, and keeps the sign
                # when it is irrational (decided on a fresh model: the move
                # ends on an end of m's bracket)
                assert h > 0
                exact = m.cut.oracle is None or q == 1
                moved = edge_sign(get_model(name), q, c - e.scale(s * h))
                assert moved == (0 if exact else s), (name, q, c)


class TestSizedWitnesses:
    """Witnesses whose distance to the edge is set by a value's size."""

    def test_obstruction_near_a_fixed_point(self):
        # f = q*x + (1-q)*r fixes r, within 2^-k of pi from either side, so
        # a witness must lie between r and the edge
        m = get_model("q1_pi")
        lo, hi = PiOracle().refine(400)
        for k in range(4, 400, 9):
            for r in (lo - Fraction(1, 2 ** k), hi + Fraction(1, 2 ** k)):
                for q in (Fraction(1, 2), Fraction(2), Fraction(-1)):
                    f = UnaryPiecewiseLinear.affine(q, (1 - q) * r)
                    w = obstruction_find(m, f)
                    a, fa = w.point, f.eval(m, w.point)
                    assert u_member(m, a), (k, r, q)
                    if w.violation == "not-increasing":
                        assert not a.lex_lt(fa), (k, r, q)
                    else:
                        assert not u_member(m, fa), (k, r, q)

    def test_epsilon_keeps_the_top_cell(self):
        # the boundary x + eps = 22/7 lies just above pi; an eps past
        # 22/7 - pi moves it below pi, into a cell that maps pi out of C
        m = get_model("q1_pi")
        t = Fraction(22, 7)
        f = BinaryPiecewiseLinear(
            (Fraction(1), Fraction(1)), (t,),
            (BinaryPiece.of(Fraction(1, 2), Fraction(1, 2), 0),
             BinaryPiece.of(Fraction(5, 2), Fraction(5, 2), -2 * t)))
        res = f_valuational(m, f)
        assert res.valuational
        eps = res.epsilon
        for k in range(1, 40):
            a = edge_member(m, gap=Fraction(1, 2 ** k))
            assert u_member(m, f.eval(m, a, eps)), k


class TestRegressions:
    @staticmethod
    def _obstruct(tmp_path, intercept: str):
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps({"breakpoints": [], "pieces": [
            {"slope": "1", "intercept": intercept}]}))
        code = ("import sys; from convexqe.cli import main; "
                "sys.exit(main(sys.argv[1:]))")
        src = os.path.dirname(os.path.dirname(convexqe.__file__))
        return subprocess.run(
            [sys.executable, "-c", code, "--format", "json", "obstruct",
             "--model", fixture_path("q1_pi"), "--fn", str(fn)],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": src})

    @staticmethod
    def _escapes(out: str, c: Fraction, budget: int) -> bool:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # the witness may be long
        try:
            w = json.loads(out)
            a = Point(tuple(Fraction(x) for x in w["point"]))
        finally:
            sys.set_int_max_str_digits(limit)
        m = get_model("q1_pi")
        return (w["violation"] == "escapes-u" and u_member(m, a, budget)
                and not u_member(m, a + Point.of(c), budget))

    def test_obstruct_tiny_intercept(self, tmp_path):
        # the witness lies within 10^-60 of pi: about 200 bits of it
        r = self._obstruct(tmp_path, "1/1" + "0" * 60)
        assert r.returncode == 0, r.stderr
        assert self._escapes(r.stdout, Fraction(1, 10 ** 60), 4096)

    def test_obstruct_intercept_past_the_default_precision(self, tmp_path):
        # within 10^-4000 of pi: more bits than a comparison's budget
        r = self._obstruct(tmp_path, "1/1" + "0" * 4000)
        assert "Traceback" not in r.stderr
        if r.returncode == 1:
            lines = r.stderr.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert "bits" in lines[0]
        else:
            assert r.returncode == 0, r.stderr
            assert self._escapes(r.stdout, Fraction(1, 10 ** 4000), 2 ** 15)

    def test_decreasing_piece_with_a_huge_intercept(self):
        # the image leaves U only 2^600 units to the left
        m = get_model("lex2_val_1inf")
        f = UnaryPiecewiseLinear.affine(-1, -2 ** 600)
        res = check_resistance(m, f)
        assert not res.closed
        assert u_member(m, res.witness)
        assert not u_member(m, f.eval(m, res.witness))

    def test_epsilon_below_512_halvings(self):
        # F(a, eps) = (1 - 2^-700)*a + eps maps the cut below pi into
        # itself exactly when eps < 2^-700 * pi, past 512 halvings of 1
        m = get_model("q1_pi")
        res = f_valuational(m, BinaryPiecewiseLinear.affine(
            1 - Fraction(1, 2 ** 700), 1))
        assert res.valuational
        (e,) = res.epsilon.coords
        assert 0 < e < Fraction(3, 2 ** 700)

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("dx", [1, -1])
    def test_falsifier_with_a_boundary_through_a_rational_edge(self, strict, dx):
        # at eps the cell boundary passes through sup C = (1, 1) exactly,
        # and the cell on its far side holds no member of C
        m = ModelDescriptor(2, DownwardCut((Fraction(1), Fraction(1)), strict),
                            Point.of(0, 1), Point.of(2, 0))
        s = Fraction(dx, 2)
        f = BinaryPiecewiseLinear(
            (Fraction(dx), Fraction(1)), (Fraction(2),),
            (BinaryPiece.of(2, 2, 0), BinaryPiece.of(2 - s * dx, 2 - s, 2 * s)))
        res = f_valuational(m, f)
        assert not res.valuational
        eps = Point.of(2, 0) - Point.of(1, 1).scale(dx)
        a = res.falsifier(eps)
        assert u_member(m, a) and not u_member(m, f.eval(m, a, eps))


# ---------------------------------------------------------------------------
# resistance and the obstruction against a sampled escape check


@st.composite
def continuous_pl(draw):
    """A continuous piecewise-linear map whose first intercept is a sign
    times 2^-e for e up to 4000, plus a small integer or not, so a witness
    may have to lie within 2^-4000 of the cut's edge."""
    bps = sorted(draw(st.sets(st.integers(-3, 3), max_size=3)))
    slopes = draw(st.lists(st.sampled_from(
        [Fraction(s) for s in (-2, -1, Fraction(-1, 2), 0, Fraction(1, 2),
                               1, 1, 2, 3)]),
        min_size=len(bps) + 1, max_size=len(bps) + 1))
    e = draw(st.one_of(st.integers(0, 8), st.integers(0, 4000)))
    c = draw(st.sampled_from([-1, 1])) * Fraction(1, 2 ** e)
    c += draw(st.integers(-2, 2)) * draw(st.sampled_from([0, 1]))
    pieces = [(slopes[0], c)]
    for b, s in zip(bps, slopes[1:]):
        s_prev, c_prev = pieces[-1]
        pieces.append((s, (s_prev - s) * b + c_prev))
    return UnaryPiecewiseLinear.of(bps, pieces)


def _sampled_members(m: ModelDescriptor, f: UnaryPiecewiseLinear, rng):
    """Members of U near its edge, at and around the breakpoints, and drawn
    from the threshold entries."""
    pts = [edge_member(m, gap=Fraction(1, 2 ** k)) for k in (1, 3, 6, 12)]
    for b in f.breakpoints:
        for d in (0, Fraction(1, 3), -Fraction(1, 3)):
            pts.append(m.unit.scale(b + d))
    pts += [gen_point(rng, m, model_sample_pool(m)) for _ in range(40)]
    return [a for a in pts if u_member(m, a)]


MODELS = {name: get_model(name) for name in FIXTURE_NAMES}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(name=st.sampled_from(FIXTURE_NAMES), f=continuous_pl(),
       seed=st.integers(0, 2 ** 16))
def test_resistance_against_sampled_escapes(name, f, seed):
    m = MODELS[name]
    res = check_resistance(m, f)
    if not res.closed:
        a = res.witness
        assert u_member(m, a) and not u_member(m, f.eval(m, a)), (name, f)
        return
    for a in _sampled_members(m, f, random.Random(seed)):
        assert u_member(m, f.eval(m, a)), (name, f, a)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(NONVALUATIONAL_NAMES), f=continuous_pl())
def test_obstruction_witness_reverifies(name, f):
    m = MODELS[name]
    w = obstruction_find(m, f)
    a, fa = w.point, f.eval(m, w.point)
    assert u_member(m, a), (name, f)
    if w.violation == "not-increasing":
        assert not a.lex_lt(fa), (name, f)
    else:
        assert not u_member(m, fa), (name, f)
