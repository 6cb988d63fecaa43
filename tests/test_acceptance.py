"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances are exact (this is an exact-arithmetic toolkit): every
criterion demands complete agreement on its stated sample counts.
"""

import json
import random
from fractions import Fraction

import pytest

from convexqe.classifier import (IRRATIONAL_NONVALUATIONAL,
                                 IRRATIONAL_VALUATIONAL, RATIONAL_CUT,
                                 classify, f_valuational, stabilizer)
from convexqe.cutqe import build_structure, check_resistance, skolemize
from convexqe.errors import SkolemShapeUnsupportedError
from convexqe.fuzz import FuzzConfig, run_fuzz, gen_atom
from convexqe.models import Point, eval_formula
from convexqe.oracle import oracle_truth
from convexqe.parser import parse_formula
from convexqe.piecewise import (BinaryPiecewiseLinear, UnaryPiecewiseLinear,
                                pluslike_from_unary)
from convexqe.skolemlab import choice_violation, obstruction_find, verify_skolem
from convexqe.syntax import (And, Exists, Not, Or, canonicalize_bound,
                             free_vars, print_formula)
from convexqe.parser import parse_formula as _parse

from conftest import VALUATIONAL_NAMES, random_cut_model


def _report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


class TestAcceptance:
    def test_criterion_1_qe_differential_soundness(self, models):
        """500 random formulas per fixture, 1000 assignments each, no
        discrepancies between qe_star and the coordinate oracle."""
        total = 0
        discrepancies = 0
        for i, name in enumerate(VALUATIONAL_NAMES):
            m = models[name]
            rep = run_fuzz(m, FuzzConfig(formulas=500, assignments=1000,
                                         seed=100 + i))
            assert rep["budget_skips"] == 0
            total += rep["checked_formulas"]
            discrepancies += rep["discrepancy_count"]
        _report(1, discrepancies == 0 and total == 2000,
                f"{total} formulas across 4 fixtures, "
                f"{discrepancies} discrepancies")

    def test_criterion_2_fixtures_classify(self, models):
        checks = [
            ("q1_pi", IRRATIONAL_NONVALUATIONAL, None),
            ("q3_11pi", IRRATIONAL_NONVALUATIONAL, None),
            ("lex2_val_1inf", IRRATIONAL_VALUATIONAL, Point.of(0, 1)),
            ("lex2_rat_11", RATIONAL_CUT, None),
        ]
        good = 0
        for name, kind, eps in checks:
            r = classify(models[name])
            if r.cut_kind == kind and r.epsilon_witness == eps:
                good += 1
        _report(2, good == 4, f"{good}/4 fixtures classify exactly")

    def test_criterion_3_pluslike_equivalence(self, models):
        """For every fixture and 20 generated pluslike translations,
        absorption under the pluslike map agrees with the classifier flag."""
        rng = random.Random(300)
        agreements = 0
        trials = 0
        for m in models.values():
            flag = classify(m).cut_kind == IRRATIONAL_VALUATIONAL
            fns = []
            for _ in range(10):
                b = Fraction(rng.choice([1, 2, 3])) / rng.choice([1, 2, 4])
                fns.append(BinaryPiecewiseLinear.affine(1, b))
            for _ in range(10):
                fns.append(pluslike_from_unary(_identity_tail_pl(rng)))
            for f in fns:
                trials += 1
                res = f_valuational(m, f)
                if res.valuational == flag:
                    agreements += 1
                if res.valuational:
                    eps = res.epsilon
                    assert eps.lex_sign() > 0
        _report(3, agreements == trials,
                f"{agreements}/{trials} pluslike agreements across "
                f"{len(models)} fixtures")

    def test_criterion_4_stabilizer_cross_check(self, models):
        rng = random.Random(400)
        agree = 0
        trials = 0
        pool = list(models.values())
        while len(pool) < len(models) + 50:
            m = random_cut_model(rng)
            if m is not None:
                pool.append(m)
        for m in pool:
            trials += 1
            if (stabilizer(m) < m.dim) == (
                    classify(m).cut_kind == IRRATIONAL_VALUATIONAL):
                agree += 1
        _report(4, agree == trials,
                f"{agree}/{trials} stabilizer/classifier agreements "
                f"({len(pool) - len(models)} random thresholds)")

    def test_criterion_5_skolem_synthesis(self, models):
        """100 random satisfiable formulas over the valuational fixtures;
        every synthesized definition passes 500-sample verification."""
        passed = 0
        total = 0
        shape_redraws = 0
        for name in VALUATIONAL_NAMES:
            m = models[name]
            st = build_structure(m)
            rng = random.Random(500)
            done = 0
            while done < 25:
                phi = _random_qf(rng, ["x", "y"], 3)
                if "y" not in free_vars(phi):
                    continue
                closed = phi
                for v in sorted(free_vars(phi)):
                    closed = Exists(v, closed)
                if not oracle_truth(m, closed, {}):
                    continue
                try:
                    sk = skolemize(phi, "y", st)
                except SkolemShapeUnsupportedError:
                    shape_redraws += 1
                    continue
                rep = verify_skolem(m, phi, sk, samples=500, seed=done, st=st)
                total += 1
                if rep.passed:
                    passed += 1
                done += 1
        _report(5, passed == total == 100,
                f"{passed}/{total} synthesized definitions verified "
                f"({shape_redraws} cut-band shapes redrawn)")

    def test_criterion_6_obstruction(self, m_pi):
        """50 continuous piecewise-linear candidates over the archimedean
        cut; the finder must return a witness that re-verifies."""
        rng = random.Random(600)
        good = 0
        for _ in range(50):
            f = _random_continuous_pl(rng)
            w = obstruction_find(m_pi, f)
            a = w.point
            fa = f.eval(m_pi, a)
            in_u = eval_formula(m_pi, _parse("U(x)"), {"x": a})
            img_in_u = eval_formula(m_pi, _parse("U(x)"), {"x": fa})
            if w.violation == "not-increasing":
                ok = in_u and not a.lex_lt(fa)
            else:
                ok = in_u and not img_in_u
            if ok:
                good += 1
        _report(6, good == 50, f"{good}/50 obstruction witnesses re-verified")

    def test_criterion_7_choice_failure(self, models):
        """25 candidates per valuational fixture (including the synthesized
        witness map for the fiber formula) all yield verifiable violations."""
        from convexqe.models import i_member
        phi = _parse("I(x - y)")
        good = 0
        trials = 0
        for name in VALUATIONAL_NAMES:
            m = models[name]
            rng = random.Random(700)
            cands = [skolemize(phi, "y", build_structure(m)),
                     UnaryPiecewiseLinear.affine(1, 0),
                     UnaryPiecewiseLinear.of([], [(0, 0)])]
            while len(cands) < 25:
                cands.append(_random_continuous_pl(rng))
            for cand in cands:
                trials += 1
                v = choice_violation(m, cand)
                if isinstance(cand, UnaryPiecewiseLinear):
                    fn = lambda a: cand.eval(m, a)
                else:
                    choose = cand.chooser(m)
                    fn = lambda a: choose({"x": a})
                if v.kind == "skolem-condition":
                    (a,) = v.points
                    w = fn(a)
                    ok = w is None or not i_member(m, w - a)
                else:
                    a, b = v.points
                    ok = i_member(m, a - b) and fn(a) != fn(b)
                if ok:
                    good += 1
        _report(7, good == trials == 100,
                f"{good}/{trials} choice violations re-verified")

    def test_criterion_8_normalization(self, m_sub2):
        """50 random continuous functions without constant pieces: strictly
        increasing output, exact continuity, resistance violations kept;
        at least 40 of the draws violate resistance, so that check runs."""
        rng = random.Random(800)
        good = 0
        checked = 0
        for _ in range(50):
            g = _random_nonflat_pl(rng)
            from convexqe.piecewise import normalize_monotone
            h = normalize_monotone(g)
            ok = h.is_strictly_increasing() and not h.continuity_defects()
            if not check_resistance(m_sub2, g).closed:
                checked += 1
                ok = ok and not check_resistance(m_sub2, h).closed
            if ok:
                good += 1
        from convexqe.piecewise import normalize_monotone
        exact1 = normalize_monotone(
            UnaryPiecewiseLinear.of([0], [(-1, 0), (1, 0)])) \
            == UnaryPiecewiseLinear.affine(1, 0)
        exact2 = normalize_monotone(
            UnaryPiecewiseLinear.of([1, 2], [(1, 0), (-1, 2), (1, -2)])) \
            == UnaryPiecewiseLinear.affine(1, -2)
        _report(8, good == 50 and checked >= 40 and exact1 and exact2,
                f"{good}/50 normalizations verified, {checked} of them "
                f"resistance violations; worked examples "
                f"{'match' if exact1 and exact2 else 'differ'}")

    def test_criterion_9_round_trip_and_determinism(self, models):
        from convexqe.fuzz import gen_formula
        rng = random.Random(900)
        good = 0
        for _ in range(1000):
            f = gen_formula(rng, ["x", "y"], 4, 2)
            g = _parse(print_formula(f))
            if canonicalize_bound(g) == canonicalize_bound(f):
                good += 1
        m = models["lex3_val_1pi0"]
        config = FuzzConfig(formulas=25, assignments=30, seed=901)
        r1 = json.dumps(run_fuzz(m, config), sort_keys=True)
        r2 = json.dumps(run_fuzz(m, config), sort_keys=True)
        _report(9, good == 1000 and r1 == r2,
                f"{good}/1000 ASTs round-tripped; reports byte-identical: "
                f"{r1 == r2}")


# --- generators --------------------------------------------------------------


def _random_qf(rng, vars, depth):
    if depth <= 0 or rng.random() < 0.35:
        return gen_atom(rng, vars)
    r = rng.random()
    if r < 0.35:
        return Not(_random_qf(rng, vars, depth - 1))
    cls = And if r < 0.75 else Or
    return cls(_random_qf(rng, vars, depth - 1), _random_qf(rng, vars, depth - 1))


def _random_continuous_pl(rng):
    n = rng.randint(0, 3)
    bps = sorted(rng.sample(range(-4, 5), n))
    slopes = [Fraction(rng.choice([-2, -1, 0, Fraction(1, 2), 1, 2, 3]))
              for _ in range(n + 1)]
    pieces = [(slopes[0], Fraction(rng.randint(-2, 2)))]
    for i, b in enumerate(bps):
        s_prev, c_prev = pieces[-1]
        s_new = slopes[i + 1]
        pieces.append((s_new, (s_prev - s_new) * b + c_prev))
    return UnaryPiecewiseLinear.of(bps, pieces)


def _random_nonflat_pl(rng):
    n = rng.randint(0, 3)
    bps = sorted(rng.sample(range(-4, 5), n))
    slopes = [Fraction(rng.choice([-2, -1, Fraction(1, 2), 1, 2, 3]))
              for _ in range(n)] + [Fraction(rng.choice([1, 2, 3]))]
    pieces = [(slopes[0], Fraction(rng.randint(-2, 2)))]
    for i, b in enumerate(bps):
        s_prev, c_prev = pieces[-1]
        s_new = slopes[i + 1]
        pieces.append((s_new, (s_prev - s_new) * b + c_prev))
    return UnaryPiecewiseLinear.of(bps, pieces)


def _identity_tail_pl(rng):
    n = rng.randint(0, 2)
    bps = sorted(rng.sample(range(-6, -1), n)) if n else []
    slopes = [Fraction(rng.choice([1, 2, 3, Fraction(1, 2)]))
              for _ in range(n)] + [Fraction(1)]
    consts = [Fraction(0)]
    for i in range(n - 1, -1, -1):
        b = bps[i]
        c_left = (slopes[i + 1] - slopes[i]) * b + consts[0]
        consts.insert(0, c_left)
    return UnaryPiecewiseLinear.of(bps, list(zip(slopes, consts)))
