import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import convexqe.skolemlab as skolemlab
from convexqe.closures import AtDenominator, Evaluator
from convexqe.cutqe import (SkolemDefinition, build_structure, qe_star,
                            skolemize)
from convexqe.errors import (ConvexQEError, PreconditionViolatedError,
                             SkolemShapeUnsupportedError)
from convexqe.fuzz import (SAMPLE_DENOM, _shown, gen_atom, int_sample_pool,
                           pool_drawer)
from convexqe.models import (PiOracle, compile_formula, i_member, term_rows,
                             u_member)
from convexqe.oracle import oracle_compile
from convexqe.parser import parse_formula, parse_term
from convexqe.piecewise import UnaryPiecewiseLinear
from convexqe.skolemlab import (SAMPLE_POOL, VerifyReport, choice_violation,
                                obstruction_find, verify_skolem)
from convexqe.syntax import (TRUE, And, Exists, Not, Or, Term, free_vars,
                             is_quantifier_free)

from conftest import VALUATIONAL_NAMES, get_model, row_value

ELIMINABLE_NAMES = VALUATIONAL_NAMES + ["lex2_rat_11"]


class TestVerifySkolem:
    def test_synthesized_definition_passes(self, m_sub2):
        phi = parse_formula("x < y & U(y)")
        sk = skolemize(phi, "y", build_structure(m_sub2))
        rep = verify_skolem(m_sub2, phi, sk, samples=500, seed=1)
        assert rep.passed and rep.applicable > 100

    def test_reflexive_witness_fails(self, m_sub2):
        sk = SkolemDefinition("y", ((TRUE, Term.var("x")),))
        rep = verify_skolem(m_sub2, parse_formula("x < y"), sk,
                            samples=100, seed=2)
        assert not rep.passed
        assert rep.failure["kind"] == "witness-fails"

    def test_empty_definition_vacuously_correct(self, m_sub2):
        sk = SkolemDefinition("y", ())
        rep = verify_skolem(m_sub2, parse_formula("y < y"), sk,
                            samples=100, seed=3)
        assert rep.passed and rep.applicable == 0

    def test_missing_guard_reported(self, m_sub2):
        # guard covers only one side of the parameter space
        sk = SkolemDefinition("y", ((parse_formula("x < 0"),
                                     parse_term("x + 1")),))
        rep = verify_skolem(m_sub2, parse_formula("x < y"), sk,
                            samples=200, seed=4)
        assert not rep.passed
        assert rep.failure["kind"] == "no-guard-fired"

    def test_quantified_phi_checked_by_oracle(self, m_1pi0):
        # witnesses with denominators other than the sample denominator
        phi = parse_formula("x < y & E z. (y < z & z < x + 1/7 * e_out)")
        good = SkolemDefinition("y", ((TRUE, parse_term("x + 1/5 * e_in")),))
        rep = verify_skolem(m_1pi0, phi, good, samples=60, seed=5)
        assert rep.passed and rep.applicable == 60
        bad = SkolemDefinition("y", ((TRUE, parse_term("x + 1/3 * e_out")),))
        rep = verify_skolem(m_1pi0, phi, bad, samples=60, seed=5)
        assert not rep.passed
        assert rep.failure["kind"] == "witness-fails"
        x = [Fraction(c) for c in rep.failure["assignment"]["x"]]
        assert rep.failure["witness"] == [str(x[0] + Fraction(2, 3))] + [
            str(c) for c in x[1:]]


    @pytest.mark.parametrize("phi, cases", [
        ("x < y & U(y)", None),
        ("x < y", (("x < 3", "x + 1"),)),
        ("x < y & y < 4", (("true", "x + 1/2"),)),
        ("x < y & E z. (y < z & z < x + 1/7 * e_out)",
         (("true", "x + 1/5 * e_in"),)),
        ("x < y & E z. (y < z & z < x + 1/7 * e_out)",
         (("true", "x + 1/3 * e_out"),)),
    ], ids=["synthesized", "no-guard-at-42", "witness-fails-at-66",
        "lc-5", "lc-3"])
    def test_reports_do_not_depend_on_the_block(self, m_1pi0, monkeypatch,
                                                phi, cases):
        """Samples drawn in blocks of seven, failures included, give the
        report drawn in one batch."""
        phi = parse_formula(phi)
        sk = (skolemize(phi, "y", build_structure(m_1pi0)) if cases is None
              else SkolemDefinition("y", tuple(
                  (parse_formula(g), parse_term(w)) for g, w in cases)))
        whole = verify_skolem(m_1pi0, phi, sk, samples=300, seed=9)
        monkeypatch.setattr(skolemlab, "SAMPLE_BLOCK", 7)
        assert verify_skolem(m_1pi0, phi, sk, samples=300, seed=9) == whole

    def test_reports_match_the_scalar_reference(self, monkeypatch):
        """Synthesized definitions, their mutants, shifted witnesses among
        them, the empty definition and a quantified phi, on every
        eliminable fixture: the block driver's report is the
        sample-by-sample scan's.  Some witness has lc > 1, and on
        lex3_val_1pi0 some lane of a substituted phi falls inside the
        irrational edge's bracket."""
        lcs, inside = set(), []
        rows_of, substitute = skolemlab.term_rows, Evaluator.substitute

        def counted_rows(m, term):
            lc, rows = rows_of(m, term)
            lcs.add(lc)
            return lc, rows

        def logged(ev, var, lc, rows):
            put = substitute(ev, var, lc, rows)
            put.specs = tuple(
                (lead, sign, tail if type(tail) is bool else (
                    *tail[:-1], _logged_less(tail[-1], inside)))
                for lead, sign, tail in put.specs)
            return put
        monkeypatch.setattr(skolemlab, "term_rows", counted_rows)
        monkeypatch.setattr(Evaluator, "substitute", logged)
        kinds = set()
        for name in ELIMINABLE_NAMES:
            del inside[:]
            m = get_model(name)
            st = build_structure(m)
            rng = random.Random(f"verify-reference:{name}")
            done = 0
            while done < 6:
                phi = _random_qf(rng, 3)
                try:
                    sk = skolemize(phi, "y", st)
                except SkolemShapeUnsupportedError:
                    continue
                done += 1
                mutants = _mutants(sk, phi)
                quantified = And(phi, parse_formula(
                    "E z. (x < z | z < x + 1)"))
                for f, d in [(phi, sk), *((phi, mutant) for mutant in mutants),
                             (quantified, sk), (quantified, mutants[0])]:
                    seed = rng.getrandbits(32)
                    rep = verify_skolem(m, f, d, 200, seed, st)
                    assert rep == _scalar_verify(m, f, d, 200, seed, st), (
                        name, f, d)
                    kinds.add(rep.failure and rep.failure["kind"])
            # two failing cases a block: below 0 the witness fails and in
            # [0, 2] no guard fires; or every witness fails, the second
            # case's at negative x; and a witness that is (1, 355/113) at
            # x = (1, 1), within 2**-16 of lex3_val_1pi0's edge (1, pi)
            for phi, cases in (
                    ("x < y", (("x < 0", "x"), ("2 < x", "x + 1"))),
                    ("x < y", (("0 < x", "x"), ("x < 0", "x"))),
                    ("x < y & U(y)", (("true", "355/113 * x - 242/113"),))):
                phi = parse_formula(phi)
                sk = SkolemDefinition("y", tuple(
                    (parse_formula(g), parse_term(w)) for g, w in cases))
                for seed in range(6):
                    assert verify_skolem(m, phi, sk, 100, seed, st) == \
                        _scalar_verify(m, phi, sk, 100, seed, st)
            assert bool(inside) == (name == "lex3_val_1pi0")
        assert kinds == {None, "no-guard-fired", "witness-fails"}
        assert max(lcs) > 1

    @pytest.mark.parametrize("guard, witness, part, name", [
        ("true", "x + z", "witness", "z"), ("z < 0", "x", "guard", "z"),
        ("true", "y + 1", "witness", "y"), ("E z. z < x", "x", "guard", None),
        ("~(x = 0 | A z. x < z)", "x", "guard", None)])
    def test_variables_outside_phi_are_refused(self, m_sub2, guard, witness,
                                               part, name):
        """A guard must be quantifier-free, and a guard or witness may name
        only phi's free variables other than the target: a sample assigns
        no other."""
        sk = SkolemDefinition("y", ((parse_formula(guard),
                                     parse_term(witness)),))
        want = (f"names {name}, not a free variable of phi other than y"
                if name else "is not quantifier-free")
        with pytest.raises(ConvexQEError, match=(
                f"^bad Skolem definition: case 1's {part} {want}$")):
            verify_skolem(m_sub2, parse_formula("x < y"), sk, samples=10)

    def test_negative_sample_count_is_refused(self, m_sub2):
        with pytest.raises(ValueError):
            verify_skolem(m_sub2, parse_formula("x < y"),
                          SkolemDefinition("y", ()), samples=-5)


def _random_qf(rng, depth):
    """A quantifier-free formula in x and y that mentions y."""
    while True:
        f = _qf(rng, depth)
        if "y" in free_vars(f):
            return f


def _qf(rng, depth):
    if depth <= 0 or rng.random() < 0.35:
        return gen_atom(rng, ["x", "y"])
    r = rng.random()
    if r < 0.35:
        return Not(_qf(rng, depth - 1))
    return (And if r < 0.75 else Or)(_qf(rng, depth - 1), _qf(rng, depth - 1))


# witnesses shifted by e_in / 3, by 1/2 and by -e_out, and by 2 * x where
# phi names x
SHIFTS = ("1/3 * e_in", "1/2", "-1 * e_out", "2 * x")


def _mutants(sk, phi):
    """Every guard given the last witness; the first case dropped; both;
    no case; then every witness shifted by each of SHIFTS."""
    t, cases = sk.target, sk.cases
    last = tuple((g, cases[-1][1]) for g, _ in cases)
    shifts = SHIFTS if "x" in free_vars(phi) else SHIFTS[:-1]
    return [SkolemDefinition(t, last), SkolemDefinition(t, cases[1:]),
            SkolemDefinition(t, last[1:]), SkolemDefinition(t, ()),
            *(SkolemDefinition(t, tuple((g, w + parse_term(s))
                                        for g, w in cases))
              for s in shifts)]


def _logged_less(less, log: list):
    """less, logging each call."""
    def logged(x, den):
        log.append((x, den))
        return less(x, den)
    return logged


def _scalar_verify(m, phi, sk, samples, seed, st):
    """verify_skolem as a sample-by-sample scan over the scalar driver,
    sharing one frame per sample: the reference the block driver must
    reproduce, report for report."""
    params = sorted(free_vars(phi) - {sk.target})
    existential = qe_star(Exists(sk.target, phi), st)
    low = compile_formula(m, existential, *(g for g, _ in sk.cases))
    phi_eval = (compile_formula(m, phi) if is_quantifier_free(phi)
                else oracle_compile(m, phi))
    cases = []
    for guard, (_, term) in enumerate(sk.cases, 1):
        lc, rows = term_rows(m, term)
        cases.append((guard, lc, rows,
                      AtDenominator(phi_eval, lc * SAMPLE_DENOM).eval))
    draw = pool_drawer(random.Random(seed), int_sample_pool(m, SAMPLE_POOL))
    applicable = 0
    for index in range(samples):
        ints = {v: draw(m.dim) for v in params}
        frame = [SAMPLE_DENOM, *low.blank]
        if not low.run(ints, frame):
            continue
        applicable += 1
        for guard, lc, rows, check in cases:
            if low.run(ints, frame, guard):
                break
        else:
            return VerifyReport(False, samples, applicable, seed, failure={
                "kind": "no-guard-fired", "sample_index": index,
                "assignment": {v: _shown(p) for v, p in ints.items()}})
        pts = {v: tuple(c * lc for c in p) for v, p in ints.items()}
        pts[sk.target] = w = tuple(row_value(r, ints, SAMPLE_DENOM)
                                   for r in rows)
        if not check(pts):
            return VerifyReport(False, samples, applicable, seed, failure={
                "kind": "witness-fails", "sample_index": index,
                "assignment": {v: _shown(p) for v, p in ints.items()},
                "witness": _shown(w, lc * SAMPLE_DENOM)})
    return VerifyReport(True, samples, applicable, seed)


class TestObstruction:
    def test_slow_growth_is_not_increasing(self, m_pi):
        f = UnaryPiecewiseLinear.affine(Fraction(1, 2), Fraction(3, 2))
        w = obstruction_find(m_pi, f)
        assert w.violation == "not-increasing"
        a = w.point
        assert u_member(m_pi, a) and not a.lex_lt(f.eval(m_pi, a))

    def test_translation_escapes(self, m_pi):
        f = UnaryPiecewiseLinear.affine(1, 1)
        w = obstruction_find(m_pi, f)
        assert w.violation == "escapes-u"
        a = w.point
        assert u_member(m_pi, a) and not u_member(m_pi, f.eval(m_pi, a))

    def test_half_plus_two_escapes(self, m_pi):
        f = UnaryPiecewiseLinear.affine(Fraction(1, 2), 2)
        w = obstruction_find(m_pi, f)
        assert w.violation == "escapes-u"
        a = w.point
        assert u_member(m_pi, a) and not u_member(m_pi, f.eval(m_pi, a))

    def test_identity_in_final_piece(self, m_pi):
        f = UnaryPiecewiseLinear.of([0], [(2, 0), (1, 0)])
        w = obstruction_find(m_pi, f)
        assert w.violation == "not-increasing"

    def test_multicoordinate_nonvaluational(self, m_11pi):
        f = UnaryPiecewiseLinear.affine(1, Fraction(1, 100))
        w = obstruction_find(m_11pi, f)
        a = w.point
        fa = f.eval(m_11pi, a)
        assert u_member(m_11pi, a)
        assert (not a.lex_lt(fa)) or (not u_member(m_11pi, fa))

    def test_valuational_model_rejected(self, m_1inf):
        with pytest.raises(PreconditionViolatedError):
            obstruction_find(m_1inf, UnaryPiecewiseLinear.affine(1, 1))

    def test_certificate_present(self, m_pi):
        w = obstruction_find(m_pi, UnaryPiecewiseLinear.affine(2, 0))
        assert w.certificate["slope"] == "2"
        assert "comparison" in w.certificate

    @pytest.mark.parametrize("name", ["q1_pi", "q3_11pi"])
    def test_certificate_does_not_depend_on_refinement(self, name):
        # a fresh model: refining a session fixture's oracle would reach
        # other tests
        m = get_model(name)
        f = UnaryPiecewiseLinear.affine(1, Fraction(1, 10 ** 40))
        before = obstruction_find(m, f).to_json()
        assert before["violation"] == "escapes-u"
        lo, hi = map(Fraction, before["certificate"]["oracle_interval"])
        assert hi - lo == Fraction(1, 2 ** 16)
        assert (lo * 2 ** 16).denominator == 1
        assert m.cut.oracle.compare(lo) < 0 < m.cut.oracle.compare(hi)
        m.cut.oracle.refine(4096)
        assert obstruction_find(m, f).to_json() == before

    def test_snapshot_of_a_loose_refinement(self):
        # a first refinement whose lower end is 2^-17 further below pi
        # leaves 205887/65536 between it and pi; compare places pi above
        class Loose(PiOracle):
            def _compute(self, bits):
                lo, hi = super()._compute(bits)
                return lo - Fraction(bits == 16, 2 ** 17), hi
        m = SimpleNamespace(cut=SimpleNamespace(oracle=Loose()))
        assert skolemlab._interval_snapshot(m) == ["205887/65536",
                                                   "3217/1024"]


def _verify_choice_violation(m, cand, v):
    if isinstance(cand, UnaryPiecewiseLinear):
        fn = lambda a: cand.eval(m, a)
    else:
        choose = cand.chooser(m)
        fn = lambda a: choose({"x": a})
    if v.kind == "skolem-condition":
        (a,) = v.points
        w = fn(a)
        assert w is None or not i_member(m, w - a)
    else:
        a, b = v.points
        assert i_member(m, a - b)
        assert fn(a) != fn(b)


class TestChoiceViolation:
    def test_identity_gives_fiber_pair(self, m_sub2):
        cand = UnaryPiecewiseLinear.affine(1, 0)
        v = choice_violation(m_sub2, cand)
        assert v.kind == "fiber-pair"
        _verify_choice_violation(m_sub2, cand, v)

    def test_constant_fails_condition_one(self, m_sub2):
        cand = UnaryPiecewiseLinear.of([], [(0, 0)])
        v = choice_violation(m_sub2, cand)
        assert v.kind == "skolem-condition"
        _verify_choice_violation(m_sub2, cand, v)

    def test_scaling_fails_condition_one(self, m_1inf):
        cand = UnaryPiecewiseLinear.affine(2, 0)
        v = choice_violation(m_1inf, cand)
        _verify_choice_violation(m_1inf, cand, v)

    def test_synthesized_skolem_definition_violates(self, models):
        phi = parse_formula("I(x - y)")
        for name in ("lex2_sub1", "lex2_val_1inf", "lex3_val_1pi0"):
            m = models[name]
            sk = skolemize(phi, "y", build_structure(m))
            v = choice_violation(m, sk)
            _verify_choice_violation(m, sk, v)

    def test_trivial_stabilizer_rejected(self, m_pi):
        with pytest.raises(PreconditionViolatedError):
            choice_violation(m_pi, UnaryPiecewiseLinear.affine(1, 0))

    def test_random_pl_candidates_always_violate(self, models):
        rng = random.Random(41)
        for name in ("lex2_sub1", "lex2_val_1inf"):
            m = models[name]
            for _ in range(15):
                cand = _random_continuous_pl(rng)
                v = choice_violation(m, cand)
                _verify_choice_violation(m, cand, v)


def _random_continuous_pl(rng):
    n = rng.randint(0, 3)
    bps = sorted(rng.sample(range(-4, 5), n))
    slopes = [Fraction(rng.choice([-2, -1, 0, Fraction(1, 2), 1, 2]))
              for _ in range(n + 1)]
    pieces = [(slopes[0], Fraction(rng.randint(-2, 2)))]
    for i, b in enumerate(bps):
        s_prev, c_prev = pieces[-1]
        s_new = slopes[i + 1]
        pieces.append((s_new, (s_prev - s_new) * b + c_prev))
    return UnaryPiecewiseLinear.of(bps, pieces)
