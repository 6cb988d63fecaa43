import glob
import json
import os
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from convexqe.cli import fixtures_dir, main
from convexqe.classifier import classify
from convexqe.cutqe import build_structure, qe_star
from convexqe.fuzz import MAX_DEPTH, FuzzConfig, run_fuzz
from convexqe.models import Point, compile_formula, eval_formula, load_model
from convexqe.oracle import oracle_truth
from convexqe.parser import parse_formula
from convexqe.piecewise import binary_from_json, check_pluslike
from convexqe.syntax import print_formula

from conftest import fixture_path, get_model


FILE = object()  # stands for a file written with the case's content
DIR = object()  # stands for a directory

BIG = "1" + "0" * 5000  # 1e5000, past the digits str() converts
BIG_FN = json.dumps({"breakpoints": [],
                     "pieces": [{"slope": "1", "intercept": "1e5000"}]})


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestCommands:
    def test_parse_echo(self, capsys):
        rc, out, _ = run(capsys, "parse", "E y. y + y = x")
        assert rc == 0
        from convexqe.parser import parse_formula
        from convexqe.syntax import canonicalize_bound
        assert canonicalize_bound(parse_formula(out.strip())) \
            == canonicalize_bound(parse_formula("E y. y + y = x"))

    def test_classify_json(self, capsys):
        rc, out, _ = run(capsys, "--format", "json", "classify",
                         "--model", fixture_path("q3_11pi"))
        assert rc == 0
        data = json.loads(out)
        assert data["cut_kind"] == "irrational-nonvaluational"
        assert data["falsifier_demo"] is not None

    def test_eliminate(self, capsys, m_sub2):
        rc, out, _ = run(capsys, "eliminate", "--model", "lex2_sub1.json",
                         "E y. (x < y & U(y))")
        assert rc == 0
        from convexqe.models import Point, eval_formula
        from convexqe.oracle import oracle_truth
        from convexqe.parser import parse_formula
        g = parse_formula(out.strip())
        f = parse_formula("E y. (x < y & U(y))")
        for x in (Point.of(0, 3), Point.of(2, 0), Point.of(-1, 1)):
            assert eval_formula(m_sub2, g, {"x": x}) \
                == oracle_truth(m_sub2, f, {"x": x})

    def test_fixture_name_resolution(self, capsys):
        rc, _, _ = run(capsys, "classify", "--model", "lex2_sub1.json")
        assert rc == 0

    def test_nonvaluational_exit_code(self, capsys):
        rc, _, err = run(capsys, "eliminate", "--model", "q1_pi.json",
                         "E y. (x < y & U(y))")
        assert rc == 1
        assert "stabilizer" in err

    def test_parse_error_exit_code(self, capsys):
        rc, _, err = run(capsys, "parse", "E y. ((x < y")
        assert rc == 2
        assert "syntax" in err

    @pytest.mark.parametrize("argv, answer", [
        (("parse", "~" * 2000 + "x < 0"), "~" * 2000 + "x < 0"),
        (("parse", "(" * 600 + "x < 0" + ")" * 600), "x < 0"),
        (("eliminate", "--model", "lex2_sub1.json",
          "E y. " + " & ".join(f"x{i} < y" for i in range(1500))), "true"),
    ], ids=["stacked-negations", "nested-parentheses", "long-conjunction"])
    def test_deep_input_is_answered(self, capsys, argv, answer):
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and err == ""
        assert out == answer + "\n"

    def test_input_beyond_recursion_limit_is_answered(self, capsys, m_sub2):
        # x < 0 holds at every level, so no conjunction short-circuits
        nested = "~(x < 0 & " * 1000 + "x < 0" + ")" * 1000
        rc, out, err = run(capsys, "eval", "--model", "lex2_sub1.json",
                           "--assign", '{"x": ["-1", "0"]}', nested)
        want = oracle_truth(m_sub2, parse_formula(nested),
                            {"x": Point.of(-1, 0)})
        assert rc == 0 and err == ""
        assert out == ("true" if want else "false") + "\n"

    @pytest.mark.parametrize("argv, content", [
        (("verify-skolem", "--model", "lex2_sub1.json", "--phi", "x < y",
          "--sk", FILE), ""),
        (("verify-skolem", "--model", "lex2_sub1.json", "--phi", "x < y",
          "--sk", FILE), '[{"guard": "true"}]'),
        (("classify", "--model", FILE), '{"dim": 2, "U": {"kind": "subgr'),
        (("eval", "--model", "lex2_sub1.json", "--assign", "{bad", "x < 0"),
         None),
        (("obstruct", "--model", "q1_pi.json", "--fn", FILE), ""),
        (("obstruct", "--model", "q1_pi.json", "--fn", FILE), "[]"),
        (("eval", "--model", "lex2_sub1.json", "--assign", '{"x": ["1", "0"]}',
          "x < y"), None),
        (("classify", "--model", FILE), json.dumps(
            {"dim": 2, "U": {"kind": "downward-cut", "threshold": ["1/0", "1"]},
             "e_in": ["0", "1"], "e_out": ["2", "0"]})),
        (("classify", "--model", FILE), json.dumps(
            {"dim": 2, "U": {"kind": "subgroup", "level": 1},
             "e_in": ["0", "1/0"], "e_out": ["2", "0"]})),
        (("normalize-monotone", "--fn", FILE), json.dumps(
            {"breakpoints": ["1/0"], "pieces": [{"slope": "1"}] * 2})),
        (("check-pluslike", "--fn", FILE), json.dumps(
            {"arity": 2, "direction": ["1", "1/0"], "thresholds": [],
             "pieces": [{"coef_x": "1", "coef_y": "1"}]})),
        (("eval", "--model", "lex2_sub1.json", "--assign",
          '{"x": ["1/0", "0"]}', "x < 0"), None),
        (("eval", "--model", "lex2_sub1.json", "--assign", '{"x": ["1"]}',
          "x < 0"), None),
        (("eval", "--model", "lex2_sub1.json", "--assign",
          '{"x": ["1", "2", "3"]}', "0 < x"), None),
        (("eval", "--model", "lex2_sub1.json", "--assign", '{"x": "12"}',
          "0 < x"), None),
        (("eval", "--model", "q1_pi.json", "--assign", '{"x": [0.1]}',
          "10 * x = 1"), None),
        (("eval", "--model", "q1_pi.json", "--assign", '{"x": [true]}',
          "x = 1"), None),
        (("classify", "--model", FILE), json.dumps(
            {"dim": 2.5, "U": {"kind": "subgroup", "level": 1},
             "e_in": ["0", "1"], "e_out": ["2", "0"]})),
        (("classify", "--model", FILE), json.dumps(
            {"dim": 2, "U": {"kind": "downward-cut", "threshold": ["1", "1"],
                             "strict": "false"},
             "e_in": ["0", "1"], "e_out": ["2", "0"]})),
        (("normalize-monotone", "--fn", FILE), json.dumps(
            {"breakpoints": [], "pieces": [{"slope": 0.5}]})),
        (("classify", "--model", DIR), None),
    ], ids=["empty-sk", "sk-case-without-witness", "truncated-model",
            "assign-not-json", "empty-fn", "fn-not-an-object",
            "eval-unassigned-variable", "zero-denominator-threshold",
            "zero-denominator-e_in", "zero-denominator-breakpoint",
            "zero-denominator-direction", "zero-denominator-coordinate",
            "short-point", "long-point", "point-as-string",
            "float-coordinate", "boolean-coordinate", "float-dimension",
            "string-strictness", "float-slope", "model-is-a-directory"])
    @pytest.mark.digit_limit
    def test_malformed_input_is_domain_error(self, capsys, tmp_path, argv,
                                             content):
        path = tmp_path / "input.json"
        if content is not None:
            path.write_text(content)
        rc, out, err = run(capsys, *(str(path) if a is FILE else
                                     str(tmp_path) if a is DIR else a
                                     for a in argv))
        assert rc == 1 and out == "" and "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    # each refusal of a model descriptor that nothing else reaches, and
    # the sqrt tag of an irrational threshold, which is read, not refused
    @pytest.mark.parametrize("model, refusal", [
        ({"dim": 0, "U": {"kind": "subgroup", "level": 1}, "e_in": [],
          "e_out": []}, "dimension must be positive"),
        ({"dim": 2, "U": {"kind": "subgroup", "level": 1}, "e_in": ["1"],
          "e_out": ["1", "0"]}, "constant points must match the dimension"),
        ({"dim": 2, "U": {"kind": "downward-cut", "threshold": ["1"]},
          "e_in": ["0", "1"], "e_out": ["2", "0"]},
         "threshold length must equal the dimension"),
        ({"dim": 3, "U": {"kind": "downward-cut",
                          "threshold": ["1", "+inf", {"irrational": "pi"}]},
          "e_in": ["0", "0", "1"], "e_out": ["2", "0", "0"]},
         "+inf entries must form a trailing block"),
        ({"dim": 2, "U": {"kind": "subgroup", "level": 1},
          "e_in": ["0", "-1"], "e_out": ["1", "0"]}, "e_in must be positive"),
        ({"dim": 2, "U": {"kind": "downward-cut",
                          "threshold": ["1", {"irrational": "e"}]},
          "e_in": ["0", "1"], "e_out": ["2", "0"]},
         "unknown irrational tag 'e'"),
        ({"dim": 2, "U": {"kind": "ball"}, "e_in": ["0", "1"],
          "e_out": ["2", "0"]}, "unknown U kind 'ball'"),
        ({"dim": 2, "U": {"kind": "downward-cut",
                          "threshold": [{"irrational": "sqrt(2)"}, "0"]},
          "e_in": ["0", "1"], "e_out": ["2", "0"]}, None),
    ], ids=["dim-0", "e_in-size", "threshold-length", "inf-before-irrational",
            "e_in-not-positive", "irrational-e", "ball", "sqrt-2"])
    def test_model_refusals(self, capsys, tmp_path, model, refusal):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        rc, out, err = run(capsys, "--format", "json", "classify", "--model",
                           str(path))
        if refusal is None:
            assert rc == 0 and err == ""
            assert json.loads(out)["cut_kind"] == "irrational-valuational"
            return
        assert rc == 1 and out == ""
        assert err == f"error: {refusal}\n"

    # well-formed input whose rationals have more digits than str()
    # converts: each is printed in full
    @pytest.mark.parametrize("argv, content, read, want", [
        (("normalize-monotone", "--fn", FILE), BIG_FN,
         lambda r: r["pieces"][0]["intercept"], BIG),
        (("--format", "json", "choice-demo", "--model", "lex2_val_1inf.json",
          "--fn", FILE), BIG_FN, lambda r: r["values"][0], [BIG, "0"]),
        (("--format", "json", "check-pluslike", "--fn", FILE), json.dumps(
            {"arity": 2, "direction": ["1", "1"], "thresholds": ["1e5000"],
             "pieces": [{"coef_x": "1", "coef_y": "1", "intercept": "0"},
                        {"coef_x": "1", "coef_y": "1", "intercept": "1"}]}),
         lambda r: r["witness"], [0, BIG]),
        (("--format", "json", "classify", "--model", FILE), json.dumps(
            {"dim": 2, "U": {"kind": "downward-cut",
                             "threshold": ["1e5000", {"irrational": "pi"}],
                             "strict": True},
             "e_in": ["0", "1"], "e_out": ["1e5001", "0"]}),
         lambda r: r["falsifier_demo"], {"epsilon": ["0", "1"],
                                         "inside": [BIG, "3"],
                                         "escapes": [BIG, "4"]}),
    ], ids=["normalize-monotone", "choice-demo", "check-pluslike",
            "classify"])
    @pytest.mark.digit_limit
    def test_long_rationals_are_printed_in_full(self, capsys, tmp_path, argv,
                                                content, read, want):
        path = tmp_path / "input.json"
        path.write_text(content)
        rc, out, err = run(capsys, *(str(path) if a is FILE else a
                                     for a in argv))
        assert rc == 0 and err == ""
        assert read(json.loads(out)) == want

    @pytest.mark.digit_limit
    def test_long_witness_is_reported_in_full(self, capsys, tmp_path):
        # x - 1/P - 1/Q for P, Q = 10^3999 + 7, + 9: the witness's
        # 8,000-digit denominator does not convert with str()
        p, q = ("1" + "0" * 3998 + d for d in "79")
        sk = tmp_path / "sk.json"
        sk.write_text(json.dumps([{"guard": "true",
                                   "witness": f"x - 1/{p} - 1/{q}"}]))
        rc, out, err = run(capsys, "--format", "json", "verify-skolem",
                           "--model", "lex2_sub1.json", "--phi", "x < y",
                           "--samples", "5", "--sk", str(sk))
        assert rc == 1 and err == ""
        # decimal prints the reference, as no digit limit binds it
        failure = json.loads(out)["failure"]
        x0, x1 = failure["assignment"]["x"]
        w = Fraction(x0) - Fraction(1, 10 ** 3999 + 7) \
            - Fraction(1, 10 ** 3999 + 9)
        assert failure["witness"] == [
            f"{Decimal(w.numerator)}/{Decimal(w.denominator)}", x1]

    @pytest.mark.parametrize("case, part, name", [
        ({"guard": "true", "witness": "y + 1"}, "witness", "y"),
        ({"guard": "w < 0", "witness": "x + 1"}, "guard", "w"),
        ({"guard": "true", "witness": "q + 1"}, "witness", "q"),
        ({"guard": "x < 0 & E z. z < x", "witness": "x"}, "guard", None),
    ], ids=["witness-names-target", "guard-names-stranger",
            "witness-names-stranger", "guard-is-quantified"])
    def test_skolem_variables_outside_phi_are_domain_errors(
            self, capsys, tmp_path, case, part, name):
        sk_file = tmp_path / "sk.json"
        sk_file.write_text(json.dumps([{"guard": "x < 0", "witness": "x"},
                                       case]))
        rc, out, err = run(capsys, "verify-skolem", "--model", "lex2_sub1.json",
                           "--phi", "x < y", "--target", "y",
                           "--sk", str(sk_file))
        assert rc == 1 and out == "" and "Traceback" not in err
        assert err.count("\n") == 1
        want = f"names {name}," if name else "is not quantifier-free\n"
        assert err.startswith(f"error: bad Skolem definition: case 2's {part} "
                              + want)

    def test_missing_model_is_domain_error(self, capsys):
        rc, _, _ = run(capsys, "classify", "--model", "no_such_model.json")
        assert rc == 1

    def test_skolemize_round_trips_through_verify(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "--format", "json", "skolemize",
                         "--model", "lex2_sub1.json", "--target", "y",
                         "x < y & U(y)")
        assert rc == 0
        sk_file = tmp_path / "sk.json"
        sk_file.write_text(out)
        rc, out, _ = run(capsys, "--format", "json", "verify-skolem",
                         "--model", "lex2_sub1.json", "--phi", "x < y & U(y)",
                         "--target", "y", "--sk", str(sk_file),
                         "--samples", "200", "--seed", "5")
        assert rc == 0
        assert json.loads(out)["passed"] is True

    def test_eval(self, capsys):
        rc, out, _ = run(capsys, "eval", "--model", "q1_pi.json",
                         "--assign", '{"x": ["3"]}', "U(x)")
        assert rc == 0 and out.strip() == "true"

    def test_obstruct(self, capsys, tmp_path):
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps(
            {"breakpoints": [], "pieces": [{"slope": "1", "intercept": "1"}]}))
        rc, out, _ = run(capsys, "--format", "json", "obstruct",
                         "--model", "q1_pi.json", "--fn", str(fn))
        assert rc == 0
        assert json.loads(out)["violation"] == "escapes-u"

    def test_choice_demo_default_identity(self, capsys):
        rc, out, _ = run(capsys, "--format", "json", "choice-demo",
                         "--model", "lex2_sub1.json")
        assert rc == 0
        assert json.loads(out)["kind"] == "fiber-pair"

    def test_normalize_monotone(self, capsys, tmp_path):
        fn = tmp_path / "g.json"
        fn.write_text(json.dumps({"breakpoints": ["0"],
                                  "pieces": [{"slope": "-1", "intercept": "0"},
                                             {"slope": "1", "intercept": "0"}]}))
        rc, out, _ = run(capsys, "--format", "json", "normalize-monotone",
                         "--fn", str(fn))
        assert rc == 0
        data = json.loads(out)
        assert data["breakpoints"] == []
        assert data["pieces"] == [{"slope": "1", "intercept": "0"}]

    def test_check_pluslike(self, capsys, tmp_path):
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps({"arity": 2, "direction": ["1", "1"],
                                  "thresholds": [],
                                  "pieces": [{"coef_x": "2", "coef_y": "3",
                                              "intercept": "0"}]}))
        rc, out, _ = run(capsys, "--format", "json", "check-pluslike",
                         "--fn", str(fn))
        assert rc == 0 and json.loads(out)["pluslike"] is True

    def test_check_pluslike_witness_is_its_repr(self, capsys, tmp_path):
        # every witness shape (a boundary, a flat pair in either argument,
        # with and without thresholds, across each cell) prints as nested
        # JSON lists that mirror its tuple: the boundary index an integer,
        # each rational a string
        rng = random.Random(3)
        path = tmp_path / "f.json"
        shapes = set()
        for _ in range(60):
            ts = sorted(rng.sample(range(-3, 4), rng.randint(0, 2)))
            fn = {"arity": 2,
                  "direction": [str(rng.choice((0, 1, -2))), "1/2"],
                  "thresholds": [str(Fraction(t, 2)) for t in ts],
                  "pieces": [{"coef_x": str(rng.choice((-1, 0, 1, 2))),
                              "coef_y": str(rng.choice((-1, 0, 1, 2))),
                              "intercept": str(rng.choice((0, 1)))}
                             for _ in range(len(ts) + 1)]}
            path.write_text(json.dumps(fn))
            rc, out, _ = run(capsys, "--format", "json", "check-pluslike",
                             "--fn", str(path))
            rep = check_pluslike(binary_from_json(fn))
            assert rc == 0
            got = json.loads(out)["witness"]
            if rep.witness is None:
                assert got is None
            elif type(rep.witness[0]) is int:  # (index, threshold)
                i, t = rep.witness
                assert got == [i, str(t)] and type(got[0]) is int
            else:  # two argument pairs
                assert got == [[str(q) for q in pair]
                               for pair in rep.witness]
            shapes.add(rep.reason)
        assert len(shapes) == 4


class TestDeepInput:
    def test_every_entry_point_answers(self, capsys, m_sub2):
        # (x < k & ...) and (k < x | ...) alternately, 3,000 levels deep,
        # and a term scaled by 3,000 factors, under a recursion limit far
        # below either depth
        nested = "x < 0"
        for k in range(1, 3001):
            nested = (f"(x < {k} & {nested})" if k % 2
                      else f"({k} < x | {nested})")
        scaled = "1 * " * 3000 + "x < 0"
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            for text in (nested, scaled):
                f = parse_formula(text)
                assert parse_formula(print_formula(f)) == f
                out = qe_star(f, build_structure(m_sub2))
                ev = compile_formula(m_sub2, f)
                seen = set()
                for x in ("-1", "0", "3001/2"):
                    asgn = {"x": Point.of(Fraction(x), 0)}
                    want = oracle_truth(m_sub2, f, asgn)
                    seen.add(want)
                    assert eval_formula(m_sub2, f, asgn) is want, x
                    assert ev.eval_points(asgn) is want
                    assert eval_formula(m_sub2, out, asgn) is want, x
                    rc, stdout, err = run(capsys, "eval", "--model",
                                          "lex2_sub1.json", "--assign",
                                          json.dumps({"x": [x, "0"]}), text)
                    assert rc == 0 and err == ""
                    assert stdout == ("true" if want else "false") + "\n"
                assert seen == {True, False}
                rc, stdout, err = run(capsys, "parse", text)
                assert rc == 0 and err == ""
                assert parse_formula(stdout) == f
        finally:
            sys.setrecursionlimit(limit)

    @pytest.mark.parametrize("depth", [5000, 100_000])
    @pytest.mark.parametrize("argv", [
        ("eval", "--model", "lex2_sub1.json", "--assign", '{"x": DEEP}',
         "x < 0"),
        ("classify", "--model", FILE),
    ], ids=["assign", "model-file"])
    def test_json_past_the_recursion_limit_is_refused(self, capsys, tmp_path,
                                                      argv, depth):
        deep = "[" * depth + "]" * depth
        path = tmp_path / "input.json"
        path.write_text(f'{{"dim": {deep}}}')
        rc, out, err = run(capsys, *(str(path) if a is FILE else
                                     a.replace("DEEP", deep) for a in argv))
        assert rc == 1 and out == "" and "Traceback" not in err
        assert err == ("error: input nested too deeply (recursion limit "
                       "reached)\n")

    @pytest.mark.digit_limit
    def test_long_coefficient_is_printed_in_full(self, capsys):
        # each literal converts, their 8,000-digit product does not with
        # str(): (10^4000 - 1)^2 = 10^8000 - 2 * 10^4000 + 1
        nines = "9" * 4000
        rc, out, err = run(capsys, "parse", f"{nines} * {nines} * x < 0")
        assert rc == 0 and err == ""
        assert out == "9" * 3999 + "8" + "0" * 3999 + "1 * x < 0\n"

    @pytest.mark.digit_limit
    @pytest.mark.parametrize("digit, want", [("1", "true"), ("2", "false")])
    def test_over_long_json_rationals_are_read_exactly(self, capsys, tmp_path,
                                                       digit, want):
        # a model threshold and an --assign coordinate of 5,000 digits:
        # 11...1 lies below (10^5000 - 1) / 7 = 1428...5, and 22...2 above
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "dim": 2, "U": {"kind": "downward-cut",
                            "threshold": ["9" * 5000 + "/7", "+inf"]},
            "e_in": ["0", "1"], "e_out": [BIG + "0", "0"]}))
        rc, out, err = run(capsys, "eval", "--model", str(model), "--assign",
                           json.dumps({"x": [digit * 5000, "0"]}), "U(x)")
        assert rc == 0 and err == "" and out == want + "\n"

    @pytest.mark.digit_limit
    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    def test_over_long_json_integers_are_read_exactly(self, capsys, sign):
        # an unquoted --assign coordinate of 5,000 digits is the number its
        # quoted digits name, sign and all
        ones = sign + "1" * 5000
        asgn = f'{{"x": [{ones}, 0], "y": ["{ones}", "0"]}}'
        for text, want in (("x = y", "true"), ("x < y", "false")):
            rc, out, err = run(capsys, "eval", "--model", "lex2_sub1.json",
                               "--assign", asgn, text)
            assert rc == 0 and err == "" and out == want + "\n"

    @pytest.mark.digit_limit
    def test_over_long_literal_is_read_exactly(self, capsys):
        # longer than the interpreter converts between int and str
        ones = "1" * 5000
        t = parse_formula(ones + " * x < 0").atom.term
        assert t.coeff("x") * 9 == 10 ** 5000 - 1
        rc, out, err = run(capsys, "parse", ones + " * x < 0")
        assert rc == 0 and err == "" and out == ones + " * x < 0\n"


class TestPrecision:
    POINT = json.dumps({"x": ["3141592653589793238462643383279/"
                              + "1" + "0" * 30]})

    def test_eval_reports_the_exhausted_budget(self, capsys):
        # 32 bits cannot place x against pi
        rc, out, err = run(capsys, "--precision", "32", "eval", "--model",
                           "q1_pi.json", "--assign", self.POINT, "U(x)")
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "within 32 bits" in err

    def test_eval_answers_at_the_default(self, capsys):
        rc, out, err = run(capsys, "eval", "--model", "q1_pi.json",
                           "--assign", self.POINT, "U(x)")
        assert rc == 0 and err == "" and out == "true\n"

    @pytest.mark.parametrize("bits", ["-5", "0", "15"])
    def test_below_the_first_refinement_is_a_usage_error(self, capsys,
                                                         bits):
        # 16 bits, the first refinement, separate 3 from pi; fewer could
        # decide no irrational comparison
        rc, out, err = run(capsys, "--precision", bits, "eval", "--model",
                           "q1_pi.json", "--assign", '{"x": ["3"]}', "U(x)")
        assert rc == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "at least 16 bits" in errors[0]

    @pytest.mark.parametrize("intercept", ["1e-2000", "1e-1000000"])
    def test_obstruct_reports_a_gap_past_the_budget(self, capsys, tmp_path,
                                                    intercept):
        # a member of U within 10**-2000 of pi needs 6,645 bits of it, and
        # one within 10**-(10**6) millions: both past the 4,096-bit budget,
        # refused before any refinement
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps({"breakpoints": [], "pieces": [
            {"slope": "1", "intercept": intercept}]}))
        rc, out, err = run(capsys, "obstruct", "--model", "q1_pi.json",
                           "--fn", str(fn))
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "past the budget of 4096" in err

    def test_first_refinement_answers(self, capsys):
        rc, out, err = run(capsys, "--precision", "16", "eval", "--model",
                           "q1_pi.json", "--assign", '{"x": ["3"]}', "U(x)")
        assert rc == 0 and err == "" and out == "true\n"


class TestCorpus:
    def test_every_fixture_matches_its_sidecar(self):
        paths = sorted(glob.glob(os.path.join(fixtures_dir(), "*.json")))
        models = [p for p in paths if not p.endswith(".expect.json")]
        assert len(models) == 7
        for path in models:
            with open(path.replace(".json", ".expect.json")) as sidecar:
                expect = json.load(sidecar)
            report = classify(load_model(path)).to_json()
            for key, val in expect.items():
                assert report[key] == val, (path, key)


class TestFuzzCommand:
    def test_clean_run(self, capsys):
        rc, out, _ = run(capsys, "fuzz", "--model", "lex2_sub1.json",
                         "--count", "25", "--assignments", "40", "--seed", "7")
        assert rc == 0 and "0 discrepancies" in out

    def test_injected_bug_detected(self, capsys):
        rc, out, _ = run(capsys, "--format", "json", "fuzz",
                         "--model", "lex2_sub1.json", "--count", "120",
                         "--assignments", "40", "--seed", "7", "--inject-bug")
        assert rc == 1
        report = json.loads(out)
        assert report["discrepancy_count"] >= 1
        assert report["discrepancies"][0]["minimized"]

    @pytest.mark.parametrize("argv", [
        ("fuzz", "--model", "lex2_sub1.json", "--count", "2",
         "--assignments", "-3"),
        ("fuzz", "--model", "lex2_sub1.json", "--count", "-1"),
        ("fuzz", "--model", "lex2_sub1.json", "--count", "2",
         "--depth", "-1"),
        ("verify-skolem", "--model", "lex2_sub1.json", "--phi", "x < y",
         "--target", "y", "--sk", FILE, "--samples", "-5"),
        # no quantifier here: a negative depth budget must not reach qe
        ("--budget-depth", "-1", "eliminate", "--model", "lex2_sub1.json",
         "x < 0"),
        ("--budget-dnf", "-1", "eliminate", "--model", "lex2_sub1.json",
         "E y. (x < y & U(y))"),
    ], ids=["negative-assignments", "negative-count", "negative-depth",
            "negative-samples",
            "negative-budget-depth", "negative-budget-dnf"])
    def test_negative_counts_are_usage_errors(self, capsys, tmp_path, argv):
        path = tmp_path / "sk.json"
        path.write_text("[]")
        rc, out, err = run(capsys, "--format", "json",
                           *(str(path) if a is FILE else a for a in argv))
        assert rc == 2 and out == ""
        assert "must not be negative" in err

    def test_depth_beyond_the_cap_is_refused(self, capsys):
        # expected size about 10 * 1.1^depth nodes: 53,130 at the cap, the
        # first depth past the default DNF budget of 50,000
        assert MAX_DEPTH == 90
        rc, out, _ = run(capsys, "fuzz", "--model", "lex2_sub1.json",
                         "--count", "0", "--depth", "90")
        assert rc == 0 and out.startswith("checked 0 formulas")
        rc, out, err = run(capsys, "fuzz", "--model", "lex2_sub1.json",
                           "--count", "5", "--depth", "500")
        assert rc == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "must be at most 90: 500" in errors[0]
        with pytest.raises(ValueError, match="at most 90"):
            run_fuzz(get_model("lex2_sub1"), FuzzConfig(formulas=5, depth=91))

    # each budget refusal of the eliminator: the DNF of a conjunction and
    # of a disjunction, the case split and the quantifier depth
    @pytest.mark.parametrize("budget, formula, message", [
        (("--budget-dnf", "0"), "E y. (x < y & U(y))",
         "DNF clause budget exceeded"),
        (("--budget-dnf", "1"), "E y. (x < y | y < 1)",
         "DNF clause budget exceeded"),
        (("--budget-dnf", "1"), "E y. x < y & ~(y < 1)",
         "case-split budget exceeded"),
        (("--budget-depth", "0"), "E y. x < y",
         "quantifier depth budget exceeded"),
    ], ids=["dnf-conjunction", "dnf-disjunction", "case-split", "depth"])
    def test_zero_dnf_budget_is_the_budget_error(self, capsys, budget,
                                                 formula, message):
        rc, out, err = run(capsys, *budget, "eliminate",
                           "--model", "lex2_sub1.json", formula)
        assert rc == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_zero_counts_are_accepted(self, capsys):
        rc, out, _ = run(capsys, "fuzz", "--model", "lex2_sub1.json",
                         "--count", "2", "--assignments", "0")
        assert rc == 0 and out.startswith("checked 2 formulas, 0 assignments")

    def test_byte_identical_reports(self, capsys):
        args = ["--format", "json", "fuzz", "--model", "lex3_val_1pi0.json",
                "--count", "20", "--assignments", "25", "--seed", "99"]
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2
