"""Command-line front end.

Exit codes: 0 success, 1 domain error (e.g. a nonvaluational cut was given
to the eliminator, an exhausted budget, malformed JSON input, or an
``eval`` variable left unassigned), 2 usage or syntax errors.  JSON output
is stable-keyed, and identical configuration plus seed yields
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .classifier import canonicalize_cut, classify
from .cutqe import (SkolemDefinition, build_structure, qe_star, skolemize)
from .doagqe import QeOptions
from .errors import ConvexQEError, FormulaSyntaxError
from .fuzz import MAX_DEPTH, FuzzConfig, run_fuzz
from .models import (START_BITS, Point, eval_formula, json_rational,
                     load_model, rat_text, read_json)
from .parser import parse_formula, parse_term
from .piecewise import (UnaryPiecewiseLinear, binary_from_json,
                        check_pluslike, fn_from_json, normalize_monotone,
                        unary_to_json)
from .skolemlab import choice_violation, obstruction_find, verify_skolem
from .syntax import free_vars, is_quantifier_free, print_formula

FIXTURES_ENV = "CONVEXQE_FIXTURES"


def fixtures_dir() -> str:
    env = os.environ.get(FIXTURES_ENV)
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "fixtures")


def resolve_model_path(path: str) -> str:
    if os.path.exists(path):
        return path
    candidate = os.path.join(fixtures_dir(), path)
    if os.path.exists(candidate):
        return candidate
    raise ConvexQEError(f"model file not found: {path}")


def _emit(args, payload: dict, human: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(human)


def _count(text: str) -> int:
    """A non-negative integer argument (a negative one is a usage error)."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


def _depth(text: str) -> int:
    """A fuzz formula depth, at most MAX_DEPTH (a deeper formula is
    expected to pass the default DNF budget)."""
    n = _count(text)
    if n > MAX_DEPTH:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_DEPTH}: {n}")
    return n


def _precision(text: str) -> int:
    """A bit budget that reaches the first refinement (a smaller one is a
    usage error: it could decide no irrational comparison)."""
    n = int(text)
    if n < START_BITS:
        raise argparse.ArgumentTypeError(
            f"must be at least {START_BITS} bits: {n}")
    return n


def _qe_options(args) -> QeOptions:
    return QeOptions(dnf_budget=args.budget_dnf, depth_budget=args.budget_depth)


def _point(coords, m) -> Point:
    if type(coords) is not list or len(coords) != m.dim:
        raise ValueError(f"a point is a list of {m.dim} coordinates, "
                         f"not {coords!r}")
    return Point(tuple(json_rational(c) for c in coords))


def _load_assignment(text: str, m) -> dict:
    """The --assign object: each variable's point of m, a JSON list of
    m.dim rationals."""
    try:
        return {var: _point(coords, m)
                for var, coords in json.loads(text).items()}
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConvexQEError(f"bad --assign JSON object: {exc}") from None


def _sk_to_json(sk: SkolemDefinition) -> list:
    return [{"guard": print_formula(g), "witness": str(w)} for g, w in sk.cases]


def _sk_from_json(data, target: str) -> SkolemDefinition:
    try:
        cases = tuple((parse_formula(c["guard"]), parse_term(c["witness"]))
                      for c in data)
    except (KeyError, TypeError):
        raise ConvexQEError('bad Skolem definition: each case needs a '
                            '"guard" and a "witness"') from None
    return SkolemDefinition(target, cases)


def cmd_parse(args) -> int:
    f = parse_formula(args.formula)
    text = print_formula(f)
    _emit(args, {"formula": text}, text)
    return 0


def cmd_eliminate(args) -> int:
    m = load_model(resolve_model_path(args.model))
    f = parse_formula(args.formula)
    out = qe_star(f, build_structure(m), _qe_options(args))
    text = print_formula(out)
    _emit(args, {"input": args.formula, "quantifier_free": text}, text)
    return 0


def cmd_classify(args) -> int:
    m = load_model(resolve_model_path(args.model))
    report = classify(m).to_json(m)
    canon = None
    if report["epsilon_witness"] is not None:  # valuational cuts only
        canon = canonicalize_cut(m).describe()
    report["canonical"] = canon
    human = (f"cut_kind: {report['cut_kind']}\n"
             f"stabilizer_level: {report['stabilizer_level']}\n"
             f"epsilon_witness: {report['epsilon_witness']}\n"
             f"uniquely_realizable: {report['uniquely_realizable']}")
    _emit(args, report, human)
    return 0


def cmd_skolemize(args) -> int:
    m = load_model(resolve_model_path(args.model))
    f = parse_formula(args.formula)
    sk = skolemize(f, args.target, build_structure(m), _qe_options(args))
    payload = _sk_to_json(sk)
    human = "\n".join(f"if {c['guard']}  ->  {args.target} := {c['witness']}"
                      for c in payload) or "(unsatisfiable everywhere)"
    _emit(args, {"target": args.target, "cases": payload}, human)
    return 0


def cmd_verify_skolem(args) -> int:
    m = load_model(resolve_model_path(args.model))
    phi = parse_formula(args.phi)
    data = read_json(args.sk)
    if isinstance(data, dict) and "cases" in data:
        data = data["cases"]
    sk = _sk_from_json(data, args.target)
    rep = verify_skolem(m, phi, sk, samples=args.samples, seed=args.seed)
    _emit(args, rep.to_json(),
          f"{'PASS' if rep.passed else 'FAIL'} "
          f"({rep.applicable}/{rep.samples} applicable samples)")
    return 0 if rep.passed else 1


def cmd_obstruct(args) -> int:
    m = load_model(resolve_model_path(args.model))
    fn = fn_from_json(read_json(args.fn))
    if not isinstance(fn, UnaryPiecewiseLinear):
        raise ConvexQEError("obstruction search needs a unary function")
    w = obstruction_find(m, fn)
    _emit(args, w.to_json(),
          f"witness {w.point} violates: {w.violation}")
    return 0


def cmd_choice_demo(args) -> int:
    m = load_model(resolve_model_path(args.model))
    if args.fn:
        cand = fn_from_json(read_json(args.fn))
    else:
        cand = UnaryPiecewiseLinear.affine(1, 0)
    v = choice_violation(m, cand, seed=args.seed)
    _emit(args, v.to_json(), f"{v.kind}: {v.detail}")
    return 0


def cmd_normalize_monotone(args) -> int:
    fn = fn_from_json(read_json(args.fn))
    if not isinstance(fn, UnaryPiecewiseLinear):
        raise ConvexQEError("normalization needs a unary function")
    h = normalize_monotone(fn)
    _emit(args, unary_to_json(h), json.dumps(unary_to_json(h), sort_keys=True))
    return 0


def _witness_json(w):
    """A ``check_pluslike`` witness as JSON: each tuple a list, the
    boundary index an integer and each rational a string."""
    if type(w) is tuple:
        return [_witness_json(x) for x in w]
    return w if type(w) is int else rat_text(w)


def cmd_check_pluslike(args) -> int:
    fn = binary_from_json(read_json(args.fn))
    rep = check_pluslike(fn)
    payload = {"pluslike": rep.pluslike, "reason": rep.reason,
               "witness": _witness_json(rep.witness) if rep.witness else None}
    _emit(args, payload, "pluslike" if rep.pluslike else f"violation: {rep.reason}")
    return 0


def cmd_eval(args) -> int:
    m = load_model(resolve_model_path(args.model))
    f = parse_formula(args.formula)
    asgn = _load_assignment(args.assign, m) if args.assign else {}
    if not is_quantifier_free(f):
        raise ConvexQEError("eval needs a quantifier-free formula")
    missing = free_vars(f) - asgn.keys()
    if missing:
        raise ConvexQEError(
            f"unassigned variables: {', '.join(sorted(missing))}")
    val = eval_formula(m, f, asgn, precision_budget=args.precision)
    _emit(args, {"value": val}, "true" if val else "false")
    return 0


def cmd_fuzz(args) -> int:
    m = load_model(resolve_model_path(args.model))
    config = FuzzConfig(formulas=args.count, assignments=args.assignments,
                        seed=args.seed, depth=args.depth,
                        dnf_budget=args.budget_dnf,
                        depth_budget=args.budget_depth,
                        inject_bug=args.inject_bug)
    report = run_fuzz(m, config)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(f"checked {report['checked_formulas']} formulas, "
              f"{report['total_assignments']} assignments, "
              f"{report['discrepancy_count']} discrepancies")
        for d in report["discrepancies"][:5]:
            print(f"  mismatch: {d['minimized']} at {d['assignment']}")
    return 0 if report["discrepancy_count"] == 0 else 1


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="convexqe",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--format", choices=("human", "json"), default="human")
    ap.add_argument("--precision", type=_precision, default=4096,
                    help=f"interval refinement bit budget, at least "
                         f"{START_BITS} (eval only)")
    ap.add_argument("--budget-dnf", type=_count, default=50_000,
                    help="DNF clause budget (eliminate, skolemize, fuzz)")
    ap.add_argument("--budget-depth", type=_count, default=64,
                    help="quantifier depth budget (eliminate, skolemize, "
                         "fuzz)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="echo the canonical printing")
    p.add_argument("formula")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eliminate", help="quantifier-free equivalent")
    p.add_argument("--model", required=True)
    p.add_argument("formula")
    p.set_defaults(func=cmd_eliminate)

    p = sub.add_parser("classify", help="cut classification report")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("skolemize", help="guarded witness definition")
    p.add_argument("--model", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("formula")
    p.set_defaults(func=cmd_skolemize)

    p = sub.add_parser("verify-skolem", help="sampled witness verification")
    p.add_argument("--model", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--target", default="y")
    p.add_argument("--sk", required=True, help="JSON guard/witness list")
    p.add_argument("--samples", type=_count, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_skolem)

    p = sub.add_parser("obstruct", help="witness against increasing-in-U maps")
    p.add_argument("--model", required=True)
    p.add_argument("--fn", required=True)
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("choice-demo", help="definable-choice failure")
    p.add_argument("--model", required=True)
    p.add_argument("--fn")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_choice_demo)

    p = sub.add_parser("normalize-monotone", help="reflection cascade")
    p.add_argument("--fn", required=True)
    p.set_defaults(func=cmd_normalize_monotone)

    p = sub.add_parser("check-pluslike", help="continuity and monotonicity")
    p.add_argument("--fn", required=True)
    p.set_defaults(func=cmd_check_pluslike)

    p = sub.add_parser("eval", help="evaluate a quantifier-free formula")
    p.add_argument("--model", required=True)
    p.add_argument("--assign", help='JSON object, e.g. {"x": ["1", "0"]}')
    p.add_argument("formula")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fuzz", help="differential elimination fuzzing")
    p.add_argument("--model", required=True)
    p.add_argument("--count", type=_count, default=100)
    p.add_argument("--assignments", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=_depth, default=3)
    p.add_argument("--inject-bug", action="store_true",
                   help="self-test: negate one elimination rule")
    p.set_defaults(func=cmd_fuzz)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FormulaSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except ConvexQEError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nested too deeply (recursion limit reached)",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
