import random
from fractions import Fraction

import pytest

from convexqe.cutqe import build_structure, qe_star
from convexqe.doagqe import QeOptions
from convexqe.errors import BudgetExceededError
from convexqe.fuzz import (SAMPLE_DENOM, VAR_POOL, FuzzConfig, _shrink,
                           gen_formula, int_sample_pool, run_fuzz)
from convexqe.models import Point, eval_formula, model_to_json
from convexqe.oracle import oracle_compile
from convexqe.syntax import free_vars, print_formula


def replay_fuzz(m, config: FuzzConfig) -> dict:
    """run_fuzz's report rebuilt with one rng.choice call per coordinate
    and the reference evaluators on Fraction points."""
    rng = random.Random(config.seed)
    st = build_structure(m)
    options = QeOptions(dnf_budget=config.dnf_budget,
                        depth_budget=config.depth_budget,
                        inject_bug=config.inject_bug)
    pool = int_sample_pool(m)
    discrepancies = []
    skips = checked = total = 0
    for _ in range(config.formulas):
        f = gen_formula(rng, list(VAR_POOL[:2]), config.depth,
                        config.quantifier_depth)
        fv = tuple(sorted(free_vars(f)))
        try:
            out = qe_star(f, st, options)
            decision = oracle_compile(m, f)
        except BudgetExceededError:
            skips += 1
            continue
        checked += 1
        for _ in range(config.assignments):
            ints = {}
            for v in fv:
                ints[v] = tuple(rng.choice(pool) for _ in range(m.dim))
            total += 1
            asgn = {v: Point(tuple(Fraction(c, SAMPLE_DENOM) for c in p))
                    for v, p in ints.items()}
            got = eval_formula(m, out, asgn)
            expected = decision.eval_points(asgn)
            if got != expected:
                small = _shrink(m, st, f, ints, options)
                discrepancies.append({
                    "formula": print_formula(f),
                    "minimized": print_formula(small),
                    "assignment": {v: [str(c) for c in p.coords]
                                   for v, p in sorted(asgn.items())},
                    "qe_output": print_formula(out),
                    "expected": expected,
                    "got": got,
                })
                break
    return {"config": config.to_json(), "model": model_to_json(m),
            "checked_formulas": checked, "budget_skips": skips,
            "total_assignments": total,
            "discrepancy_count": len(discrepancies),
            "discrepancies": discrepancies}


class TestRunFuzzDraws:
    def test_report_matches_per_coordinate_replay(self, models):
        found = 0
        for name, seed, bug in (("lex2_sub1", 0, True),
                                ("lex3_sub2", 3, True),
                                ("lex3_val_1pi0", 11, False),
                                ("lex2_val_1inf", 5, False)):
            config = FuzzConfig(formulas=25, assignments=30, seed=seed,
                                inject_bug=bug)
            report = run_fuzz(models[name], config)
            assert report == replay_fuzz(models[name], config), name
            assert report["total_assignments"] > 0
            found += report["discrepancy_count"]
        # a discrepancy records its assignment, so the draws are compared too
        assert found == 2

    @pytest.mark.parametrize("formulas, assignments", [(-1, 5), (2, -3)])
    def test_negative_counts_are_refused(self, m_sub2, formulas,
                                         assignments):
        with pytest.raises(ValueError):
            run_fuzz(m_sub2, FuzzConfig(formulas=formulas,
                                        assignments=assignments))

    def test_negative_depth_is_refused(self, m_sub2):
        with pytest.raises(ValueError):
            run_fuzz(m_sub2, FuzzConfig(formulas=2, depth=-1))
