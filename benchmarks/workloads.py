"""The three benchmark workloads, each driving convexqe's public API.

A workload turns a seed into a fixed batch of inputs (``make_inputs``) and
runs one pass over the batch (``run_pass``).  Every pass returns its wall
time, per-request and per-check latencies, exact counts and the correctness
gate's findings.  A pass is deterministic in its counts: repeating it, with
or without tracing, must reproduce them exactly.

Import this module only after ``convexqe`` is importable: the benchmark's
set-up re-imports the package, and this module binds the final import.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from convexqe.cutqe import CutClass, qe_star, skolemize
from convexqe.doagqe import QeOptions
from convexqe.errors import BudgetExceededError, SkolemShapeUnsupportedError
from convexqe.fuzz import (SAMPLE_DENOM, VAR_POOL, FuzzConfig, gen_atom,
                           gen_formula, gen_int_point, int_sample_pool,
                           run_fuzz)
from convexqe.models import IntCompiledFormula
from convexqe.oracle import IntOracleEval, oracle_compile, oracle_truth
from convexqe.parser import parse_formula
from convexqe.skolemlab import verify_skolem
from convexqe.syntax import (And, AtomF, Exists, Not, Or, children,
                             free_vars, print_formula)

from tracer import Tracer, perf_counter

VALUATIONAL = ("lex2_sub1", "lex3_sub2", "lex2_val_1inf", "lex3_val_1pi0")
ELIMINABLE = VALUATIONAL + ("lex2_rat_11",)

CLASS_SPAN = {
    CutClass.SUBGROUP: "cutqe.qe_star.subgroup",
    CutClass.COSET_CUT: "cutqe.qe_star.coset_topped_cut",
    CutClass.IRRATIONAL_CUT: "cutqe.qe_star.irrational_cut",
    CutClass.RATIONAL_CUT: "cutqe.qe_star.rational_cut",
}


@dataclass
class PassResult:
    """One pass over a batch.  Timings are keyed by item index, so passes
    over the same inputs can be combined item by item."""

    segments: list[float] = field(default_factory=list)  # sum = wall time
    factors: list[float] = field(default_factory=list)  # speed, per item
    request_ms: dict[int, float] = field(default_factory=dict)
    check_ms: dict[int, float] = field(default_factory=dict)  # completed
    check_s: dict[int, float] = field(default_factory=dict)  # failed too
    checked_assignments: int = 0
    attempted: int = 0
    failed: int = 0
    counts: dict = field(default_factory=dict)
    gate_errors: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.segments)

    def timed_items(self, items, handle, probe, tracer) -> None:
        """handle(i, item) for each item in a ``bench.item`` span; one
        segment and one speed factor per item, the probe running between
        items, outside the segments."""
        for i, item in enumerate(items):
            self.factors.append(probe.factor())
            t0 = perf_counter()
            with tracer.span("bench.item"):
                handle(i, item)
            self.segments.append(perf_counter() - t0)

    def scaled(self, name: str):
        """The named per-item timings scaled to nominal machine speed."""
        values, f = getattr(self, name), self.factors
        if isinstance(values, dict):
            return {i: v * f[i] for i, v in values.items()}
        return [v * f[i] for i, v in enumerate(values)]


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _atom_count(f) -> int:
    n, stack = 0, [f]
    while stack:
        g = stack.pop()
        if isinstance(g, AtomF):
            n += 1
        stack.extend(children(g))
    return n


def _oracle_int_eval(m, f):
    return IntOracleEval(oracle_compile(m, f), SAMPLE_DENOM)


def _sample(rng, m, pool, fv):
    return {v: gen_int_point(rng, m, pool) for v in fv}


def _failure_counts(tracer) -> dict:
    return {f"raised.{name}.{kind}": n
            for (name, kind), n in sorted(tracer.failures.items())}


# ---------------------------------------------------------------------------
# fuzz_diff: criterion-1 traffic through run_fuzz


FUZZ_JOBS_PER_FIXTURE = 50
FUZZ_FORMULAS_PER_JOB = 4
FUZZ_ASSIGNMENTS = 1000


class FuzzDiff:
    """run_fuzz jobs of four stock formulas, 1000 assignments each."""

    name = "fuzz_diff"

    def make_inputs(self, ctx, seed, warmup=False):
        jobs_per, formulas = ((1, 2) if warmup else
                              (FUZZ_JOBS_PER_FIXTURE, FUZZ_FORMULAS_PER_JOB))
        rng = _rng(self.name, seed, "warmup" if warmup else "timed")
        return [(name, FuzzConfig(formulas=formulas,
                                  assignments=FUZZ_ASSIGNMENTS,
                                  seed=rng.getrandbits(32)))
                for name in VALUATIONAL for _ in range(jobs_per)]

    def run_pass(self, ctx, jobs, tracer) -> PassResult:
        """Gate: no discrepancy, no budget skip by the engine, and every
        formula either checked on all its assignments or refused by the
        oracle's budget.  Oracle refusals are counted in ``failed``, as
        eliminate_cut counts the oracle's RecursionErrors."""
        res = PassResult()
        counts = Counter(checked_formulas=0, budget_skips=0,
                         total_assignments=0, discrepancies=0, failed_jobs=0)
        job = self._job_traced if tracer.on else self._job
        skipped = []

        def handle(i, item):
            name, cfg = item
            res.attempted += cfg.formulas
            t0 = perf_counter()
            try:
                rep = job(tracer, ctx.models[name], ctx.structures[name], cfg)
            except Exception:  # counted: the job checked nothing it owes
                res.check_s[i] = perf_counter() - t0
                counts["failed_jobs"] += 1
                res.gate_errors.append(f"{name} seed {cfg.seed}: job raised")
                return
            dt = perf_counter() - t0
            res.check_s[i] = dt
            res.request_ms[i] = res.check_ms[i] = dt * 1e3
            for key in ("checked_formulas", "budget_skips",
                        "total_assignments"):
                counts[key] += rep[key]
            counts["discrepancies"] += rep["discrepancy_count"]
            if rep["budget_skips"]:
                skipped.append(item)
            if rep["discrepancy_count"]:
                res.gate_errors.append(
                    f"{name} seed {cfg.seed}: {rep['discrepancy_count']} "
                    f"discrepancies")

        res.timed_items(jobs, handle, ctx.probe, tracer)
        # run_fuzz does not say which side ran out of budget: replay the
        # jobs that skipped, untimed, to tell the engine from the oracle
        sides = tracer
        if not tracer.on:
            sides = Tracer(False)
            for name, cfg in skipped:
                self._job_traced(sides, ctx.models[name],
                                 ctx.structures[name], cfg)
        engine = sides.failures[("cutqe.qe_star", "BudgetExceededError")]
        oracle = sides.failures[("oracle.compile", "BudgetExceededError")]
        counts.update(engine_budget_skips=engine, oracle_budget_skips=oracle)
        checked = counts["checked_formulas"]
        res.failed = res.attempted - checked + counts["discrepancies"]
        if engine or checked + oracle != res.attempted:
            res.gate_errors.append(
                f"{engine} engine budget skips; {checked} formulas checked "
                f"and {oracle} refused by the oracle of {res.attempted}")
        if counts["total_assignments"] != checked * FUZZ_ASSIGNMENTS:
            res.gate_errors.append(
                f"{counts['total_assignments']} assignments for {checked} "
                f"checked formulas")
        res.checked_assignments = counts["total_assignments"]
        res.counts = dict(counts)
        return res

    @staticmethod
    def _job(tracer, m, st, cfg):
        return tracer.call("fuzz.run_fuzz", run_fuzz, m, cfg)

    @staticmethod
    def _job_traced(tracer, m, st, cfg):
        """run_fuzz's loop, call for call, with each layer in a span.

        Draws the same formulas and assignments from the same stream, so
        its counts must equal run_fuzz's report.  A discrepancy stops the
        formula's assignments as run_fuzz does; shrinking is left out
        because it draws nothing from the stream.
        """
        rng = random.Random(cfg.seed)
        options = QeOptions(dnf_budget=cfg.dnf_budget,
                            depth_budget=cfg.depth_budget,
                            inject_bug=cfg.inject_bug)
        pool = int_sample_pool(m)
        qe_names = ("cutqe.qe_star", CLASS_SPAN[st.cls])
        checked = skips = total = discrepancies = 0
        for _ in range(cfg.formulas):
            f = tracer.call("fuzz.gen_formula", gen_formula, rng,
                            list(VAR_POOL[:2]), cfg.depth,
                            cfg.quantifier_depth)
            fv = tuple(sorted(free_vars(f)))
            try:
                out = tracer.call(qe_names, qe_star, f, st, options)
                comp = tracer.call("models.compile", IntCompiledFormula,
                                   m, out, SAMPLE_DENOM)
                orc = tracer.call("oracle.compile", _oracle_int_eval,
                                  m, f)
            except BudgetExceededError:
                skips += 1
                continue
            checked += 1
            tracer.counts["cutqe.qe_star.out_atoms"] += _atom_count(out)
            for _ in range(cfg.assignments):
                ints = tracer.call("fuzz.sample", _sample, rng, m, pool,
                                   fv)
                total += 1
                got = tracer.call("models.eval", comp.eval, ints)
                expected = tracer.call("oracle.eval", orc.eval, ints)
                if got != expected:
                    discrepancies += 1
                    break
        return {"checked_formulas": checked, "budget_skips": skips,
                "total_assignments": total,
                "discrepancy_count": discrepancies}


# ---------------------------------------------------------------------------
# eliminate_cut: comparison-table existentials, parse -> qe_star -> print


ELIM_PER_FIXTURE = 400
ELIM_ASSIGNMENTS = 20
COEFFS = ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2", "3/2", "4")
CONSTS = ("1", "-1", "2", "-2", "1/2", "-1/2", "3")


def _cut_term(shapes, terms) -> str:
    parts = [(terms.choice(COEFFS), "y")]
    for v in ("x", "z"):
        if shapes.random() < 0.5:
            parts.append((terms.choice(COEFFS), v))
    terms.shuffle(parts)
    text = " + ".join(f"{c}*{v}" for c, v in parts)
    r = shapes.random()
    if r < 0.35:
        text += " + " + terms.choice(CONSTS)
    elif r < 0.55:
        text += f" + {terms.choice(('1', '-1', '2', '-2'))}*e_in"
    return text


def _cut_literal(shapes, terms) -> str:
    t = _cut_term(shapes, terms)
    r = shapes.random()
    lit = f"U({t})" if r < 0.4 else f"I({t})" if r < 0.7 else f"{t} < 0"
    return "~" + lit if shapes.random() < 0.4 else lit


def cut_formula_text(shapes, terms) -> str:
    """E y. L1 & ... & Lk, k in 2..4, each literal mentioning y.  The shape
    (k, and each literal's variables, kind of constant, kind and negation)
    comes from ``shapes``; coefficients and constants from ``terms``."""
    k = shapes.randint(2, 4)
    return "E y. " + " & ".join(_cut_literal(shapes, terms)
                                for _ in range(k))


class EliminateCut:
    """`convexqe eliminate` requests, each checked by the oracle."""

    name = "eliminate_cut"

    def make_inputs(self, ctx, seed, warmup=False):
        """The seed draws every term; the literal shapes follow one fixed
        stream per fixture.  Oracle cost is heavy-tailed and set mostly by
        the shapes, so fixing them keeps the seed-to-seed spread of the
        totals near half of what fully random shapes give."""
        per = 4 if warmup else ELIM_PER_FIXTURE
        terms = _rng(self.name, seed, "warmup" if warmup else "timed")
        inputs = []
        for name in ELIMINABLE:
            shapes = _rng(self.name, "shapes", name)
            inputs += [(name, cut_formula_text(shapes, terms),
                        terms.getrandbits(32)) for _ in range(per)]
        return inputs

    def run_pass(self, ctx, requests, tracer) -> PassResult:
        res = PassResult()
        counts = Counter(requests=0, out_atoms=0, out_chars=0,
                         checked_requests=0, checked_assignments=0,
                         disagreements=0)

        def handle(i, item):
            name, text, sample_seed = item
            m, st = ctx.models[name], ctx.structures[name]
            res.attempted += 1
            counts["requests"] += 1
            t0 = perf_counter()
            try:
                f = tracer.call("parser.parse_formula", parse_formula,
                                text)
                out = tracer.call(("cutqe.qe_star", CLASS_SPAN[st.cls]),
                                  qe_star, f, st)
                printed = tracer.call("syntax.print_formula",
                                      print_formula, out)
            except Exception:  # counted per layer and type by the tracer
                res.failed += 1
                return
            t1 = perf_counter()
            res.request_ms[i] = (t1 - t0) * 1e3
            atoms = _atom_count(out)
            counts["out_atoms"] += atoms
            counts["out_chars"] += len(printed)
            tracer.counts["cutqe.qe_star.out_atoms"] += atoms
            tracer.counts["syntax.print_formula.out_chars"] += len(printed)
            try:
                bad = self._check(tracer, m, f, out, sample_seed)
            except Exception:  # counted per layer and type by the tracer
                res.check_s[i] = perf_counter() - t1
                res.failed += 1
                return
            dt = perf_counter() - t1
            res.check_s[i] = dt
            res.check_ms[i] = dt * 1e3
            counts["checked_requests"] += 1
            counts["checked_assignments"] += ELIM_ASSIGNMENTS
            if bad:
                counts["disagreements"] += bad
                res.gate_errors.append(
                    f"{name}: {text} -> {printed}: {bad} of "
                    f"{ELIM_ASSIGNMENTS} assignments disagree with the oracle")

        res.timed_items(requests, handle, ctx.probe, tracer)
        res.checked_assignments = counts["checked_assignments"]
        res.counts = {**counts, **_failure_counts(tracer)}
        return res

    @staticmethod
    def _check(tracer, m, f, out, sample_seed) -> int:
        orc = tracer.call("oracle.compile", _oracle_int_eval, m, f)
        comp = tracer.call("models.compile", IntCompiledFormula, m, out,
                           SAMPLE_DENOM)
        fv = tuple(sorted(free_vars(f)))
        rng = random.Random(sample_seed)
        pool = int_sample_pool(m)
        bad = 0
        for _ in range(ELIM_ASSIGNMENTS):
            ints = tracer.call("fuzz.sample", _sample, rng, m, pool, fv)
            got = tracer.call("models.eval", comp.eval, ints)
            expected = tracer.call("oracle.eval", orc.eval, ints)
            bad += got != expected
        return bad


# ---------------------------------------------------------------------------
# skolem_verify: criterion-5 traffic, skolemize then verify_skolem


SKOLEM_PER_FIXTURE = 150
SKOLEM_SAMPLES = 500


def random_qf(rng, vars, depth):
    """Quantifier-free formula over gen_atom atoms (criterion 5's shape)."""
    if depth <= 0 or rng.random() < 0.35:
        return gen_atom(rng, vars)
    r = rng.random()
    if r < 0.35:
        return Not(random_qf(rng, vars, depth - 1))
    cls = And if r < 0.75 else Or
    return cls(random_qf(rng, vars, depth - 1),
               random_qf(rng, vars, depth - 1))


class SkolemVerify:
    """Satisfiable random formulas: skolemize for y, verify 500 samples."""

    name = "skolem_verify"

    def make_inputs(self, ctx, seed, warmup=False):
        per = 2 if warmup else SKOLEM_PER_FIXTURE
        tag = "warmup" if warmup else "timed"
        return [(name, f"{self.name}:{seed}:{tag}:{name}")
                for name in VALUATIONAL for _ in range(per)]

    def run_pass(self, ctx, fixtures, tracer) -> PassResult:
        """One item per definition attempt: the draws before it (each
        closure decided by oracle_truth), skolemize, then verify_skolem.
        Consecutive items on one fixture share its draw stream."""
        res = PassResult()
        counts = Counter(drawn=0, accepted=0, shape_redraws=0,
                         definitions=0, cases=0, samples=0, applicable=0,
                         passed=0)
        streams: dict[str, random.Random] = {}

        def handle(i, item):
            name, stream = item
            m, st = ctx.models[name], ctx.structures[name]
            if stream not in streams:
                streams[stream] = random.Random(stream)
            rng = streams[stream]
            while True:
                phi = random_qf(rng, ["x", "y"], 3)
                if "y" not in free_vars(phi):
                    continue
                counts["drawn"] += 1
                closed = phi
                for v in sorted(free_vars(phi)):
                    closed = Exists(v, closed)
                try:
                    sat = tracer.call("oracle.truth", oracle_truth, m,
                                      closed, {})
                except Exception:  # counted per layer and type; draw again
                    res.attempted += 1
                    res.failed += 1
                    continue
                if not sat:
                    continue
                counts["accepted"] += 1
                verify_seed = rng.getrandbits(32)
                t0 = perf_counter()
                try:
                    sk = tracer.call("cutqe.skolemize", skolemize, phi, "y",
                                     st)
                except SkolemShapeUnsupportedError:  # documented refusal
                    counts["shape_redraws"] += 1
                    continue
                except Exception:  # counted per layer and type
                    res.attempted += 1
                    res.failed += 1
                    res.gate_errors.append(f"{name}: skolemize raised")
                    return
                break
            res.attempted += 1
            t1 = perf_counter()
            try:
                rep = tracer.call("skolemlab.verify_skolem", verify_skolem,
                                  m, phi, sk, SKOLEM_SAMPLES, verify_seed, st)
            except Exception:  # counted per layer and type
                res.check_s[i] = perf_counter() - t1
                res.failed += 1
                res.gate_errors.append(f"{name}: verify_skolem raised")
                return
            t2 = perf_counter()
            res.request_ms[i] = (t1 - t0) * 1e3
            res.check_ms[i] = (t2 - t1) * 1e3
            res.check_s[i] = t2 - t1
            counts["definitions"] += 1
            counts["cases"] += len(sk.cases)
            counts["samples"] += rep.samples
            counts["applicable"] += rep.applicable
            if rep.passed:
                counts["passed"] += 1
            else:
                res.failed += 1
                res.gate_errors.append(
                    f"{name}: {print_formula(phi)}: {rep.failure}")

        res.timed_items(fixtures, handle, ctx.probe, tracer)
        res.checked_assignments = counts["samples"]
        tracer.counts["cutqe.skolemize.cases"] += counts["cases"]
        tracer.counts["cutqe.skolemize.shape_redraws"] += \
            counts["shape_redraws"]
        tracer.counts["skolemlab.verify_skolem.applicable"] += \
            counts["applicable"]
        tracer.counts["oracle.truth.accepted"] += counts["accepted"]
        tracer.counts["oracle.truth.drawn"] += counts["drawn"]
        res.counts = {**counts, **_failure_counts(tracer)}
        return res


WORKLOADS = {w.name: w for w in (FuzzDiff(), EliminateCut(), SkolemVerify())}
