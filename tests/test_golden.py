"""Golden output: sha256 digests of printed elimination and Skolem output,
of fuzz and Skolem-verification reports, of oracle decisions, and of the
fuzz command's output over fixed, seeded corpora.  Any change to term arithmetic, literal order,
printing or the sampled assignments that alters a single output byte fails
here."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

import convexqe.fuzz as fuzz
from convexqe.cli import main
from convexqe.cutqe import SkolemDefinition, build_structure, qe_star, skolemize
from convexqe.errors import ConvexQEError
from convexqe.fuzz import (SAMPLE_DENOM, FuzzConfig, gen_atom, gen_formula,
                           int_sample_pool, pool_drawer, run_fuzz)
from convexqe.normalform import simplify
from convexqe.oracle import (DEFAULT_ORACLE_BUDGET, IntOracleEval,
                             _Decomposer, oracle_compile)
from convexqe.parser import parse_formula
from convexqe.skolemlab import verify_skolem
from convexqe.syntax import Exists, Not, Term, conj, free_vars, print_formula

from conftest import VALUATIONAL_NAMES, get_model

ELIMINABLE_NAMES = VALUATIONAL_NAMES + ["lex2_rat_11"]
QE_FORMULAS = 200
SKOLEM_FORMULAS = 60

QE_DIGESTS = {
    "lex2_sub1":
        "ee577516da83c6175bb80bd5a6c41642bcee51a5b6733c0ccc5b0080b5412547",
    "lex3_sub2":
        "d9d645eb87c419ca3a20b18c1332182e73f7b9ae86f02a8fc802874d6d7f8373",
    "lex2_val_1inf":
        "840d7762778048c063472740eb04393b5d47fdd03f26bfa8097f3a0664e338a5",
    "lex3_val_1pi0":
        "023afddf4b6cb930f2b22c6e7ec3b579341b5b0db49a1bfa66d1b3369fe3d411",
    "lex2_rat_11":
        "65e3715b96545d3934a442fb733ba774ba36c6a0db37a7562301b25f07243b04",
}

SKOLEM_DIGESTS = {
    "lex2_sub1":
        "6e067c65bc9adda0e5dd41efd2cecf180b52df3371183e5cabfcf9a98f492b00",
    "lex3_sub2":
        "27a428d688e7cc34b13d50d883a36c8b747c3e5c21b53d088329d1a30930652f",
    "lex2_val_1inf":
        "0a38aabbf0aab09d47d831d03e4386471d1b4d73d9e00e8232ab3c9d4364a07c",
    "lex3_val_1pi0":
        "019b607d3640bcfb6d907465bc2d087eb4d871f390f45bcdb4c7ed8432040b06",
}


# per fixture, a clean config and one with the injected bug; three of the
# latter record a discrepancy, and so the assignment drawn for it
FUZZ_CONFIGS = {
    "lex2_sub1": [FuzzConfig(formulas=40, assignments=50, seed=1),
                  FuzzConfig(formulas=25, assignments=30, seed=0,
                             inject_bug=True)],
    "lex3_sub2": [FuzzConfig(formulas=40, assignments=50, seed=2),
                  FuzzConfig(formulas=25, assignments=30, seed=3,
                             inject_bug=True)],
    "lex2_val_1inf": [FuzzConfig(formulas=40, assignments=50, seed=4),
                      FuzzConfig(formulas=30, assignments=40, seed=3,
                                 inject_bug=True)],
    "lex3_val_1pi0": [FuzzConfig(formulas=40, assignments=50, seed=11),
                      FuzzConfig(formulas=30, assignments=40, seed=6,
                                 inject_bug=True)],
}
VERIFY_DEFINITIONS = 20

FUZZ_DIGESTS = {
    "lex2_sub1":
        "530d0714618f7d5ef8e5428df4d32b8a38014b78fe152c1e0a5843094295a1b0",
    "lex3_sub2":
        "6bd3401813ce1720283423f8e7597bf05cf2e56c5d7400ed4a4ca6ae9b5ca7a7",
    "lex2_val_1inf":
        "a71ca6a78695560fc021529325de7473056af1f4450c16a52fba8dcdc8cb870e",
    "lex3_val_1pi0":
        "4721e203fabf5cfe7e98b445d19ebbd5fe9c40da3d073817d9341f554dd8a0fa",
}

VERIFY_DIGESTS = {
    "lex2_sub1":
        "7cc1a44bb2ca0eec2f25f814584118ab1c4d2837bcd209db8acba216dccf0e0e",
    "lex3_sub2":
        "48da228fe160d9651234185c53c8bff6dd9381e94906d6108771bfc19f425105",
    "lex2_val_1inf":
        "803e81ce71a342b58d61224087790fcecf584e47a1689af34529bd320ab6d949",
    "lex3_val_1pi0":
        "f55ae177694b760307d78d5fff3c27c14e1079abb8a283472074e3687b981125",
}

# nested quantifiers at quantifier depth 2-3, then E y. over conjunctions
ORACLE_NESTED = 200
ORACLE_CONJ = 100
ORACLE_ASSIGNMENTS = 20

ORACLE_DIGESTS = {
    "lex2_sub1":
        "a268aa4129aeedc2e8cced8e590a4e1a4f465bac98c298a1ec2abccd61e1ea34",
    "lex3_sub2":
        "d96f9e589ec8fef8b34232f6e7ac6653c7bfe41e0cd0df20465e859a8f248b26",
    "lex2_val_1inf":
        "6a3d66f001d44d674d0138f40c808c30aa198241c2c30363d6445b0ab22dbd10",
    "lex3_val_1pi0":
        "ea9c56b6829a02eac7446ef09ab4881ce2221eecc377e43d3a8411eedb9930d6",
    "lex2_rat_11":
        "d3efb7f6b7d37402328b9f894580a4b17b88df30b789a782e60f745e6849cb51",
}

CLI_FUZZ_ARGS = ["--format", "json", "fuzz", "--model", "lex2_sub1.json",
                 "--count", "25", "--assignments", "30", "--seed", "0",
                 "--inject-bug"]
CLI_FUZZ_DIGEST = (
    "0f6403575fd5f4d45859b8cbd278f99caad5fac0cb61e0abf71a0554d786c4ed")


def _qe_transcript(name: str) -> str:
    """Each corpus formula printed, parsed back and eliminated; one line per
    formula with the printed input and output, or the error raised."""
    st = build_structure(get_model(name))
    rng = random.Random(f"golden-qe:{name}")
    lines = []
    for _ in range(QE_FORMULAS):
        text = print_formula(gen_formula(rng, ["x", "y"], 3, 2))
        try:
            out = print_formula(qe_star(parse_formula(text), st))
        except ConvexQEError as e:
            out = f"error {type(e).__name__}"
        lines.append(f"{text} => {out}")
    return "\n".join(lines)


def _skolem_transcript(name: str) -> str:
    """Each quantifier-free corpus formula with y free, skolemized for y;
    one line per guarded case."""
    st = build_structure(get_model(name))
    rng = random.Random(f"golden-skolem:{name}")
    lines = []
    done = 0
    while done < SKOLEM_FORMULAS:
        f = gen_formula(rng, ["x", "y"], 3, 0)
        if "y" not in free_vars(f):
            continue
        done += 1
        lines.append(print_formula(f))
        try:
            sk = skolemize(f, "y", st)
        except ConvexQEError as e:
            lines.append(f"  error {type(e).__name__}")
            continue
        lines += [f"  if {print_formula(g)} -> {w}" for g, w in sk.cases]
    return "\n".join(lines)


def _fuzz_transcript(name: str) -> str:
    m = get_model(name)
    return "\n".join(json.dumps(run_fuzz(m, config), sort_keys=True)
                     for config in FUZZ_CONFIGS[name])


def _verify_transcript(name: str) -> str:
    """Each seeded Skolem definition verified, then a broken copy of it
    (last case dropped, every witness moved by 1), so that failure reports
    with their drawn assignments are pinned too."""
    m = get_model(name)
    st = build_structure(m)
    rng = random.Random(f"golden-verify:{name}")
    lines = []
    done = 0
    while done < VERIFY_DEFINITIONS:
        f = gen_formula(rng, ["x", "y"], 3, 0)
        if "y" not in free_vars(f):
            continue
        try:
            sk = skolemize(f, "y", st)
        except ConvexQEError:
            continue
        done += 1
        broken = SkolemDefinition(sk.target, tuple(
            (g, w + Term.const(Fraction(1))) for g, w in sk.cases[:-1]))
        for d in (sk, broken):
            report = verify_skolem(m, f, d, seed=done, st=st).to_json()
            lines.append(json.dumps(report, sort_keys=True))
    return "\n".join(lines)


def _oracle_corpus(name: str):
    """Seeded formulas in x, y (z bound or free): gen_formula at quantifier
    depth 2 or 3, then E y. over 2-4 gen_atom literals that mention y,
    about 40% of them negated."""
    rng = random.Random(f"golden-oracle:{name}")
    for i in range(ORACLE_NESTED):
        yield gen_formula(rng, ["x", "y"], 4, 2 + i % 2)
    for _ in range(ORACLE_CONJ):
        lits = []
        for _ in range(rng.randint(2, 4)):
            a = gen_atom(rng, ["x", "y", "z"])
            while "y" not in free_vars(a):
                a = gen_atom(rng, ["x", "y", "z"])
            lits.append(Not(a) if rng.random() < 0.4 else a)
        yield Exists("y", conj(lits))


def _oracle_transcript(name: str) -> str:
    """Each corpus formula with its oracle decisions on sampled integer
    assignments over SAMPLE_DENOM."""
    m = get_model(name)
    draw = pool_drawer(random.Random(f"golden-oracle-points:{name}"),
                       int_sample_pool(m))
    lines = []
    for f in _oracle_corpus(name):
        fv = sorted(free_vars(f))
        points = [{v: draw(m.dim) for v in fv}
                  for _ in range(ORACLE_ASSIGNMENTS)]
        orc = IntOracleEval(oracle_compile(m, f), SAMPLE_DENOM)
        bits = "".join("1" if orc.eval(p) else "0" for p in points)
        lines.append(f"{print_formula(f)} => {bits}")
    return "\n".join(lines)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", ELIMINABLE_NAMES)
def test_qe_star_output_is_pinned(name):
    assert _digest(_qe_transcript(name)) == QE_DIGESTS[name]


@pytest.mark.parametrize("name", VALUATIONAL_NAMES)
def test_skolemize_output_is_pinned(name):
    assert _digest(_skolem_transcript(name)) == SKOLEM_DIGESTS[name]


@pytest.mark.parametrize("name", ELIMINABLE_NAMES)
def test_qe_star_output_is_built_simplified(name):
    # the comparison table builds each condition simplified, so simplify
    # leaves every output of the golden QE corpus as it is
    st = build_structure(get_model(name))
    rng = random.Random(f"golden-qe:{name}")
    for _ in range(QE_FORMULAS):
        f = parse_formula(print_formula(gen_formula(rng, ["x", "y"], 3, 2)))
        try:
            out = qe_star(f, st)
        except ConvexQEError:
            continue
        assert simplify(out) == out, print_formula(out)


@pytest.mark.parametrize("name", VALUATIONAL_NAMES)
def test_skolemize_guards_are_built_simplified(name):
    st = build_structure(get_model(name))
    rng = random.Random(f"golden-skolem:{name}")
    done = 0
    while done < SKOLEM_FORMULAS:
        f = gen_formula(rng, ["x", "y"], 3, 0)
        if "y" not in free_vars(f):
            continue
        done += 1
        try:
            sk = skolemize(f, "y", st)
        except ConvexQEError:
            continue
        for g, _ in sk.cases:
            assert simplify(g) == g, print_formula(g)


@pytest.mark.parametrize("name", VALUATIONAL_NAMES)
def test_fuzz_reports_are_pinned(name):
    assert _digest(_fuzz_transcript(name)) == FUZZ_DIGESTS[name]


@pytest.mark.parametrize("block", [7, 1])
@pytest.mark.parametrize("name", VALUATIONAL_NAMES)
def test_fuzz_reports_are_pinned_in_small_blocks(name, block, monkeypatch):
    # the assignments of one formula straddle many block edges
    monkeypatch.setattr(fuzz, "SAMPLE_BLOCK", block)
    assert _digest(_fuzz_transcript(name)) == FUZZ_DIGESTS[name]


def test_fuzz_digests_cover_discrepancies():
    found = [json.loads(line)["discrepancy_count"]
             for name in VALUATIONAL_NAMES
             for line in _fuzz_transcript(name).splitlines()]
    assert sum(found) >= 3


@pytest.mark.parametrize("name", VALUATIONAL_NAMES)
def test_verify_skolem_reports_are_pinned(name):
    text = _verify_transcript(name)
    assert '"passed": false' in text and '"passed": true' in text
    assert _digest(text) == VERIFY_DIGESTS[name]


@pytest.mark.parametrize("name", ELIMINABLE_NAMES)
def test_oracle_decisions_are_pinned(name):
    text = _oracle_transcript(name)
    assert "=> 1" in text and "=> 0" in text
    assert _digest(text) == ORACLE_DIGESTS[name]


@pytest.mark.parametrize("name", ELIMINABLE_NAMES)
def test_oracle_atoms_have_one_coordinate(name):
    # a coordinate atom mentions coordinate i of its variables alone, so a
    # quantifier's coordinates are eliminated independently of each other
    m = get_model(name)
    for f in _oracle_corpus(name):
        d = _Decomposer(m, DEFAULT_ORACLE_BUDGET)
        stack = [d.decompose(f)]
        while stack:
            n = stack.pop()
            if type(n) is tuple:
                stack.extend(n[1:])
            elif type(n) is int:
                atom = d.atoms[n if n >= 0 else ~n]
                idx = {s.rsplit("#", 1)[1] for s, _ in atom.form.coeffs}
                assert len(idx) == 1, (atom.kind, atom.form)
                # no rational point is the root of a form with alpha, so
                # no equation carries it
                assert atom.kind != "eq" or not atom.form.alpha, atom.form


def test_fuzz_command_output_is_pinned(capsys):
    rc = main(CLI_FUZZ_ARGS)
    out = capsys.readouterr().out
    assert rc == 1
    assert _digest(out) == CLI_FUZZ_DIGEST
