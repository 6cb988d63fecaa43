"""Golden output: sha256 digests of printed elimination and Skolem output
over a fixed, seeded corpus.  Any change to term arithmetic, literal order
or printing that alters a single output byte fails here."""

import hashlib
import random

import pytest

from convexqe.cutqe import build_structure, qe_star, skolemize
from convexqe.errors import ConvexQEError
from convexqe.fuzz import gen_formula
from convexqe.parser import parse_formula
from convexqe.syntax import free_vars, print_formula

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


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", ELIMINABLE_NAMES)
def test_qe_star_output_is_pinned(name):
    assert _digest(_qe_transcript(name)) == QE_DIGESTS[name]


@pytest.mark.parametrize("name", VALUATIONAL_NAMES)
def test_skolemize_output_is_pinned(name):
    assert _digest(_skolem_transcript(name)) == SKOLEM_DIGESTS[name]
