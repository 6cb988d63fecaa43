"""Exact symbolic toolkit for divisible ordered abelian groups expanded by a
convex predicate: quantifier elimination, cut classification, Skolem
synthesis and verification, and constructive counterexample search, all
over computable lexicographic models of the rationals."""

__version__ = "0.1.0"

from .classifier import (CanonicalCut, ClassificationReport,
                         FValuationalResult, canonical_member,
                         canonicalize_cut, classify, f_valuational,
                         stabilizer)
from .cutqe import (CutClass, CutStructure, ResistanceResult,
                    SkolemDefinition, build_structure, check_resistance,
                    qe, qe_star, skolemize)
from .doagqe import QeOptions
from .errors import (BudgetExceededError, ConstantPieceUnsupportedError,
                     ConvexQEError, FormulaSyntaxError, MalformedModelError,
                     NonvaluationalInterpretationError, PrecisionBudgetError,
                     PreconditionViolatedError, SearchExhaustedError,
                     SkolemShapeUnsupportedError, UnsupportedCutError)
from .models import (DownwardCut, IrrationalOracle, ModelDescriptor,
                     PiOracle, PlusInf, PLUS_INF, Point, SqrtOracle,
                     SubgroupLevel, eval_formula, i_member, load_model,
                     model_from_json, model_to_json, term_value, u_member)
from .normalform import normalize_atoms, simplify, to_dnf
from .oracle import oracle_compile, oracle_truth
from .parser import parse_formula, parse_term
from .piecewise import (AffinePiece, BinaryPiecewiseLinear, PluslikeReport,
                        UnaryPiecewiseLinear, check_pluslike,
                        normalize_monotone, pluslike_from_unary)
from .skolemlab import (ChoiceViolation, ObstructionWitness, VerifyReport,
                        choice_violation, obstruction_find, verify_skolem)
from .syntax import (And, Atom, AtomF, AtomKind, Exists, FALSE, FalseF,
                     Forall, Formula, Implies, Not, Or, TRUE, Term, TrueF,
                     free_vars, is_quantifier_free, print_formula)
