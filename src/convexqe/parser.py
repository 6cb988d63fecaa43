"""Parser for the formula grammar: operator precedence on an explicit stack
for formulas, a loop over signed terms for each atom.

Grammar (precedence ``~`` > ``&`` > ``|`` > ``->``; quantifier bodies
extend maximally to the right; parentheses group formulas only)::

    formula := "true" | "false" | atom | "(" formula ")" | "~" formula
             | formula "&" formula | formula "|" formula
             | formula "->" formula | "E" var "." formula | "A" var "." formula
    atom    := term rel term | "U(" term ")" | "I(" term ")"
    rel     := "<" | "<=" | "=" | "!="
    term    := rational | var | "e_in" | "e_out" | term "+" term
             | term "-" term | rational "*" term | "-" term

The text is split into token strings by one regex pass; a token's line and
column are computed, by a second pass, only when an error is raised there.
Each atom's ``lhs - rhs`` is summed in integers, as numerators over one
running common denominator, and its ``Term`` built once.  The parser notes
each binder and each variable occurrence outside the binders of its name,
and renames bound variables only when a binder name repeats or is also
free.
"""

from __future__ import annotations

import math
import re
from typing import NoReturn, Optional

from .errors import FormulaSyntaxError
from .syntax import (Atom, AtomKind, Exists, FALSE, Forall, Formula, AtomF,
                     And, Or, Not, Implies, TRUE, Term, _lowest, rename_bound)

RESERVED = {"true", "false", "E", "A", "U", "I", "e_in", "e_out"}

# whitespace, then one token; before a character no token starts with, an
# empty token.  Trailing whitespace matches nothing.
_TOKEN_RE = re.compile(
    r"""\s*
      (?: ( \d+
          | [A-Za-z_][A-Za-z_0-9]*
          | ->|<=|!=|[<=~&|()+\-*/.] )
        | \S )
    """,
    re.VERBOSE,
)
# the token after the last: no token is empty once _tokenize has raised
# on the empty one a bad character leaves
_EOF = ""


def _offset(text: str, index: int) -> int:
    """Where the index-th token of text starts; the end of text when the
    text has no more tokens."""
    for i, m in enumerate(_TOKEN_RE.finditer(text)):
        if i == index:
            return m.start(1) if m[1] else m.end() - 1
    return len(text)


def _where(text: str, index: int) -> tuple[int, int]:
    """The line and column of the index-th token of text."""
    pos = _offset(text, index)
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str) -> list[str]:
    toks = _TOKEN_RE.findall(text)
    if _EOF in toks:
        i = toks.index(_EOF)
        raise FormulaSyntaxError(
            f"unexpected character {text[_offset(text, i)]!r}",
            *_where(text, i))
    toks.append(_EOF)
    return toks


_BINARY = {"->": 1, "|": 2, "&": 3}
# how tightly each open stack entry binds: a quantifier's body, and a
# parenthesized group, end only at ")" or the end of input
_PREC = {**_BINARY, "~": 4, Exists: 0, Forall: 0, "(": -2}
_RELATIONS = {"<": AtomKind.LT, "<=": AtomKind.LE, "=": AtomKind.EQ,
              "!=": AtomKind.NEQ}
_PREFIXES = {"~", "(", "E", "A", "true", "false"}


def _close(entry: list, x: Formula) -> Formula:
    """Apply an open stack entry to its last operand x."""
    op, arg = entry
    if op == "~":
        return Not(x)
    if op == "&" or op == "|":
        return (And if op == "&" else Or)(*arg, x)
    if op == "->":  # nests to the right
        for lhs in reversed(arg):
            x = Implies(lhs, x)
        return x
    return op(arg, x)


def _term(acc: dict, den: int) -> Term:
    """The term whose numerators over den are acc's: e_in, e_out and the
    constant under the keys "e_in", "e_out" and "", variables by name."""
    a, b, c = acc.pop("e_in", 0), acc.pop("e_out", 0), acc.pop("", 0)
    return _lowest(tuple(sorted([(v, q) for v, q in acc.items() if q])),
                   a, b, c, den)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.binders: list[str] = []
        self.scopes: dict[str, int] = {}  # open binders of each name
        self.free: set[str] = set()  # names met outside their binders

    def fail(self, msg: str, index: Optional[int] = None) -> NoReturn:
        """Raise a syntax error with msg at the token at index, or at the
        cursor."""
        if index is None:
            index = self.pos
        raise FormulaSyntaxError(msg, *_where(self.text, index))

    def expect(self, text: str) -> None:
        t = self.toks[self.pos]
        if t != text:
            self.fail(f"expected {text!r}, found {t!r}" if t
                      else f"expected {text!r}")
        self.pos += 1

    # formulas --------------------------------------------------------------

    def formula(self) -> Formula:
        """The formula up to the end of input, by operator precedence on an
        explicit stack, so nesting depth meets no recursion limit.  A stack
        entry is [op, arg]: an open "~", "(" or quantifier, or a run of one
        binary operator with its operands so far."""
        toks, scopes = self.toks, self.scopes
        stack: list = []
        while True:
            # the prefixes before the next operand, then the operand
            t = toks[self.pos]
            while t in _PREFIXES:
                self.pos += 1
                if t == "~" or t == "(":
                    stack.append([t, None])
                elif t == "true" or t == "false":
                    x = TRUE if t == "true" else FALSE
                    break
                else:
                    v = toks[self.pos]
                    if not v.isidentifier() or v in RESERVED:
                        self.fail("expected a variable after quantifier")
                    self.pos += 1
                    self.expect(".")
                    stack.append([Exists if t == "E" else Forall, v])
                    self.binders.append(v)
                    scopes[v] = scopes.get(v, 0) + 1
                t = toks[self.pos]
            else:
                x = self.atom()
            # the operators after it: close what binds tighter, then go on
            # to the next operand, or close a group, or end
            while True:
                t = toks[self.pos]
                prec = _BINARY.get(t, -1)
                while stack and _PREC[stack[-1][0]] > prec:
                    entry = stack.pop()
                    x = _close(entry, x)
                    if not _PREC[entry[0]]:  # a quantifier's scope ends
                        v = entry[1]
                        scopes[v] -= 1
                        if not scopes[v]:
                            del scopes[v]
                if prec > 0:
                    if stack and stack[-1][0] == t:
                        stack[-1][1].append(x)
                    else:
                        stack.append([t, [x]])
                    self.pos += 1
                    break
                if stack:  # the innermost open "("
                    self.expect(")")
                    stack.pop()
                elif t == _EOF:
                    return x
                else:
                    self.fail(f"trailing input {t!r}")

    # atoms and terms ------------------------------------------------------

    def atom(self) -> Formula:
        t = self.toks[self.pos]
        acc: dict = {}
        if t == "U" or t == "I":
            self.pos += 1
            self.expect("(")
            den = self.add_term(acc, 1, 1)
            self.expect(")")
            kind = AtomKind.UMEM if t == "U" else AtomKind.IMEM
            return AtomF(Atom(kind, _term(acc, den)))
        den = self.add_term(acc, 1, 1)
        kind = _RELATIONS.get(self.toks[self.pos])
        if kind is None:
            self.fail("expected a relation (<, <=, =, !=)")
        self.pos += 1
        den = self.add_term(acc, den, -1)
        return AtomF(Atom(kind, _term(acc, den)))

    def add_term(self, acc: dict, den: int, sign: int) -> int:
        """Add sign times the term at the cursor into acc, as numerators
        over den (see ``_term``); return the new common denominator, den
        times what the term's own denominators need.

        The term is a run of signed terms joined by "+" and "-".  A signed
        term's prefixes, each a "-" or a "rational *", only scale it, so
        they are read in a loop and their product n/d applied once."""
        toks, i, s = self.toks, self.pos, sign
        while True:
            n, d = s, 1
            while True:
                t = toks[i]
                if t == "-":
                    n = -n
                    i += 1
                    continue
                if t.isdecimal():
                    n *= self.integer(i)
                    if toks[i + 1] == "/":
                        i += 2
                        q = self.integer(i)
                        if not q:
                            self.fail("zero denominator", i)
                        d *= q
                    if toks[i + 1] == "*":
                        i += 2
                        continue
                    key = ""  # a constant
                elif t == "e_in" or t == "e_out":
                    key = t
                elif t.isidentifier():
                    if t in RESERVED:
                        self.fail(f"reserved word {t!r} cannot be used as"
                                  " a variable", i)
                    if t not in self.scopes:
                        self.free.add(t)
                    key = t
                else:
                    self.fail("expected a term", i)
                break
            if den % d:  # bring acc over a denominator that d divides
                m = d // math.gcd(den, d)
                den *= m
                for k in acc:
                    acc[k] *= m
            acc[key] = acc.get(key, 0) + n * (den // d)
            t = toks[i + 1]
            if t == "+":
                s = sign
            elif t == "-":
                s = -sign
            else:
                self.pos = i + 1
                return den
            i += 2

    def integer(self, i: int) -> int:
        """The number token at index i, which must be one."""
        t = self.toks[i]
        if not t.isdecimal():
            self.fail("expected a number", i)
        return _read_int(t)


def _read_int(digits: str) -> int:
    """int(digits) at any length: past 500 digits by binary splitting,
    hi * 10**k + lo, so no conversion meets the interpreter's int/str
    digit limit."""
    if len(digits) <= 500:
        return int(digits)
    k = len(digits) // 2
    return _read_int(digits[:-k]) * 10 ** k + _read_int(digits[-k:])


def parse_formula(text: str) -> Formula:
    """Parse text into a formula AST; bound variables are made unique."""
    p = _Parser(text)
    f = p.formula()
    b = p.binders
    # otherwise rename_bound would return f itself
    if b and (len(set(b)) < len(b) or not p.free.isdisjoint(b)):
        return rename_bound(f)
    return f


def parse_term(text: str) -> Term:
    p = _Parser(text)
    acc: dict = {}
    den = p.add_term(acc, 1, 1)
    if p.toks[p.pos] != _EOF:
        p.fail(f"trailing input {p.toks[p.pos]!r}")
    return _term(acc, den)
