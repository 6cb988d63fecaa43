"""Parser for the formula grammar: operator precedence on an explicit stack
for formulas, recursive descent for terms.

Grammar (precedence ``~`` > ``&`` > ``|`` > ``->``; quantifier bodies
extend maximally to the right; parentheses group formulas only)::

    formula := "true" | "false" | atom | "(" formula ")" | "~" formula
             | formula "&" formula | formula "|" formula
             | formula "->" formula | "E" var "." formula | "A" var "." formula
    atom    := term rel term | "U(" term ")" | "I(" term ")"
    rel     := "<" | "<=" | "=" | "!="
    term    := rational | var | "e_in" | "e_out" | term "+" term
             | term "-" term | rational "*" term | "-" term
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import FormulaSyntaxError, UnknownIdentifierError
from .syntax import (Atom, AtomKind, Exists, FALSE, Forall, Formula, AtomF,
                     And, Or, Not, Implies, TRUE, Term, rename_bound)

RESERVED = {"true", "false", "E", "A", "U", "I", "e_in", "e_out"}

# whitespace, then one token; at the end of input, or before a character
# no token starts with, the whitespace alone
_TOKEN_RE = re.compile(
    r"""\s*
      (?: (?P<num>\d+)
        | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
        | (?P<op>->|<=|!=|[<=~&|()+\-*/.])
      )?
    """,
    re.VERBOSE,
)


class _Tok(NamedTuple):
    kind: str  # num | name | op | eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, line_start = 1, 0  # line_start: index of the line's first char
    pos = 0
    match = _TOKEN_RE.match
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        start = m.start(kind) if kind else m.end()
        nl = text.count("\n", pos, start)
        if nl:
            line += nl
            line_start = text.rindex("\n", pos, start) + 1
        if kind is None:
            if start < len(text):
                raise FormulaSyntaxError(f"unexpected character {text[start]!r}",
                                         line, start - line_start + 1)
            toks.append(_Tok("eof", "", line, start - line_start + 1))
            return toks
        toks.append(_Tok(kind, m.group(kind), line, start - line_start + 1))
        pos = m.end()


_BINARY = {"->": 1, "|": 2, "&": 3}
# how tightly each open stack entry binds: a quantifier's body, and a
# parenthesized group, end only at ")" or the end of input
_PREC = {**_BINARY, "~": 4, Exists: 0, Forall: 0, "(": -2}


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


class _Parser:
    def __init__(self, toks: list[_Tok], known_vars: Optional[set[str]]):
        self.toks = toks
        self.pos = 0
        self.known_vars = known_vars

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str):
        t = self.peek()
        raise FormulaSyntaxError(msg, t.line, t.col)

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if t.text != text:
            self.fail(f"expected {text!r}, found {t.text!r}" if t.text else f"expected {text!r}")
        return self.next()

    # formulas --------------------------------------------------------------

    def formula(self) -> Formula:
        """The formula up to the end of input, by operator precedence on an
        explicit stack, so nesting depth meets no recursion limit.  A stack
        entry is [op, arg]: an open "~", "(" or quantifier, or a run of one
        binary operator with its operands so far."""
        stack: list = []
        x = self.operand(stack)
        while True:
            t = self.peek()
            prec = _BINARY.get(t.text, -1)
            while stack and _PREC[stack[-1][0]] > prec:
                x = _close(stack.pop(), x)
            if prec > 0:
                if stack and stack[-1][0] == t.text:
                    stack[-1][1].append(x)
                else:
                    stack.append([t.text, [x]])
                self.next()
                x = self.operand(stack)
            elif stack:  # the innermost open "("
                self.expect(")")
                stack.pop()
            elif t.kind == "eof":
                return x
            else:
                raise FormulaSyntaxError(f"trailing input {t.text!r}",
                                         t.line, t.col)

    def operand(self, stack: list) -> Formula:
        """Push the prefixes before the next operand; return the operand."""
        while True:
            t = self.peek()
            if t.text not in ("~", "(", "E", "A", "true", "false"):
                return self.atom()
            self.next()
            if t.text in ("true", "false"):
                return TRUE if t.text == "true" else FALSE
            if t.text in ("~", "("):
                stack.append([t.text, t])
                continue
            v = self.peek()
            if v.kind != "name" or v.text in RESERVED:
                self.fail("expected a variable after quantifier")
            self.next()
            self.expect(".")
            stack.append([Exists if t.text == "E" else Forall, v.text])

    # atoms and terms ------------------------------------------------------

    def atom(self) -> Formula:
        t = self.peek()
        if t.text in ("U", "I"):
            self.next()
            self.expect("(")
            arg = self.term()
            self.expect(")")
            kind = AtomKind.UMEM if t.text == "U" else AtomKind.IMEM
            return AtomF(Atom(kind, arg))
        lhs = self.term()
        rel = self.peek()
        if rel.text not in ("<", "<=", "=", "!="):
            self.fail("expected a relation (<, <=, =, !=)")
        self.next()
        rhs = self.term()
        kind = {"<": AtomKind.LT, "<=": AtomKind.LE,
                "=": AtomKind.EQ, "!=": AtomKind.NEQ}[rel.text]
        return AtomF(Atom(kind, lhs - rhs))

    def term(self) -> Term:
        t = self.signed_term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.signed_term()
            t = t + rhs if op == "+" else t - rhs
        return t

    def signed_term(self) -> Term:
        """A primary term after its prefixes, each a "-" or a "rational *".
        The prefixes only scale the term, so they are read in a loop and
        their product applied once."""
        num, den = 1, 1
        while True:
            t = self.peek()
            if t.text == "-":
                self.next()
                num = -num
                continue
            if t.kind != "num":
                term = self.primary_term()
                return term if num == den else term.scale_ratio(num, den)
            n, d = self.rational()
            if self.peek().text != "*":
                return Term.const(Fraction(n * num, d * den))
            self.next()
            num, den = num * n, den * d

    def primary_term(self) -> Term:
        t = self.peek()
        if t.kind == "name":
            self.next()
            if t.text == "e_in":
                return Term.ein()
            if t.text == "e_out":
                return Term.eout()
            if t.text in RESERVED:
                raise FormulaSyntaxError(
                    f"reserved word {t.text!r} cannot be used as a variable",
                    t.line, t.col)
            if self.known_vars is not None and t.text not in self.known_vars:
                raise UnknownIdentifierError(
                    f"unknown identifier {t.text!r}", t.line, t.col)
            return Term.var(t.text)
        self.fail("expected a term")
        raise AssertionError

    def rational(self) -> tuple[int, int]:
        """A rational literal as its numerator and positive denominator."""
        num = self.integer()
        if self.peek().text == "/":
            self.next()
            den_tok = self.peek()
            den = self.integer()
            if den == 0:
                raise FormulaSyntaxError("zero denominator", den_tok.line, den_tok.col)
            return num, den
        return num, 1

    def integer(self) -> int:
        t = self.peek()
        if t.kind != "num":
            self.fail("expected a number")
        try:
            value = int(t.text)
        except ValueError:  # past the interpreter's int/str digit limit
            raise FormulaSyntaxError(
                f"number too long ({len(t.text)} digits)",
                t.line, t.col) from None
        self.next()
        return value


def parse_formula(text: str, known_vars: Optional[set[str]] = None) -> Formula:
    """Parse text into a formula AST; bound variables are made unique."""
    f = _Parser(_tokenize(text), known_vars).formula()
    return rename_bound(f)


def parse_term(text: str, known_vars: Optional[set[str]] = None) -> Term:
    p = _Parser(_tokenize(text), known_vars)
    t = p.term()
    tok = p.peek()
    if tok.kind != "eof":
        raise FormulaSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return t
