"""Closure compilation of quantifier-free boolean combinations.

A tree is lowered once into nested Python closures and then called per
assignment (Feeley and Lapalme, "Using Closures for Code Generation",
1987).  This module is plumbing only: n-ary connectives, atom
deduplication with a per-call cache, and integer linear rows.  What an
atom means is up to the caller's lowering, so the model evaluator and the
independent coordinate oracle share no atom semantics.

Every closure takes ``(points, frame)``.  ``points`` maps each variable to
a tuple of integer coordinate numerators over one common denominator.
``frame`` is a fresh list per call: the denominator, the precision budget
for irrational comparisons, then one cache slot per distinct atom.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

DENOM = 0
BUDGET = 1


def _nary(op: str, kids: list):
    """Short-circuit n-ary "&" or "|" over closures and boolean constants;
    every closure returns a bool."""
    unit = op == "&"
    kids = [k for k in kids if k is not unit]
    if any(type(k) is bool for k in kids):
        return not unit
    if len(kids) <= 1:
        return kids[0] if kids else unit
    if len(kids) == 2:
        a, b = kids
        if unit:
            return lambda p, f: a(p, f) and b(p, f)
        return lambda p, f: a(p, f) or b(p, f)
    kids = tuple(kids)

    def run(p, f) -> bool:
        for k in kids:
            if k(p, f) is not unit:
                return not unit
        return unit
    return run


def _neg(kid):
    if type(kid) is bool:
        return not kid
    return lambda p, f: not kid(p, f)


def _cached(test, slot: int):
    def leaf(p, f) -> bool:
        v = f[slot]
        if v is None:
            v = f[slot] = test(p, f)
        return v
    return leaf


def build(root, view: Callable, lower: Callable) -> "Evaluator":
    """Lower ``root`` into an Evaluator.

    ``view(node)`` describes a node as ``True``/``False``, ``("&", kids)``,
    ``("|", kids)``, ``("~", (kid,))`` or ``("a", atom)``.  Chains of one
    connective become a single n-ary node, and equal (hashable) atoms share
    one leaf; ``lower(atom)`` gives the leaf's test closure, which runs at
    most once per call.
    """
    leaves: dict = {}
    # id(atom) -> leaf, since atoms often hash slowly; ids are stable
    # because the tree keeps every atom alive while it is lowered
    seen: dict = {}

    def go(v):
        if type(v) is bool:
            return v
        op = v[0]
        if op == "a":
            leaf = seen.get(id(v[1]))
            if leaf is None:
                leaf = leaves.get(v[1])
                if leaf is None:
                    leaf = leaves[v[1]] = _cached(lower(v[1]), BUDGET + 1
                                                  + len(leaves))
                seen[id(v[1])] = leaf
            return leaf
        if op == "~":
            return _neg(go(view(v[1][0])))
        kids = []
        stack = [view(n) for n in reversed(v[1])]
        while stack:
            w = stack.pop()
            if type(w) is tuple and w[0] == op:
                stack.extend(view(n) for n in reversed(w[1]))
            else:
                kids.append(go(w))
        return _nary(op, kids)

    return Evaluator(go(view(root)), len(leaves))


class Evaluator:
    """A lowered formula, evaluated exactly on integer or rational points."""

    def __init__(self, root, atoms: int):
        if type(root) is bool:
            const = root
            root = lambda p, f: const
        self._root = root
        self._blank = (None,) * atoms

    def at(self, denom: int, budget: int) -> Callable[[Mapping], bool]:
        """Truth as a function of integer points: each variable's coordinate
        numerators over denom."""
        root, blank = self._root, self._blank
        return lambda points: root(points, [denom, budget, *blank])

    def eval_points(self, points: Mapping, budget: int) -> bool:
        """Truth at Point coordinates, cleared to one common denominator."""
        denom = math.lcm(*(q.denominator for p in points.values()
                           for q in p.coords))
        ints = {v: tuple(q.numerator * (denom // q.denominator)
                         for q in p.coords)
                for v, p in points.items()}
        return self._root(ints, [denom, budget, *self._blank])


def int_row(terms: tuple[tuple[str, int, int], ...], const: int):
    """Closure (points, denom) -> const * denom + sum of c * points[v][i]
    over the (v, i, c) in terms: a linear form scaled to integers."""
    if len(terms) == 1:
        (v, i, c), = terms
        return lambda p, d: c * p[v][i] + const * d

    def row(p, d) -> int:
        t = const * d
        for v, i, c in terms:
            t += c * p[v][i]
        return t
    return row


def first_nonzero(rows: list):
    """Closure (points, denom) -> the first nonzero row value, or 0."""
    if len(rows) == 1:
        return rows[0]
    rows = tuple(rows)

    def lead(p, d) -> int:
        for r in rows:
            t = r(p, d)
            if t:
                return t
        return 0
    return lead


def lcm_denominators(qs) -> int:
    return math.lcm(*(q.denominator for q in qs))
