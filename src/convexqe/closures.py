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
for irrational comparisons, then one cache slot per distinct atom.  The
roots of one lowering (an existential and its guards, say) share its leaves:
called at the same points with one frame, they test each atom at most once.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

DENOM = 0
BUDGET = 1


def nary(op: str, kids: list):
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


def neg(kid):
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


class Lowering:
    """The leaves of one evaluator under construction: equal (hashable)
    atoms share one leaf, whose test ``lower(atom)`` runs at most once per
    call."""

    def __init__(self, lower: Callable):
        self._lower = lower
        self._leaves: dict = {}
        # id(atom) -> leaf, since atoms often hash slowly; ids are stable
        # because the tree keeps every atom alive while it is lowered
        self._seen: dict = {}

    def leaf(self, atom):
        leaf = self._seen.get(id(atom))
        if leaf is None:
            leaf = self._leaves.get(atom)
            if leaf is None:
                leaf = self._leaves[atom] = _cached(
                    self._lower(atom), BUDGET + 1 + len(self._leaves))
            self._seen[id(atom)] = leaf
        return leaf

    def evaluator(self, *roots) -> "Evaluator":
        return Evaluator(roots, len(self._leaves))


class Evaluator:
    """Lowered formulas, one root each over shared leaves, evaluated exactly
    on integer or rational points; ``at`` and ``eval_points`` take root 0."""

    def __init__(self, roots: tuple, atoms: int):
        self.roots = tuple((lambda p, f, c=r: c) if type(r) is bool else r
                           for r in roots)
        self.blank = (None,) * atoms

    def at(self, denom: int, budget: int) -> Callable[[Mapping], bool]:
        """Truth as a function of integer points: each variable's coordinate
        numerators over denom."""
        root, blank = self.roots[0], self.blank
        return lambda points: root(points, [denom, budget, *blank])

    def frame_points(self, points: Mapping, budget: int) -> tuple[dict, list]:
        """Points cleared to one common denominator, and a fresh frame."""
        denom = math.lcm(*(q.denominator for p in points.values()
                           for q in p.coords))
        ints = {v: tuple(q.numerator * (denom // q.denominator)
                         for q in p.coords)
                for v, p in points.items()}
        return ints, [denom, budget, *self.blank]

    def eval_points(self, points: Mapping, budget: int) -> bool:
        """Truth at Point coordinates."""
        return self.roots[0](*self.frame_points(points, budget))


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
