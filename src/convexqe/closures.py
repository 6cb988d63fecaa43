"""Jump-table compilation of quantifier-free boolean combinations.

A tree (a bool, a leaf, ``("&" | "|", *kids)`` or ``("~", kid)``) is
compiled once, on an explicit stack, into short-circuit jumping code (Aho,
Lam, Sethi and Ullman, *Compilers*, 2nd ed., section 6.6): a flat table with
one row ``(slot, if_true, if_false)`` per leaf.  A kid's exits are its next
sibling's entry or its parent's exits, and ``~`` swaps them.

What an atom means is up to the caller's lowering, so the model evaluator
and the independent coordinate oracle share no atom semantics.  A lowering
turns an atom into one integer-row spec ``(rows, sign, tail)``: ``rows``
are ``(terms, const)`` pairs, as ``int_row`` takes them; ``sign`` is a
comparison, such as ``operator.lt``, of the first of them that is nonzero
with 0; and ``tail`` decides where they are all zero, as a bool or as ``(row, k, lo, hi, bits, less)``: the
truth of ``row / (k * d) < beta``, d the points' denominator, for a beta
with ``lo / 2**bits < beta < hi / 2**bits`` and ``less(x, den)`` the exact
``x / den < beta``, called only inside that bracket.  This module builds
both of an atom's tests from its spec, with ``scalar_test`` and
``block_test``, so neither lowering writes a test.

A root takes ``(points, frame)`` and runs one loop: it reads or fills the
atom's frame slot, then jumps.  ``points`` maps each variable to a tuple of
integer coordinate numerators over one common denominator.  ``frame`` is a
fresh list per call, ``[denom, *slots]``: the denominator, then one cache
slot per distinct atom.  The roots of one lowering (an existential and its
guards, say) share its table: called at the same points with one frame,
they test each atom at most once.  The scalar tests are built from the
specs when a scalar root is first asked for, so a caller that only runs
blocks builds none.

``Evaluator.block`` is a second driver over the same table, for many
assignments at once.  Every jump goes to a lower row or to an exit, so it
walks a root's rows once, downwards, carrying the mask of lanes (one byte
per assignment, 1 where the lane reaches the row) and splitting it at each
row by the atom's block test.  A block test (built on first use) takes
``(columns, denom, n)``, ``columns`` mapping each variable to one tuple per
coordinate holding its numerators at every lane, and returns its truth as
such a mask.  It runs over all n
lanes, only when some lane reaches one of its rows, and at most once per
list of masks: roots called at the same columns with one list, ``[None,
*slots]``, share each atom's mask as the scalar roots share a frame.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterable, Mapping, Optional

DENOM = 0
TRUE, FALSE = -1, -2  # a root's exits; rows are numbered from 0


class Lowering:
    """One jump table under construction: equal (hashable) atoms share one
    frame slot, whose spec ``lower(atom)`` is taken once."""

    def __init__(self, lower: Callable,
                 literal: Callable = lambda leaf: (leaf, False)):
        self._lower = lower
        self._literal = literal
        self._slots: dict = {}  # atom -> slot
        self._specs: list = []  # by slot, from 1
        self._rows: list = []

    def _compile(self, tree) -> int:
        """Append the rows of tree, exiting to TRUE or FALSE; its entry."""
        rows, slots, entry = self._rows, self._slots, None
        # (node, exits); a kid is compiled after its next sibling, and an
        # exit of None is the entry compiled last, that sibling's
        stack = [(tree, TRUE, FALSE)]
        while stack:
            n, t, e = stack.pop()
            t, e = (entry if t is None else t), (entry if e is None else e)
            while type(n) is tuple:
                if n[0] == "~":
                    n, t, e = n[1], e, t
                elif len(n) == 1:
                    n = n[0] == "&"
                else:
                    chain = (None, e) if n[0] == "&" else (t, None)
                    stack.extend((k, *chain) for k in n[1:-1])
                    n = n[-1]
            if type(n) is bool:
                entry = t if n else e
                continue
            atom, negated = self._literal(n)
            slot = slots.get(atom)
            if slot is None:
                slot = slots[atom] = 1 + len(slots)
                self._specs.append(self._lower(atom))
            if t == e:  # the test cannot matter, so it is not run
                entry = t
                continue
            entry = len(rows)
            rows.append((slot, e, t) if negated else (slot, t, e))
        return entry

    def evaluator(self, *trees) -> "Evaluator":
        entries = [self._compile(tree) for tree in trees]
        return Evaluator(tuple(self._rows), entries, tuple(self._specs))


def _root(rows: tuple, tests: tuple,
          entry: int) -> Callable[[Mapping, list], bool]:
    def run(p, f) -> bool:
        i = entry
        while i >= 0:
            slot, t, e = rows[i]
            v = f[slot]
            if v is None:
                v = f[slot] = tests[slot](p, f)
            i = t if v else e
        return i == TRUE
    return run


class Evaluator:
    """Compiled formulas, one root each over one jump table, evaluated
    exactly on integer or rational points; ``at`` and ``eval_points`` take
    root 0, ``block`` any root."""

    def __init__(self, rows: tuple, entries: list, specs: tuple):
        self.rows, self.entries, self.specs = rows, entries, specs
        self.blank = (None,) * len(specs)
        self.block_tests: list = [None, *self.blank]  # by slot, on first use

    @cached_property
    def roots(self) -> tuple:
        """The scalar roots, one per formula, over the scalar tests."""
        tests = (None, *(scalar_test(*spec) for spec in self.specs))
        return tuple(_root(self.rows, tests, entry) for entry in self.entries)

    def block(self, columns: Mapping, denom: int, n: int, root: int = 0,
              masks: Optional[list] = None) -> int:
        """A root's truth at n assignments, given as coordinate columns of
        numerators over denom: a lane mask, byte j 1 where assignment j
        satisfies it and 0 where not.  masks, ``[None, *blank]`` when
        fresh, keeps each atom's mask at these columns by slot; pass one
        list to several roots to test each atom once."""
        rows, entry, tests = self.rows, self.entries[root], self.block_tests
        lanes = [0] * (len(rows) + 2)  # then FALSE and TRUE, at -2 and -1
        lanes[entry] = all_lanes(n)
        if masks is None:
            masks = [None, *self.blank]
        for i in range(entry, -1, -1):
            live = lanes[i]
            if not live:
                continue
            slot, t, e = rows[i]
            mask = masks[slot]
            if mask is None:
                test = tests[slot]
                if test is None:
                    test = tests[slot] = block_test(*self.specs[slot - 1])
                mask = masks[slot] = test(columns, denom, n)
            yes = live & mask
            lanes[t] |= yes
            lanes[e] |= live ^ yes
        return lanes[TRUE]

    def at(self, denom: int) -> Callable[[Mapping], bool]:
        """Truth as a function of integer points: each variable's coordinate
        numerators over denom."""
        root, blank = self.roots[0], self.blank
        return lambda points: root(points, [denom, *blank])

    def frame_points(self, points: Mapping) -> tuple[dict, list]:
        """Points cleared to one common denominator, and a fresh frame."""
        denom = math.lcm(*(q.denominator for p in points.values()
                           for q in p.coords))
        ints = {v: tuple(q.numerator * (denom // q.denominator)
                         for q in p.coords)
                for v, p in points.items()}
        return ints, [denom, *self.blank]

    def eval_points(self, points: Mapping) -> bool:
        """Truth at Point coordinates."""
        return self.roots[0](*self.frame_points(points))


class AtDenominator:
    """Root 0 of an evaluator at a fixed denominator: ``eval`` takes each
    variable's coordinate numerators over it, ``block`` their columns over
    n assignments.  The scalar root is built on the first ``eval``."""

    def __init__(self, ev: Evaluator, denom: int):
        self._ev, self._denom = ev, denom

    def block(self, columns: Mapping, n: int) -> int:
        return self._ev.block(columns, self._denom, n)

    @cached_property
    def eval(self) -> Callable[[Mapping], bool]:
        return self._ev.at(self._denom)


def _decided(sign: Callable, tail: bool) -> Callable:
    """sign where the lead is nonzero, and tail where it is zero."""
    if sign(0, 0) == tail:
        return sign
    return lambda s, zero: sign(s, zero) if s else tail


def scalar_test(rows: list, sign: Callable, tail):
    """The test closure (points, frame) of an atom's spec."""
    lead = first_nonzero([int_row(*r) for r in rows])
    if type(tail) is bool:
        decide = _decided(sign, tail)
        return lambda p, f: decide(lead(p, f[DENOM]), 0)
    (terms, const), k, lo, hi, bits, less = tail
    row = int_row(terms, const)

    def below(p, f) -> bool:  # row / (k * d) < beta
        d = f[DENOM]
        x, den = row(p, d), k * d
        return x << bits <= lo * den or x << bits < hi * den and less(x, den)
    if not rows:
        return below

    def test(p, f) -> bool:
        s = lead(p, f[DENOM])
        return sign(s, 0) if s else below(p, f)
    return test


def block_test(rows: list, sign: Callable, tail):
    """The block test closure (columns, denom, n) of an atom's spec: its
    scalar test, lane by lane.  Without lead rows, the tail's row alone
    decides."""
    if type(tail) is bool:
        lead = first_nonzero_col([int_col(*r) for r in rows])
        decide = _decided(sign, tail)
        return lambda p, d, n: lane_mask(map(decide, lead(p, d, n),
                                             repeat(0)))
    (terms, const), k, lo, hi, bits, less = tail
    col = int_col(terms, const)
    if not rows:
        def below(p, d, n) -> int:
            den = k * d
            low, high = lo * den, hi * den
            return lane_mask([x << bits <= low or x << bits < high
                              and less(x, den) for x in col(p, d, n)])
        return below
    lead = first_nonzero_col([int_col(*r) for r in rows])

    def test(p, d, n) -> int:
        den = k * d
        low, high = lo * den, hi * den
        return lane_mask([
            sign(s, 0) if s else (x << bits <= low or x << bits < high
                                  and less(x, den))
            for s, x in zip(lead(p, d, n), col(p, d, n))])
    return test


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


def int_col(terms: tuple[tuple[str, int, int], ...], const: int):
    """Block form of ``int_row``: closure (columns, denom, n) -> the
    linear form's value at each of the n lanes, as a list."""
    if not terms:
        return lambda p, d, n: [const * d] * n
    (v, i, c), *rest = terms
    if len(rest) == 1:  # the common case, in one pass
        (w, j, e), = rest

        def col(p, d, n) -> list:
            k = const * d
            return [c * x + e * y + k for x, y in zip(p[v][i], p[w][j])]
    else:
        def col(p, d, n) -> list:
            k = const * d
            out = [c * x + k for x in p[v][i]]
            for w, j, e in rest:
                out = [t + e * y for t, y in zip(out, p[w][j])]
            return out
    return col


def lane_mask(bools: Iterable) -> int:
    """A lane mask from one truth value per lane: byte j is lane j's."""
    return int.from_bytes(bytes(bools), "little")


def all_lanes(n: int) -> int:
    """The lane mask of lanes 0 to n - 1."""
    return int.from_bytes(b"\x01" * n, "little")


def lowest_lane(mask: int) -> int:
    """The lowest lane set in a nonzero lane mask."""
    return (mask & -mask).bit_length() - 1 >> 3


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


def first_nonzero_col(cols: list):
    """Block form of ``first_nonzero``: closure (columns, denom, n) -> per
    lane, the first nonzero column value, or 0."""
    if not cols:
        return lambda p, d, n: [0] * n
    head, *rest = cols
    if not rest:
        return head

    def lead(p, d, n) -> list:
        out = head(p, d, n)
        for col in rest:
            out = [s or t for s, t in zip(out, col(p, d, n))]
        return out
    return lead
