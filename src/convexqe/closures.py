"""Jump-table compilation of quantifier-free boolean combinations.

A tree (a bool, a leaf, ``("&" | "|", *kids)`` or ``("~", kid)``) is
compiled once, on an explicit stack, into short-circuit jumping code (Aho,
Lam, Sethi and Ullman, *Compilers*, 2nd ed., section 6.6): a flat table with
one row ``(slot, test, if_true, if_false)`` per leaf.  A kid's exits are its
next sibling's entry or its parent's exits, and ``~`` swaps them.  This
module is plumbing only: what an atom means is up to the caller's lowering,
so the model evaluator and the independent coordinate oracle share no atom
semantics.

A root takes ``(points, frame)`` and runs one loop: it reads or fills the
atom's frame slot, then jumps.  ``points`` maps each variable to a tuple of
integer coordinate numerators over one common denominator.  ``frame`` is a
fresh list per call, ``[denom, *slots]``: the denominator, then one cache
slot per distinct atom.  The roots of one lowering (an existential and its
guards, say) share its table: called at the same points with one frame,
they test each atom at most once.

``Evaluator.block`` is a second driver over the same table, for many
assignments at once.  Every jump goes to a lower row or to an exit, so it
walks a root's rows once, downwards, carrying the mask of lanes (one byte
per assignment, 1 where the lane reaches the row) and splitting it at each
row by the atom's block test.  A block test (the lowering's second
callable, lowered on first use) takes ``(columns, denom, n)``, ``columns``
mapping each variable to one tuple per coordinate holding its numerators
at every lane, and returns its truth as such a mask.  It runs over all n
lanes, only when some lane reaches one of its rows, and at most once per
list of masks: roots called at the same columns with one list, ``[None,
*slots]``, share each atom's mask as the scalar roots share a frame.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Optional

DENOM = 0
TRUE, FALSE = -1, -2  # a root's exits; rows are numbered from 0


class Lowering:
    """One jump table under construction: equal (hashable) atoms share one
    frame slot, whose test ``lower(atom)`` runs at most once per call;
    ``lower_block(atom)`` is its block test."""

    def __init__(self, lower: Callable, lower_block: Callable,
                 literal: Callable = lambda leaf: (leaf, False)):
        self._lower = lower
        self._lower_block = lower_block
        self._literal = literal
        self._slots: dict = {}  # atom -> (slot, test)
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
                slot = slots[atom] = (1 + len(slots), self._lower(atom))
            if t == e:  # the test cannot matter, so it is not run
                entry = t
                continue
            entry = len(rows)
            rows.append((*slot, e, t) if negated else (*slot, t, e))
        return entry

    def evaluator(self, *trees) -> "Evaluator":
        entries = [self._compile(tree) for tree in trees]
        return Evaluator(tuple(self._rows), entries, tuple(self._slots),
                         self._lower_block)


def _root(rows: tuple, entry: int) -> Callable[[Mapping, list], bool]:
    def run(p, f) -> bool:
        i = entry
        while i >= 0:
            slot, test, t, e = rows[i]
            v = f[slot]
            if v is None:
                v = f[slot] = test(p, f)
            i = t if v else e
        return i == TRUE
    return run


class Evaluator:
    """Compiled formulas, one root each over one jump table, evaluated
    exactly on integer or rational points; ``at`` and ``eval_points`` take
    root 0, ``block`` any root."""

    def __init__(self, rows: tuple, entries: list, atoms: tuple,
                 lower_block: Callable):
        self.roots = tuple(_root(rows, entry) for entry in entries)
        self.blank = (None,) * len(atoms)
        self.rows, self.entries, self.atoms = rows, entries, atoms
        self._lower_block = lower_block
        self.block_tests: list = [None, *self.blank]  # by slot, on first use

    def block(self, columns: Mapping, denom: int, n: int, root: int = 0,
              masks: Optional[list] = None) -> int:
        """A root's truth at n assignments, given as coordinate columns of
        numerators over denom: a lane mask, byte j 1 where assignment j
        satisfies it and 0 where not.  masks, ``[None, *blank]`` when
        fresh, keeps each atom's mask at these columns by slot; pass one
        list to several roots to test each atom once."""
        rows, entry, tests = self.rows, self.entries[root], self.block_tests
        lower = self._lower_block
        lanes = [0] * (len(rows) + 2)  # then FALSE and TRUE, at -2 and -1
        lanes[entry] = all_lanes(n)
        if masks is None:
            masks = [None, *self.blank]
        for i in range(entry, -1, -1):
            live = lanes[i]
            if not live:
                continue
            slot, _, t, e = rows[i]
            mask = masks[slot]
            if mask is None:
                test = tests[slot]
                if test is None:
                    test = tests[slot] = lower(self.atoms[slot - 1])
                mask = masks[slot] = test(columns, denom, n)
            yes = live & mask
            lanes[t] |= yes
            lanes[e] |= live ^ yes
        return lanes[TRUE]

    def block_at(self, denom: int) -> Callable[[Mapping, int], int]:
        """``block`` as a function of (columns, n) at numerators over
        denom."""
        return lambda columns, n: self.block(columns, denom, n)

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


def lane_mask(bools: list) -> int:
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
