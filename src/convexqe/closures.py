"""Jump-table compilation of quantifier-free boolean combinations.

A quantifier-free ``syntax`` formula, whose ``AtomF`` leaf is its atom, or
a tuple tree (a bool, a leaf, ``("&" | "|", *kids)`` or ``("~", kid)``) is
compiled once, as it stands, on an explicit stack, into short-circuit
jumping code (Aho, Lam, Sethi and Ullman, *Compilers*, 2nd ed., section
6.6): one row ``(slot, if_true, if_false)`` per leaf.  A kid's exits are
its next sibling's entry or its parent's exits, and ``~`` swaps them, as
does a negative int leaf n, which is the leaf ~n negated.

What an atom means is up to the caller's lowering, so the model evaluator
and the independent coordinate oracle share no atom semantics.  A lowering
turns an atom into one integer-row spec ``(rows, sign, tail)``: ``rows``
are ``(terms, const)`` pairs, each the value ``const * d`` plus the sum of
``c * points[v][i]`` over the ``(v, i, c)`` in terms, at integer points over
a denominator d; ``sign`` is a comparison, such as ``operator.lt``, of the
first of them that is nonzero with 0; and ``tail`` decides where they are
all zero, as a bool or as ``(row, k, lo, hi, bits, less)``: the truth of
``row / (k * d) < beta`` for a beta with ``lo / 2**bits < beta < hi /
2**bits`` and ``less(x, den)`` the exact ``x / den < beta``, called only
inside that bracket.  The spec is the atom's only test: ``holds`` reads it
at one point and ``block_holds`` at many, so neither lowering writes a test.

``Evaluator.run`` drives a root at one point ``(points, frame)`` in one
loop: it reads or fills the atom's frame slot, then jumps.  ``points`` maps
each variable to a tuple of integer coordinate numerators over one common
denominator.  ``frame`` is a fresh list per point, ``[denom, *slots]``: the
denominator, then one cache slot per distinct atom.  The roots of one
lowering (an existential and its guards, say) share its table: run at the
same points with one frame, they test each atom at most once.

``Evaluator.block`` is a second driver over the same table, for many
assignments at once.  Every jump goes to a lower row or to an exit, so it
walks a root's rows once, downwards, carrying the mask of lanes (one byte
per assignment, 1 where the lane reaches the row) and splitting it at each
row by ``block_holds``, which takes a ``Lanes`` of n assignments (each
variable mapped to one column per coordinate, one byte per lane indexing
a pool of at most 256 integers, as the samplers draw them) and returns the
atom's truth as such a mask, by mask algebra over the sign masks of its
rows, which the ``Lanes`` computes once per distinct row as packed
big-integer arithmetic; only the lanes inside a tail's bracket run
``less``.  An atom is tested only when some lane reaches one of its rows,
and at most once per list of masks: roots called at the same lanes with
one list, ``[None, *slots]``, share each atom's mask as ``run`` shares a
frame, and evaluators called at one ``Lanes`` share each row's masks.

``Evaluator.substitute`` puts a term in for a variable in every spec,
exactly, so a Skolem witness is checked at the lanes of its parameters.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Mapping, Optional

from .syntax import (QUANTIFIERS, And, AtomF, FalseF, Implies, Not, Or, TrueF,
                     children)

DENOM = 0
TRUE, FALSE = -1, -2  # a root's exits; rows are numbered from 0
# a syntax connective's tuple operator: true is an empty &, false an empty |
_OPS = {And: "&", Or: "|", Not: "~", Implies: "->", TrueF: "&", FalseF: "|"}


class Lowering:
    """One jump table under construction: equal (hashable) atoms share one
    frame slot, whose spec ``lower(atom)`` is taken once.  A negative int
    leaf n is the negation of the atom ~n."""

    def __init__(self, lower: Callable):
        self._lower = lower
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
            while op := n[0] if type(n) is tuple else _OPS.get(type(n)):
                kids = n[1:] if type(n) is tuple else children(n)
                if op == "~":
                    n, t, e = kids[0], e, t
                elif not kids:
                    n = op == "&"
                else:
                    # & and ->'s lhs go on to the next kid where true
                    chain = {"&": (None, e), "|": (t, None)}.get(op, (None, t))
                    stack.extend((k, *chain) for k in kids[:-1])
                    n = kids[-1]
            if type(n) is bool:
                entry = t if n else e
                continue
            if type(n) is AtomF:
                n = n.atom
            elif type(n) is int and n < 0:
                n, t, e = ~n, e, t
            elif type(n) in QUANTIFIERS:
                raise ValueError("compile needs a quantifier-free formula")
            slot = slots.get(n)
            if slot is None:
                slot = slots[n] = 1 + len(slots)
                self._specs.append(self._lower(n))
            if t == e:  # the test cannot matter, so it is not run
                entry = t
                continue
            entry = len(rows)
            rows.append((slot, t, e))
        return entry

    def evaluator(self, *trees) -> "Evaluator":
        entries = [self._compile(tree) for tree in trees]
        return Evaluator(tuple(self._rows), entries, tuple(self._specs))


class Evaluator:
    """Compiled formulas, one root each over one jump table, evaluated
    exactly on integer or rational points; ``eval_points`` takes root 0,
    ``run`` and ``block`` any root."""

    def __init__(self, rows: tuple, entries: list, specs: tuple):
        self.rows, self.entries, self.specs = rows, entries, specs
        self.blank = (None,) * len(specs)

    def run(self, points: Mapping, frame: list, root: int = 0) -> bool:
        """A root's truth at integer points: each variable's coordinate
        numerators over frame[0].  frame, ``[denom, *blank]`` when fresh,
        keeps each atom's truth at these points by slot; pass one frame to
        several roots to test each atom once."""
        rows, specs, i = self.rows, self.specs, self.entries[root]
        while i >= 0:
            slot, t, e = rows[i]
            v = frame[slot]
            if v is None:
                v = frame[slot] = holds(specs[slot - 1], points, frame[DENOM])
            i = t if v else e
        return i == TRUE

    def block(self, lanes: Lanes, denom: int, root: int = 0,
              masks: Optional[list] = None) -> int:
        """A root's truth at the lanes' assignments, their numerators over
        denom: a lane mask, byte j 1 where assignment j satisfies it and 0
        where not.  masks, ``[None, *blank]`` when fresh, keeps each atom's
        mask at these lanes by slot; pass one list to several roots to test
        each atom once."""
        rows, entry, specs = self.rows, self.entries[root], self.specs
        reach = [0] * (len(rows) + 2)  # then FALSE and TRUE, at -2 and -1
        reach[entry] = lanes.full
        if masks is None:
            masks = [None, *self.blank]
        for i in range(entry, -1, -1):
            live = reach[i]
            if not live:
                continue
            slot, t, e = rows[i]
            mask = masks[slot]
            if mask is None:
                mask = masks[slot] = block_holds(specs[slot - 1], lanes,
                                                 denom)
            yes = live & mask
            reach[t] |= yes
            reach[e] |= live ^ yes
        return reach[TRUE]

    def substitute(self, var: str, lc: int, rows: list) -> "Evaluator":
        """The evaluator over the same table with var's coordinate i put in
        as rows[i] / lc, (lc, rows) a term's ``models.term_rows``: its truth
        at points over d is this one's at those points, each numerator
        times lc, and var's numerators rows[i] over lc * d.  Each row is
        scaled by lc > 0, each term of var becomes its coefficient times
        rows[i], and a tail's divisor k becomes k * lc, so every row keeps
        its value and ``less`` its arguments (the substitution step of
        virtual substitution; Loos and Weispfenning, 1993)."""

        def row(r: tuple) -> tuple:
            terms, const = r
            const *= lc
            merged: dict = {}  # (v, i) -> coefficient
            for v, i, c in terms:
                if v != var:
                    merged[v, i] = merged.get((v, i), 0) + c * lc
                    continue
                put, at = rows[i]
                const += c * at
                for u, j, e in put:
                    merged[u, j] = merged.get((u, j), 0) + c * e
            terms = tuple([(v, i, c) for (v, i), c in merged.items() if c])
            return terms, const

        def spec(s: tuple) -> tuple:
            lead, sign, tail = s
            if type(tail) is not bool:
                tail = (row(tail[0]), tail[1] * lc, *tail[2:])
            return [row(r) for r in lead], sign, tail
        return Evaluator(self.rows, self.entries,
                         tuple([spec(s) for s in self.specs]))

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
        return self.run(*self.frame_points(points))


class AtDenominator:
    """Root 0 of an evaluator at a fixed denominator: ``eval`` takes each
    variable's coordinate numerators over it, ``block`` a ``Lanes`` of
    them."""

    def __init__(self, ev: Evaluator, denom: int):
        self._ev, self._denom = ev, denom

    def block(self, lanes: Lanes) -> int:
        return self._ev.block(lanes, self._denom)

    def eval(self, points: Mapping) -> bool:
        return self._ev.run(points, [self._denom, *self._ev.blank])


def holds(spec: tuple, points: Mapping, d: int) -> bool:
    """An atom's truth, from its spec, at integer points over d: the sign
    of the first nonzero row, or the tail where every row is zero."""
    rows, sign, tail = spec
    for terms, const in rows:
        x = const * d
        for v, i, c in terms:
            x += c * points[v][i]
        if x:
            return sign(x, 0)
    if type(tail) is bool:
        return tail
    (terms, const), k, lo, hi, bits, less = tail
    x, den = const * d, k * d
    for v, i, c in terms:
        x += c * points[v][i]
    # row / (k * d) < beta
    return x << bits <= lo * den or x << bits < hi * den and less(x, den)


def block_holds(spec: tuple, lanes: Lanes, d: int) -> int:
    """``holds`` at every lane of lanes, as a lane mask: mask algebra over
    the sign masks of the spec's rows, which ``lanes`` computes once per
    block.  Only the lanes of the tail's bracket run ``less``."""
    rows, sign, tail = spec
    # neg: the lanes whose first nonzero row is negative; zero: the lanes
    # where every row so far is zero
    full = lanes.full
    neg, zero = 0, full
    for terms, const in rows:
        lt, eq = lanes.signs(terms, const, d)
        neg |= zero & lt
        zero &= eq
        if not zero:
            break
    out = (neg if sign(-1, 0) else 0) | (
        full ^ zero ^ neg if sign(1, 0) else 0)
    if not zero or tail is False:
        return out
    if tail is True:
        return out | zero
    # the tail's row x against beta * k * d: x << bits <= lo * den decides
    # it below, and where only x << bits < hi * den holds, less decides
    (terms, const), k, lo, hi, bits, less = tail
    den = k * d
    sure, inside = lanes.at_most(terms, const, d, (
        lo * den >> bits, -(-hi * den >> bits) - 1))
    out |= sure & zero
    maybe = (inside ^ sure) & zero
    while maybe:
        j = lowest_lane(maybe)
        bit = 1 << 8 * j
        maybe ^= bit
        if less(lanes.value(terms, const, d, j), den):
            out |= bit
    return out


# a field's top byte -> 1 where its top bit is clear: the field is below
# its bias, so the value it holds is negative
_NEGATIVE = bytes(b < 0x80 for b in range(256))


def _width(bound: int) -> int:
    """The field width for values within +-bound: the smallest of 16, 32,
    64 and the multiples of 64 with 2**(W - 1) > 2 * bound + 2, so that a
    value less a threshold within +-(bound + 1), less 1, still fits."""
    need = (2 * bound + 2).bit_length() + 1
    for w in (16, 32, 64):
        if need <= w:
            return w
    return -(-need // 64) * 64


class Lanes(dict):
    """n assignments at once, drawn from one pool of at most 256 integers:
    each variable mapped to one column per coordinate, a ``bytes`` whose
    byte j indexes lane j's numerator in the pool.

    It computes each distinct row ``sum of c * self[v][i] + const * denom``
    once, as SIMD within a register in Python's integers (Lamport, CACM
    1975; Fisher and Dietz, 1998).  Lane j's value x is field j of a packed
    integer: W bits holding x + 2**(W - 1), W a multiple of 8 chosen from
    the row's exact bound, so no field ever overflows into the next; every
    column is bounded by the pool's largest |entry|.  A row is then a few
    big-integer multiply-adds of packed columns, and its negative lanes are
    the fields whose top byte has its top bit clear.  A column is packed by
    W / 8 ``bytes.translate`` passes over its indices, one per byte of the
    biased field, with no value built.
    A row's sign masks are kept by its exact ``(terms, const, denom)``, the
    integer values of identical forms, and each packed column by its
    variable, coordinate and width, so the blocks that share a ``Lanes``
    share them, whichever lowering wrote the form."""

    def __init__(self, columns: Mapping, pool: tuple, n: int):
        super().__init__(columns)
        self.pool, self.n, self.full = pool, n, all_lanes(n)
        self._top = max(map(abs, pool), default=0)
        self._packed: dict = {}  # (v, i, W) -> the column packed at width W
        self._ones: dict = {}  # W -> 1 in every field
        self._signs: dict = {}  # (terms, const, denom) -> (lt, eq)

    def signs(self, terms: tuple, const: int, denom: int) -> tuple[int, int]:
        """The lane masks where the row is negative, and where it is 0."""
        key = terms, const, denom
        got = self._signs.get(key)
        if got is None:
            w, _, row, ones = self._row(key)
            lt = self._negative(row, w)
            got = self._signs[key] = lt, self._negative(row - ones, w) ^ lt
        return got

    def at_most(self, terms: tuple, const: int, denom: int,
                thresholds: Iterable[int]) -> list[int]:
        """Per threshold t, the lane mask where the row is at most t."""
        w, bound, row, ones = self._row((terms, const, denom))
        # x <= t is x - t - 1 < 0; clamped to +-(bound + 1), t decides
        # every lane as before, and x - t - 1 stays inside its field
        return [self._negative(
            row - (max(-bound - 1, min(t, bound + 1)) + 1) * ones, w)
            for t in thresholds]

    def value(self, terms: tuple, const: int, denom: int, j: int) -> int:
        """The row's value at lane j."""
        x = const * denom
        for v, i, c in terms:
            x += c * self.pool[self[v][i][j]]
        return x

    def _negative(self, row: int, w: int) -> int:
        """The lane mask of the fields of row below their bias."""
        step = w >> 3
        return int.from_bytes(row.to_bytes(self.n * step, "little")[
            step - 1::step].translate(_NEGATIVE), "little")

    def _row(self, key: tuple) -> tuple:
        """(W, the row's bound, the row packed at width W, 1 in every field
        of width W), for the row's (terms, const, denom)."""
        terms, const, denom = key
        k = const * denom
        bound = abs(k) + sum([abs(c) for _, _, c in terms]) * self._top
        w = _width(bound)
        ones = self._ones.get(w)
        if ones is None:
            ones = self._ones[w] = int.from_bytes(
                (1).to_bytes(w >> 3, "little") * self.n, "little")
        step, half = w >> 3, 1 << w - 1
        # each packed column brings c * half to every field: take that off,
        # and put the row's one bias back
        row = 0
        for v, i, c in terms:
            p = self._packed.get((v, i, w))
            if p is None:
                # byte b of every field is its index translated by table b
                fields = bytearray(self.n * step)
                for b, table in enumerate(_field_tables(self.pool, w)):
                    fields[b::step] = self[v][i].translate(table)
                p = self._packed[v, i, w] = int.from_bytes(fields, "little")
            row += c * p
            k -= c * half
        return w, bound, row + (k + half) * ones, ones


@functools.lru_cache(maxsize=64)
def _field_tables(pool: tuple, w: int) -> tuple[bytes, ...]:
    """Per byte b of a w-bit field, the ``bytes.translate`` table taking
    index j to byte b of pool[j] + 2**(w - 1)."""
    step = w >> 3
    raw = b"".join([(x + (1 << w - 1)).to_bytes(step, "little")
                    for x in pool])
    return tuple(raw[b::step].ljust(256, b"\0") for b in range(step))


def all_lanes(n: int) -> int:
    """The lane mask of lanes 0 to n - 1."""
    return int.from_bytes(b"\x01" * n, "little")


def lowest_lane(mask: int) -> int:
    """The lowest lane set in a nonzero lane mask."""
    return (mask & -mask).bit_length() - 1 >> 3
