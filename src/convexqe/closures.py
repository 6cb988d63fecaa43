"""Jump-table compilation of quantifier-free boolean combinations.

A tree (a bool, a leaf, ``("&" | "|", *kids)`` or ``("~", kid)``) is
compiled once, on an explicit stack, into short-circuit jumping code (Aho,
Lam, Sethi and Ullman, *Compilers*, 2nd ed., section 6.6): a flat table with
one row ``(slot, if_true, if_false)`` per leaf.  A kid's exits are its next
sibling's entry or its parent's exits, and ``~`` swaps them.

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
variable mapped to one column per coordinate holding its numerators at
every lane: a value column, a sequence of the integers, or an
``Indexed`` column, one byte per lane indexing a pool of at most 256
integers, as the samplers draw them) and returns the atom's truth as
such a mask, by mask algebra over the sign masks of its rows, which the
``Lanes`` computes once per distinct row as packed big-integer
arithmetic; only the lanes inside a tail's bracket run ``less``.  An atom
is tested only when some lane reaches one of its rows, and at most once
per list of masks: roots called at the same lanes with one list, ``[None,
*slots]``, share each atom's mask as ``run`` shares a frame, and
evaluators called at one ``Lanes`` share each row.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
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

    def block(self, columns: Mapping, denom: int, n: int, root: int = 0,
              masks: Optional[list] = None) -> int:
        """A root's truth at n assignments, given as coordinate columns of
        numerators over denom (a ``Lanes``, or a mapping wrapped in one): a
        lane mask, byte j 1 where assignment j satisfies it and 0 where
        not.  masks, ``[None, *blank]`` when fresh, keeps each atom's mask
        at these columns by slot; pass one list to several roots to test
        each atom once."""
        if type(columns) is not Lanes:
            columns = Lanes(columns, n)
        rows, entry, specs = self.rows, self.entries[root], self.specs
        lanes = [0] * (len(rows) + 2)  # then FALSE and TRUE, at -2 and -1
        lanes[entry] = columns.full
        if masks is None:
            masks = [None, *self.blank]
        for i in range(entry, -1, -1):
            live = lanes[i]
            if not live:
                continue
            slot, t, e = rows[i]
            mask = masks[slot]
            if mask is None:
                mask = masks[slot] = block_holds(specs[slot - 1], columns,
                                                 denom)
            yes = live & mask
            lanes[t] |= yes
            lanes[e] |= live ^ yes
        return lanes[TRUE]

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
    variable's coordinate numerators over it, ``block`` their columns over
    n assignments."""

    def __init__(self, ev: Evaluator, denom: int):
        self._ev, self._denom = ev, denom

    def block(self, columns: Mapping, n: int) -> int:
        return self._ev.block(columns, self._denom, n)

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


# array typecodes of the field widths they pack, where their items are
# that wide; other widths are packed by a bytes join
_TYPECODES = {w: t for w, t in ((16, "h"), (32, "i"), (64, "q"))
              if array(t).itemsize * 8 == w}
_BIG_ENDIAN = sys.byteorder == "big"
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


class Indexed:
    """A column of pool entries held as their indices, one byte per lane:
    lane j's value is ``pool[idx[j]]``, for a pool of at most 256
    integers."""

    __slots__ = ("idx", "pool")

    def __init__(self, idx: bytes, pool: tuple):
        self.idx, self.pool = idx, pool

    def __getitem__(self, j: int) -> int:
        return self.pool[self.idx[j]]


class Lanes(dict):
    """n assignments at once: each variable mapped to one column per
    coordinate, lane j's integer numerator at index j.  A column is a
    value column, any sequence of the integers, or an ``Indexed`` column.

    It computes each distinct row ``sum of c * self[v][i] + const * denom``
    once, as SIMD within a register in Python's integers (Lamport, CACM
    1975; Fisher and Dietz, 1998).  Lane j's value x is field j of a packed
    integer: W bits holding x + 2**(W - 1), W a multiple of 8 chosen from
    the row's exact bound, so no field ever overflows into the next.  A row
    is then a few big-integer multiply-adds of packed columns, and its
    negative lanes are the fields whose top byte has its top bit clear.
    A value column is packed from its values, bounded by the largest of
    them; an ``Indexed`` column is packed by W / 8 ``bytes.translate``
    passes over its indices, one per byte of the biased field, with no
    value built, and bounded by its pool's largest entry.
    Rows and their sign masks are kept by the row's exact ``(terms, const,
    denom)``, the integer values of identical forms, so the blocks that
    share a ``Lanes`` share them, whichever lowering wrote the form."""

    def __init__(self, columns: Mapping, n: int):
        super().__init__(columns)
        self.n, self.full = n, all_lanes(n)
        self._columns: dict = {}  # (v, i) -> [max |value|, {W: packed}]
        self._ones: dict = {}  # W -> 1 in every field
        self._rows: dict = {}  # (terms, const, denom) -> its _row
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

    def column(self, terms: tuple, const: int, denom: int):
        """The row's value at every lane, as a sequence."""
        w, _, row, ones = self._row((terms, const, denom))
        # the biased field with its top bit flipped is the two's complement
        raw = (row ^ ones << w - 1).to_bytes(self.n * (w >> 3), "little")
        tc = _TYPECODES.get(w)
        if tc is None:
            step = w >> 3
            return [int.from_bytes(raw[at:at + step], "little", signed=True)
                    for at in range(0, len(raw), step)]
        values = array(tc, raw)
        if _BIG_ENDIAN:
            values.byteswap()
        return values

    def value(self, terms: tuple, const: int, denom: int, j: int) -> int:
        """The row's value at lane j."""
        x = const * denom
        for v, i, c in terms:
            x += c * self[v][i][j]
        return x

    def _negative(self, row: int, w: int) -> int:
        """The lane mask of the fields of row below their bias."""
        step = w >> 3
        return int.from_bytes(row.to_bytes(self.n * step, "little")[
            step - 1::step].translate(_NEGATIVE), "little")

    def _row(self, key: tuple) -> tuple:
        """(W, the row's bound, the row packed at width W, 1 in every field
        of width W), computed once per distinct row."""
        got = self._rows.get(key)
        if got is not None:
            return got
        terms, const, denom = key
        k = const * denom
        bound = abs(k)
        cols = []
        for v, i, c in terms:
            col = self._columns.get((v, i))
            if col is None:
                x = self[v][i]
                if type(x) is Indexed:
                    top = max(map(abs, x.pool))
                else:
                    top = max(max(x), -min(x)) if x else 0
                col = self._columns[v, i] = [top, {}]
            bound += abs(c) * col[0]
            cols.append((v, i, c, col[1]))
        w = _width(bound)
        ones = self._ones.get(w)
        if ones is None:
            ones = self._ones[w] = int.from_bytes(
                (1).to_bytes(w >> 3, "little") * self.n, "little")
        half = 1 << w - 1
        # each packed column brings c * half to every field: take that off,
        # and put the row's one bias back
        row = 0
        for v, i, c, packed in cols:
            p = packed.get(w)
            if p is None:
                x = self[v][i]
                p = packed[w] = (_pack_indexed(x, w) if type(x) is Indexed
                                 else _pack(x, w) ^ ones << w - 1)
            row += c * p
            k -= c * half
        got = self._rows[key] = w, bound, row + (k + half) * ones, ones
        return got


def _pack(col, w: int) -> int:
    """The values of col as w-bit two's complement fields, lane j's at bit
    w * j."""
    tc = _TYPECODES.get(w)
    if tc is None:
        return int.from_bytes(b"".join([
            x.to_bytes(w >> 3, "little", signed=True) for x in col]),
            "little")
    items = array(tc, col)
    if _BIG_ENDIAN:
        items.byteswap()
    return int.from_bytes(items.tobytes(), "little")


def _pack_indexed(col: Indexed, w: int) -> int:
    """The values of an index column as w-bit fields biased by 2**(w - 1),
    lane j's at bit w * j: byte b of every field is its index translated
    by table b."""
    step = w >> 3
    fields = bytearray(len(col.idx) * step)
    for b, table in enumerate(_field_tables(col.pool, w)):
        fields[b::step] = col.idx.translate(table)
    return int.from_bytes(fields, "little")


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
