"""Integer-backed Term arithmetic against a Fraction reference model.

The reference holds a term as a dict of variable -> Fraction plus the
e_in, e_out and unit parts as Fractions, and does each operation in
Fraction arithmetic.  A Term must agree with it through the Fraction
accessors, stay canonical (positive denominator, lowest terms, sorted
nonzero numerators), hash equal for equal expressions, and order by
sort_key exactly as the Fraction tuple (coeffs, e_in, e_out, offset)."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from convexqe.syntax import Term

_names = st.sampled_from(["x", "y", "z", "w"])
_rats = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
_nonzero = _rats.filter(bool)

# a reference term: ({var: q}, e_in, e_out, offset), zeros dropped
_refs = st.tuples(st.dictionaries(_names, _nonzero, max_size=3),
                  _rats, _rats, _rats)


def ref_add(x, y, sign=1):
    d = dict(x[0])
    for v, q in y[0].items():
        d[v] = d.get(v, 0) + sign * q
    return ({v: q for v, q in d.items() if q},
            x[1] + sign * y[1], x[2] + sign * y[2], x[3] + sign * y[3])


def ref_scale(x, q):
    return ({v: c * q for v, c in x[0].items() if c * q},
            x[1] * q, x[2] * q, x[3] * q)


def term(x) -> Term:
    return Term(x[0].items(), x[1], x[2], x[3])


def agrees(t: Term, x) -> bool:
    return (t.coeffs == tuple(sorted(x[0].items()))
            and (t.e_in, t.e_out, t.offset) == x[1:])


def canonical(t: Term) -> bool:
    nums, a, b, c, den = t
    return (den > 0
            and math.gcd(den, a, b, c, *(n for _, n in nums)) == 1
            and all(n for _, n in nums)
            and [v for v, _ in nums] == sorted({v for v, _ in nums}))


def ref_key(x):
    return (tuple(sorted(x[0].items())), x[1], x[2], x[3])


@settings(max_examples=300, deadline=None)
@given(_refs, _refs, _rats)
def test_arithmetic_matches_fractions(x, y, q):
    t, u = term(x), term(y)
    cases = [(t, x), (t + u, ref_add(x, y)), (t - u, ref_add(x, y, -1)),
             (-t, ref_scale(x, -1)), (t.scale(q), ref_scale(x, q))]
    if q:
        cases.append((t.scale_ratio(q.numerator, q.denominator),
                      ref_scale(x, q)))
    for got, want in cases:
        assert agrees(got, want), (got, want)
        assert canonical(got)


@settings(max_examples=300, deadline=None)
@given(_refs, _names, st.dictionaries(_names, _refs, max_size=2))
def test_drop_var_and_subst_all_match_fractions(x, v, env):
    t = term(x)
    dropped = ({n: q for n, q in x[0].items() if n != v}, *x[1:])
    assert agrees(t.drop_var(v), dropped) and canonical(t.drop_var(v))
    # simultaneous substitution: every replaced variable reads the input
    want = ({n: q for n, q in x[0].items() if n not in env}, *x[1:])
    for n, q in x[0].items():
        if n in env:
            want = ref_add(want, ref_scale(env[n], q))
    got = t.subst_all({n: term(s) for n, s in env.items()})
    assert agrees(got, want) and canonical(got)


@settings(max_examples=300, deadline=None)
@given(_refs, _refs, _nonzero)
def test_equal_expressions_are_equal_terms(x, y, q):
    t, u = term(x), term(y)
    for a, b in [((t + u) - u, t), (t + u, u + t), (t.scale(2), t + t),
                 (t.scale(q).scale(1 / q), t), (t - t, Term()),
                 (-(-t), t), (t - u, -(u - t))]:
        assert a == b and hash(a) == hash(b)
        assert a.sort_key() == b.sort_key()
    assert (t == u) == (ref_key(x) == ref_key(y))


@settings(max_examples=500, deadline=None)
@given(_refs, _refs)
def test_sort_key_orders_as_fraction_tuples(x, y):
    kt, ku = term(x).sort_key(), term(y).sort_key()
    assert (kt < ku) == (ref_key(x) < ref_key(y))
    assert (kt == ku) == (ref_key(x) == ref_key(y))
