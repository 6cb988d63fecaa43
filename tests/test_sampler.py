"""The sampler draws exactly as one ``rng.choice(pool)`` per entry.

Equal entries and an equal generator state afterwards, over pool sizes at
the edges of ``len(pool).bit_length()`` and of the one-byte bulk decode,
and over counts on both sides of ``BATCH_MIN``.  If a future Python changes
how ``Random.choice`` draws, or how ``getrandbits`` lays out its 32-bit
words, this fails rather than letting sampled assignments change
silently."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import convexqe.fuzz as fuzz
from convexqe.cutqe import build_structure, qe_star
from convexqe.doagqe import QeOptions
from convexqe.errors import BudgetExceededError
from convexqe.fuzz import (BATCH_MIN, SAMPLE_DENOM, VAR_POOL, FuzzConfig,
                           int_sample_pool, pool_drawer, run_fuzz)
from convexqe.models import IntCompiledFormula
from convexqe.oracle import IntOracleEval, oracle_compile
from convexqe.syntax import free_vars

POOL_SIZES = [1, 2, 3, 4, 15, 16, 17, 31, 32, 33, 127, 128, 255, 256]
COUNTS = [*range(301), 1000, 5000]


@settings(max_examples=300, deadline=None)
@given(size=st.sampled_from(POOL_SIZES), dims=st.lists(st.integers(0, 8),
                                                      min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_draws_as_per_coordinate_choice(size, dims, seed):
    pool = tuple(f"p{i}" for i in range(size))
    ours, ref = random.Random(seed), random.Random(seed)
    draw = pool_drawer(ours, pool)
    for dim in dims:
        assert draw(dim) == tuple(ref.choice(pool) for _ in range(dim))
        assert ours.getstate() == ref.getstate()
        # another draw from the same generator between points sees the
        # same state, so nothing was drawn ahead
        assert ours.random() == ref.random()


@pytest.mark.parametrize("size", POOL_SIZES)
def test_every_dimension_from_one_seed(size):
    pool = list(range(size))
    for dim in range(9):
        ours, ref = random.Random(size * 9 + dim), random.Random(size * 9 + dim)
        assert pool_drawer(ours, pool)(dim) == tuple(
            ref.choice(pool) for _ in range(dim))
        assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("size", POOL_SIZES)
def test_every_count_from_one_stream(size):
    assert BATCH_MIN < 300  # the counts straddle the batch threshold
    pool = [f"p{i}" for i in range(size)]
    ours, ref = random.Random(size), random.Random(size)
    draw = pool_drawer(ours, pool)
    for count in COUNTS:
        assert draw(count) == tuple(ref.choice(pool) for _ in range(count))
        assert ours.getstate() == ref.getstate(), count
        assert ours.random() == ref.random()


def test_empty_pool_is_refused():
    with pytest.raises(IndexError):
        pool_drawer(random.Random(0), ())


def test_pool_past_one_byte_is_refused():
    with pytest.raises(ValueError):
        pool_drawer(random.Random(0), range(257))
    with pytest.raises(ValueError):
        fuzz.index_drawer(random.Random(0), 257)


@pytest.mark.parametrize("size", POOL_SIZES)
def test_indices_are_the_pool_draws(size):
    """The index drawer's bytes, looked up in the pool, are pool_drawer's
    entries, drawn from the same stream to the same state."""
    pool = [f"p{i}" for i in range(size)]
    ours, ref = random.Random(size), random.Random(size)
    indices, draw = fuzz.index_drawer(ours, size), pool_drawer(ref, pool)
    for count in COUNTS[::7]:
        idx = indices(count)
        assert type(idx) is bytes
        assert tuple(pool[i] for i in idx) == draw(count)
        assert ours.getstate() == ref.getstate(), count


def _word_by_word(rng, pool, count):
    """count draws of pool, one 32-bit word per try: its top k bits, k the
    pool length's bit length, rejected at or above the pool length."""
    n = len(pool)
    shift = 32 - n.bit_length()
    out = []
    for _ in range(count):
        r = rng.getrandbits(32) >> shift
        while r >= n:
            r = rng.getrandbits(32) >> shift
        out.append(pool[r])
    return tuple(out)


def _reference_states(m, config):
    """run_fuzz's stream drawn word by word: the generator state after each
    checked formula's assignments, and the discrepancy count."""
    rng = random.Random(config.seed)
    structure = build_structure(m)
    options = QeOptions(dnf_budget=config.dnf_budget,
                        depth_budget=config.depth_budget,
                        inject_bug=config.inject_bug)
    pool = int_sample_pool(m)
    states, found = [], 0
    for _ in range(config.formulas):
        f = fuzz.gen_formula(rng, list(VAR_POOL[:2]), config.depth,
                             config.quantifier_depth)
        try:
            comp = IntCompiledFormula(m, qe_star(f, structure, options),
                                      SAMPLE_DENOM)
            orc = IntOracleEval(oracle_compile(m, f), SAMPLE_DENOM)
        except BudgetExceededError:
            continue
        for _ in range(config.assignments):
            ints = {v: _word_by_word(rng, pool, m.dim)
                    for v in sorted(free_vars(f))}
            if comp.eval(ints) != orc.eval(ints):
                found += 1
                break
        states.append(rng.getstate())
    return states, found


@pytest.mark.parametrize("block", [fuzz.SAMPLE_BLOCK, 7])
def test_run_fuzz_leaves_the_word_by_word_state(models, monkeypatch, block):
    """After each formula's assignments, discrepancies included, run_fuzz's
    generator is where drawing them word by word leaves it, whether they
    come in one batch or in blocks of seven."""
    m = models["lex2_sub1"]
    config = FuzzConfig(formulas=60, assignments=100, seed=7,
                        inject_bug=True)
    states, first_mismatch = [], fuzz._first_mismatch

    def recording(rng, *args):
        result = first_mismatch(rng, *args)
        states.append(rng.getstate())
        return result

    monkeypatch.setattr(fuzz, "_first_mismatch", recording)
    monkeypatch.setattr(fuzz, "SAMPLE_BLOCK", block)
    report = run_fuzz(m, config)
    ref_states, found = _reference_states(m, config)
    assert report["discrepancy_count"] == found == 2
    assert len(states) == report["checked_formulas"]
    assert states == ref_states
