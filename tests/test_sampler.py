"""The sampler draws exactly as one ``rng.choice(pool)`` per coordinate.

Equal entries and an equal generator state afterwards, over pool sizes at
the edges of ``len(pool).bit_length()`` and point sizes 0 to 8.  If a
future Python changes how ``Random.choice`` draws, this fails rather than
letting sampled assignments change silently."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from convexqe.fuzz import pool_drawer

POOL_SIZES = [1, 2, 3, 4, 15, 16, 17, 31, 32, 33]


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


def test_empty_pool_is_refused():
    with pytest.raises(IndexError):
        pool_drawer(random.Random(0), ())
