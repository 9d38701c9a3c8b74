import math
import warnings

import numpy as np
import pytest

from deepbrainnet import rng as rng_module
from deepbrainnet.rng import Prng, derive_seed, fnv1a64, splitmix64, stage_seed


def test_streams_are_deterministic():
    a = Prng(12345)
    b = Prng(12345)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_different_seeds_differ():
    assert Prng(1).next_u64() != Prng(2).next_u64()


def test_zero_seed_is_usable():
    rng = Prng(0)
    values = {rng.next_u64() for _ in range(10)}
    assert len(values) == 10


def test_uniform_range():
    rng = Prng(7)
    samples = [rng.uniform() for _ in range(2000)]
    assert all(0.0 <= s < 1.0 for s in samples)
    assert 0.4 < np.mean(samples) < 0.6


def test_below_is_in_range_and_covers():
    rng = Prng(3)
    seen = {rng.below(5) for _ in range(500)}
    assert seen == {0, 1, 2, 3, 4}


def test_shuffle_is_a_permutation():
    rng = Prng(11)
    items = list(range(100))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items


def test_sample_indices_distinct():
    rng = Prng(5)
    idx = rng.sample_indices(50, 20)
    assert len(set(idx)) == 20
    assert all(0 <= i < 50 for i in idx)


def test_normals_moments():
    rng = Prng(9)
    xs = rng.normals(4000)
    assert abs(xs.mean()) < 0.1
    assert abs(xs.std() - 1.0) < 0.1


def test_stage_seed_separates_stages():
    assert stage_seed(1, "train") != stage_seed(1, "split")
    assert stage_seed(1, "train") == stage_seed(1, "train")
    assert stage_seed(1, "train") != stage_seed(2, "train")


def test_derive_seed_is_order_sensitive():
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)
    assert derive_seed(42, 3, 4) == derive_seed(42, 3, 4)


def test_hash_building_blocks_change_on_input():
    assert splitmix64(0) != splitmix64(1)
    assert fnv1a64("a") != fnv1a64("b")


def test_stream_matches_published_values():
    """Known answers for the documented constants, so a change to the generator shows."""
    a = Prng(0)
    assert [a.next_u64() for _ in range(3)] == [0x7BBCB40D550682D0, 0xDE7FE413D00CC9FD, 0xB3C638353C668C91]
    b = Prng(12345)
    assert [b.next_u64() for _ in range(3)] == [0x47EDFD1CD809B6DC, 0x34D004209D31C6BA, 0x38B855AC9296D1E9]
    c = Prng(12345)
    assert c.below(61) == 33
    assert c.uniform() == float.fromhex("0x1.a6802104e98e0p-3")
    assert derive_seed(42, 3, 4) == 0xC8F064CE8E62C685
    assert stage_seed(1, "synth") == 0xDA2672023AA159E5


BLOCK_COUNTS = [1, 2, 255, 256, 257, 1024, 50176]


@pytest.mark.parametrize("count", BLOCK_COUNTS)
def test_uniforms_equal_scalar_stream(count):
    block, scalar = Prng(count), Prng(count)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = block.uniforms(count)
    assert got.dtype == np.float64 and got.shape == (count,)
    assert np.array_equal(got, [scalar.uniform() for _ in range(count)])
    assert block.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("shape", [(0,), (1,), (8, 3, 3, 3), (2867,)])
def test_normals_equal_the_scalar_loop(shape):
    """One uniforms draw with per-element Box-Muller gives the values, and leaves the
    state, of the scalar loop it replaced: two `uniform()` calls per element."""
    mu, sigma = 0.5, np.sqrt(2.0 / 27)  # sigma as `_kaiming` passes it
    block, scalar = Prng(17), Prng(17)
    got = block.normals(shape, mu, sigma)
    reference = np.empty(int(np.prod(shape)))
    for i in range(reference.size):
        u1 = 1.0 - scalar.uniform()
        u2 = scalar.uniform()
        reference[i] = mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    assert got.dtype == np.float64 and got.shape == shape
    assert np.array_equal(got, reference.reshape(shape))
    assert block._state == scalar._state


@pytest.mark.parametrize("count", BLOCK_COUNTS)
def test_belows_equal_scalar_stream(count):
    bounds = [1 + (7 * i) % 300 for i in range(count)]
    block, scalar = Prng(count + 1), Prng(count + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = block.belows(np.array(bounds))
    assert got.dtype == np.uint64 and got.shape == (count,)
    assert got.tolist() == [scalar.below(n) for n in bounds]
    assert block.next_u64() == scalar.next_u64()


def reference_states(rng: Prng, count: int) -> np.ndarray:
    """The lane layout `_states` was first written with: up to 256 lanes, sqrt(count)
    long, each jumped to its start by one matrix apply per set bit of its offset."""
    lanes = min(256, math.isqrt(count))
    length = -(-count // lanes)
    starts = np.full(lanes, rng._state, dtype=np.uint64)
    offsets = np.arange(lanes) * length
    for k in range(int(offsets[-1]).bit_length()):
        jump = ((offsets >> k) & 1) == 1
        starts[jump] = rng_module._gf2_apply(rng_module._STEP_POWERS[k], starts[jump])
    block = np.empty((length, lanes), dtype=np.uint64)
    x = starts
    for row in block:
        row[...] = x ^ (x >> np.uint64(12))
        row ^= row << np.uint64(25)
        row ^= row >> np.uint64(27)
        x = row
    states = block.T.ravel()[:count]
    rng._state = int(states[-1])
    return states


@pytest.mark.parametrize("count", [1, 2, 3, 24, 255, 1024, 1025, 4097, 2**17 + 3, 200_000])
def test_states_match_the_bit_jump_reference(count):
    for seed in (count, 2**64 - 1 - count):
        block, reference = Prng(seed), Prng(seed)
        for size in (count, 1, count // 3 + 1):  # each draw starts where the last ended
            assert np.array_equal(block._states(size), reference_states(reference, size)), size
            assert block._state == reference._state, size


def test_belows_keeps_below_rejection_rule():
    # 2**64 % (2**63 + 1) == 2**63 - 1, so about half of all outputs are rejected
    bounds = [2**63 + 1] * 40 + [5, 2**64 - 1, 1]
    block, scalar = Prng(8), Prng(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = block.belows(np.array(bounds, dtype=object))
    assert got.tolist() == [scalar.below(n) for n in bounds]
    assert block.next_u64() == scalar.next_u64()


def test_uniforms_keeps_shape_and_empty_draw_leaves_stream():
    block, scalar = Prng(4), Prng(4)
    assert block.uniforms((2, 3)).shape == (2, 3)
    assert block.belows([]).size == 0 and block.uniforms(0).size == 0
    [scalar.uniform() for _ in range(6)]
    assert block.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("bounds", [[3, 0], [-1], [2**64], [5, 2**64 + 7]])
def test_belows_rejects_bounds_out_of_range(bounds):
    with pytest.raises(ValueError):
        Prng(1).belows(bounds)


def test_belows_refuses_float_bounds():
    with pytest.raises(TypeError):
        Prng(1).belows([2**63 + 1, 5.0])
