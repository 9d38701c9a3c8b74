"""Deterministic pseudo-random numbers for every randomized step in the pipeline.

All constants are spelled out so that splits, augmentation draws, synthetic
data, and weight initialization can be reproduced bit-for-bit outside this
package:

* generator: xorshift64* (shift triple 12/25/27, multiplier 0x2545F4914F6CDD1D)
* seeding and stream derivation: splitmix64 (increment 0x9E3779B97F4A7C15)
* stage names fold into seeds via FNV-1a 64
  (offset 0xCBF29CE484222325, prime 0x100000001B3)

Floats in [0, 1) take the top 53 bits of one 64-bit output.

Array draws (`uniforms`, `belows`) produce exactly the numbers, and leave the
state exactly where, the same count of scalar draws would. They read a block
of the stream at once: the xorshift step is linear over GF(2), so its 64x64
bit matrix raised to a power jumps a state ahead (the powers T**(2**k) are
precomputed once). Up to 1024 lanes start one block of 2**k states apart in the
stream and step together in numpy; reading the lanes one after the other gives
the stream in order. The lane starts double: lanes [m, 2m) are lanes [0, m)
jumped by one power, so each lane costs one matrix apply (the jump-ahead of
Haramoto et al., INFORMS J. Computing 2008). `normals` takes its uniforms in
one such draw but keeps Box-Muller per element in `math.log` and `math.cos`,
because numpy's log and cos are not guaranteed to round like them.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1

_XORSHIFT_MULT = 0x2545F4914F6CDD1D
_SPLITMIX_INC = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MAX_LANES = 1024
_BITS = np.arange(64, dtype=np.uint64)


def splitmix64(x: int) -> int:
    """One splitmix64 step; maps any 64-bit value to a well-mixed 64-bit value."""
    z = (x + _SPLITMIX_INC) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def fnv1a64(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & MASK64
    return h


def stage_seed(global_seed: int, stage: str) -> int:
    """Fan one global seed out to an independent, reproducible per-stage seed."""
    return splitmix64((global_seed & MASK64) ^ fnv1a64(stage))


def derive_seed(seed: int, *values: int) -> int:
    """Mix integers (epoch, sample index, ...) into a seed, order-sensitively."""
    s = seed & MASK64
    for v in values:
        s = splitmix64(s ^ (v & MASK64))
    return s


def _gf2_apply(columns: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Multiply a 64x64 GF(2) matrix, given as its 64 column words, with each state."""
    bits = (states[:, None] >> _BITS) & np.uint64(1)
    return np.bitwise_xor.reduce(bits * columns, axis=1)


class Prng:
    """xorshift64* stream seeded through splitmix64.

    The state is never zero: a zero post-mix seed is replaced by the splitmix
    increment constant.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        state = splitmix64(seed & MASK64)
        self._state = state if state != 0 else _SPLITMIX_INC

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & MASK64
        x ^= x >> 27
        self._state = x
        return (x * _XORSHIFT_MULT) & MASK64

    def uniform(self) -> float:
        """Float in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def coin(self) -> bool:
        return self.uniform() < 0.5

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n), by rejection sampling."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        span = 1 << 64
        threshold = span - span % n
        while True:
            u = self.next_u64()
            if u < threshold:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), in draw order (partial Fisher-Yates)."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        pool = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """One Gaussian draw via Box-Muller; consumes two uniforms, no caching."""
        return _box_muller(self.uniform(), self.uniform(), mu, sigma)

    def normals(self, shape, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """Gaussian draws equal to as many `normal()` calls in row-major order,
        leaving the same state, from one draw of their uniforms."""
        pairs = self.uniforms((int(np.prod(shape)), 2)).tolist()
        return np.array([_box_muller(u1, u2, mu, sigma) for u1, u2 in pairs],
                        dtype=np.float64).reshape(shape)

    def uniforms(self, shape) -> np.ndarray:
        """Floats in [0, 1), equal to as many `uniform()` calls in row-major order."""
        u = self._states(int(np.prod(shape))) * _XORSHIFT_MULT_U64
        return ((u >> np.uint64(11)).astype(np.float64) * 2.0**-53).reshape(shape)

    def belows(self, bounds) -> np.ndarray:
        """uint64 array of `below(n)` for each n in `bounds`, in order, same stream."""
        bounds = np.asarray(bounds)
        if bounds.size and bounds.dtype.kind not in "iuO":  # floats may have rounded
            raise TypeError(f"belows() needs integer bounds, got {bounds.dtype}")
        if bounds.size and not (1 <= int(bounds.min()) and int(bounds.max()) <= MASK64):
            raise ValueError("belows() needs every bound in [1, 2**64)")
        n = bounds.astype(np.uint64).ravel()
        # below() accepts u < 2**64 - 2**64 % n, that is u <= ~(2**64 % n)
        accept_max = ~((~n + np.uint64(1)) % n)
        out = np.empty(n.size, dtype=np.uint64)
        pos = 0
        while pos < n.size:
            u = self._states(n.size - pos) * _XORSHIFT_MULT_U64
            while u.size:  # a rejected output is dropped; the rest move up a place
                end = pos + u.size
                rejected = np.flatnonzero(u > accept_max[pos:end])
                k = int(rejected[0]) if rejected.size else u.size
                out[pos:pos + k] = u[:k] % n[pos:pos + k]
                pos += k
                u = u[k + 1:]
        return out.reshape(bounds.shape)

    def _states(self, count: int) -> np.ndarray:
        """The next `count` xorshift64* states, leaving the stream after the last."""
        if count <= 0:
            return np.empty(0, dtype=np.uint64)
        # blocks of 2**k states, about a quarter of sqrt(count), in at most _MAX_LANES lanes
        k = max(0, count.bit_length() // 2 - 2, (count - 1).bit_length() - _MAX_LANES.bit_length() + 1)
        length = 1 << k
        lanes = -(-count // length)
        starts = np.array([self._state], dtype=np.uint64)
        while starts.size < lanes:  # lanes [m, 2m) are lanes [0, m) jumped m * 2**k steps
            jump = _STEP_POWERS[k + starts.size.bit_length() - 1]
            starts = np.concatenate([starts, _gf2_apply(jump, starts[: lanes - starts.size])])
        block = np.empty((length, lanes), dtype=np.uint64)
        scratch = np.empty(lanes, dtype=np.uint64)
        x = starts
        for row in block:
            np.right_shift(x, np.uint64(12), out=scratch)
            np.bitwise_xor(x, scratch, out=row)
            np.left_shift(row, np.uint64(25), out=scratch)
            row ^= scratch
            np.right_shift(row, np.uint64(27), out=scratch)
            row ^= scratch
            x = row
        states = block.T.ravel()[:count]
        self._state = int(states[-1])
        return states


def _box_muller(u1: float, u2: float, mu: float, sigma: float) -> float:
    """A Gaussian from two uniforms in [0, 1); 1 - u1 is in (0, 1], which keeps log() finite."""
    return mu + sigma * math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)


def _step_powers() -> list[np.ndarray]:
    """Column words of T**(2**k) for k = 0..63, T being the step of `Prng.next_u64`."""
    rng = Prng(0)
    columns = []
    for i in range(64):
        rng._state = 1 << i
        rng.next_u64()
        columns.append(rng._state)
    powers = [np.array(columns, dtype=np.uint64)]
    for _ in range(63):
        powers.append(_gf2_apply(powers[-1], powers[-1]))
    return powers


_STEP_POWERS = _step_powers()
_XORSHIFT_MULT_U64 = np.uint64(_XORSHIFT_MULT)
