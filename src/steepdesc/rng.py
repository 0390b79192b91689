"""Pinned pseudo-random stream: splitmix64-seeded xoshiro256++ with Box-Muller.

Dataset generation and parameter initialization must be reproducible
bit-for-bit across platforms and library versions, so the generator is
pinned to a fixed algorithm instead of delegating to numpy's default.
A run's sub-seeds are the first three outputs of ``splitmix64_stream``.

Call-order contract (relied on by dataset fixtures):
  * ``uniform()`` consumes exactly one 64-bit output.
  * Gaussians are produced in Box-Muller pairs, two uniforms per pair,
    ``u1`` drawn before ``u2``; ``gaussians(n)`` consumes ``ceil(n/2)``
    pairs and discards the unused second value when ``n`` is odd.

Block draws: ``next_u64s(n)`` returns the next ``n`` outputs as a
``uint64`` array and leaves the state exactly where ``n`` calls of
``next_u64()`` would; ``uniforms`` and ``gaussians`` go through it. Below
``LANE_MIN`` outputs it is one loop over four local Python ints that writes
the two state words each output reads into a preallocated ``uint64`` array,
with no call per output; the ++ scrambler, rotl(s0 + s3, 23) + s0, then runs
once over those words in numpy, whose ``uint64`` sums wrap modulo 2^64 as
the masked Python ones do. From ``LANE_MIN`` on it runs
``ceil(n / LANE_STEPS)`` copies of the generator side by side on numpy
arrays, lane k starting at stream offset k * LANE_STEPS. A lane step updates
four preallocated state rows in place through one scratch row, so it
allocates nothing. The state update is linear over GF(2): lane k starts at
T^(k LANE_STEPS) s for the 256x256 bit matrix T. The starts are filled by
doubling, lanes h..2h-1 from lanes 0..h-1 through T^(h LANE_STEPS), one
vectorized jump per doubling. A jump's table holds, for each of a state's
64 nibbles and each of its 16 values, the image of that nibble alone
(32 KiB), and a state's image is the XOR of the 64 entries its nibbles
select. Level 0 advances the 256 unit states LANE_STEPS steps; level i + 1
squares level i. A level depends on nothing but LANE_STEPS, so it is built
once per process, the first time a draw needs it, and is read-only. Only
integer bit operations are involved; no floating point, no BLAS.

Box-Muller keeps ``math.log``, ``math.cos`` and ``math.sin``: ``math.log`` is
mapped over Python floats, and each pair's cosine and sine come from one
``cmath.exp(1j * angle)``, which CPython computes as exp(0.0) * cos(angle)
and exp(0.0) * sin(angle) with the same libm calls, exp(0.0) being exactly
1. They run on at most ``PAIR_BLOCK`` pairs at a time, so no Python list
of a whole draw exists. numpy's own ``log``, ``cos`` and ``sin`` may use
SIMD kernels that are not correctly rounded and differ from ``math`` in the
last bit: ``np.log`` differs from ``math.log`` on 6,959 of 2M uniform inputs
on an AVX2 Xeon, which would change the datasets. ``sqrt``, ``1 - u`` and
products are correctly rounded IEEE operations, so numpy computes them.
"""
from __future__ import annotations

import cmath
import functools
import math

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

LANE_STEPS = 128            # outputs per lane in a block draw
LANE_MIN = 6_000            # smallest block draw that runs in lanes
PAIR_BLOCK = 2048           # Box-Muller pairs mapped through Python floats at once

_NIBBLE_SHIFTS = np.arange(0, 64, 4, dtype=np.uint64)[:, None]
_NIBBLE_ROWS = np.arange(0, 1024, 16)[:, None]      # where nibble p's 16 entries start
# shift counts of the numpy update and scrambler, as uint64 scalars
_SH17, _SH19, _SH23, _SH41, _SH45 = (np.uint64(k) for k in (17, 19, 23, 41, 45))


def splitmix64_stream(seed: int, n: int) -> list[int]:
    """First ``n`` outputs of the splitmix64 sequence started at ``seed``."""
    out = []
    state = seed & _MASK64
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _advance(s0, s1, s2, s3, tmp) -> None:
    """One xoshiro256 state update, in place, on four uint64 rows.

    ``tmp`` is a scratch row of the same length; nothing is allocated.
    """
    np.left_shift(s1, _SH17, out=tmp)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= tmp
    np.right_shift(s3, _SH19, out=tmp)
    s3 <<= _SH45
    s3 |= tmp


def _scramble(s0, s3, out, tmp) -> None:
    """The ++ outputs rotl(s0 + s3, 23) + s0 into ``out``; ``tmp`` is scratch."""
    np.add(s0, s3, out=tmp)
    np.right_shift(tmp, _SH41, out=out)
    tmp <<= _SH23
    out |= tmp
    out += s0


@functools.cache
def _jump_level(level: int) -> np.ndarray:
    """T^(LANE_STEPS * 2^level) over GF(2), read-only: entry [w, p, v] is
    word w of the state whose nibble p is v, all other bits 0, advanced
    that far. Level 0 advances the 256 unit states; a level above squares
    the one below."""
    if level == 0:
        j = np.arange(256)
        units = np.zeros((4, 256), dtype=np.uint64)
        units[j // 64, j] = np.uint64(1) << (j % 64).astype(np.uint64)
        tmp = np.empty(256, dtype=np.uint64)
        for _ in range(LANE_STEPS):
            _advance(*units, tmp)
    else:
        below = _jump_level(level - 1)
        units = _jump(below, below[:, :, [1, 2, 4, 8]].reshape(4, 256))
    units = units.reshape(4, 64, 4)         # [word, nibble, bit in the nibble]
    table = np.zeros((4, 64, 16), dtype=np.uint64)
    for b in range(4):
        table[:, :, 1 << b:2 << b] = table[:, :, :1 << b] ^ units[:, :, b, None]
    table.flags.writeable = False
    return table


def _jump(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The (4, h) ``states`` advanced by ``table``'s jump, one column each:
    the XOR of the 64 entries that a state's nibbles select. It gathers one
    word at a time: a (4, 64, 256) block when a level is squared would be
    the largest array a desk set-up frees, which raises glibc's mmap
    threshold and the run's peak RSS with it."""
    nibbles = (states[:, None, :] >> _NIBBLE_SHIFTS) & np.uint64(15)
    index = nibbles.reshape(64, -1).astype(np.intp) + _NIBBLE_ROWS
    return np.array([np.bitwise_xor.reduce(word.take(index), axis=0)
                     for word in table.reshape(4, 1024)])


class Xoshiro256pp:
    """xoshiro256++ generator, state seeded through splitmix64.

    All-zero states are impossible by construction (splitmix64 outputs of
    any seed are never jointly zero for 4 consecutive draws in practice;
    a zero state is rejected defensively anyway).
    """

    def __init__(self, seed: int):
        state = splitmix64_stream(seed, 4)
        if not any(state):
            state = splitmix64_stream(seed ^ 0xDEADBEEF, 4)
        self._s = state

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[0] + s[3]) & _MASK64, 23) + s[0]) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def next_u64s(self, n: int) -> np.ndarray:
        """The next ``n`` outputs, in stream order, as a uint64 array."""
        if n < LANE_MIN:
            return self._scalar_draw(n)
        lanes = -(-n // LANE_STEPS)
        s = np.empty((4, lanes), dtype=np.uint64)
        s[:, 0] = self._s
        h, level = 1, 0
        while h < lanes:        # lanes h..2h-1 start T^(LANE_STEPS h) after 0..h-1
            s[:, h:2 * h] = _jump(_jump_level(level), s[:, :min(h, lanes - h)])
            h, level = 2 * h, level + 1
        s0, s1, s2, s3 = s
        tmp = np.empty(lanes, dtype=np.uint64)
        out = np.empty((LANE_STEPS, lanes), dtype=np.uint64)
        last_steps = n - (lanes - 1) * LANE_STEPS
        for i, row in enumerate(out):
            _scramble(s0, s3, row, tmp)
            _advance(s0, s1, s2, s3, tmp)
            if i + 1 == last_steps:
                self._s = [int(v) for v in s[:, -1]]
        return out.T.reshape(-1)[:n]

    def _scalar_draw(self, n: int) -> np.ndarray:
        """``next_u64s`` below LANE_MIN: the update on Python ints, one loop."""
        s0, s1, s2, s3 = self._s
        words = np.empty((2, n), dtype=np.uint64)
        firsts, lasts = memoryview(words[0]), memoryview(words[1])
        for i in range(n):
            firsts[i] = s0
            lasts[i] = s3
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) & _MASK64) | (s3 >> 19)
        self._s = [s0, s1, s2, s3]
        out = np.empty(n, dtype=np.uint64)
        _scramble(words[0], words[1], out, words[1])
        return out

    def uniform(self) -> float:
        """Uniform double in [0, 1) using the top 53 bits of one output."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` calls of ``uniform()`` as one block draw."""
        return (self.next_u64s(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def randint_below(self, n: int) -> int:
        """Uniform integer in [0, n) via the 53-bit uniform (n << 2^53)."""
        if n <= 0:
            raise ValueError("randint_below requires n >= 1")
        return min(int(self.uniform() * n), n - 1)

    def gaussians(self, n: int) -> np.ndarray:
        """Box-Muller pairs: u1 is mapped into (0, 1] so log(u1) is finite."""
        u = self.uniforms(2 * ((n + 1) // 2)).reshape(-1, 2)
        out = np.empty_like(u)
        for i in range(0, len(u), PAIR_BLOCK):
            u1, u2 = u[i:i + PAIR_BLOCK].T
            logs = np.fromiter(map(math.log, (1.0 - u1).tolist()), np.float64, len(u1))
            # exp(1j * angle) is (cos(angle), sin(angle)) from one call
            turns = np.fromiter(map(cmath.exp, ((2.0 * math.pi) * u2 * 1j).tolist()),
                                np.complex128, len(u2))
            np.multiply(np.sqrt(-2.0 * logs)[:, None],
                        turns.view(np.float64).reshape(-1, 2), out=out[i:i + PAIR_BLOCK])
        return out.reshape(-1)[:n]

    def choice_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), partial Fisher-Yates order."""
        if k > n:
            raise ValueError(f"cannot draw {k} distinct indices from range({n})")
        pool = list(range(n))
        picked = []
        for i in range(k):
            j = i + self.randint_below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
            picked.append(pool[i])
        return picked
