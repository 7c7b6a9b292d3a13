"""Deterministic random-stream derivation.

Every stochastic draw in a run pulls from a generator derived from
(master_seed, node_id, t, purpose), so results are reproducible bit for bit
and independent of any node evaluation order.  `stream` defines this
contract; `Streams` reproduces it in bulk for the round loop's draws.
"""

import ctypes
import functools
from typing import Iterator

import numpy as np

STREAM_VERSION = 1  # of the contract `stream` defines, written to the manifest

# purpose tags; fixed small ints so stream identities never move
INIT = 0
BATCH = 1
NOISE = 2
PARTITION = 3
DATA = 4
THEORY = 5

# slots a Streams derives at once: whole rounds of every node
BLOCK_SLOTS = 4096

# numpy's SeedSequence pool hash (pool size 4) and PCG64's LCG multiplier
_MASK32, _MASK128, _PCG_MULT = 2**32 - 1, 2**128 - 1, 0x2360ED051FC65DA44385DF649FCCF645
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SLOT, _NO_BUFFER = 32, bytes(8)  # bytes of a slot's (state, inc) words; an empty buffer word


def stream(master_seed: int, node_id: int = 0, t: int = 0, purpose: int = 0) -> np.random.Generator:
    """Return a fresh Generator for one (seed, node, step, purpose) slot."""
    ss = np.random.SeedSequence((int(master_seed), int(node_id), int(t), int(purpose)))
    return np.random.default_rng(ss)


def _hasher(const, mult):
    """SeedSequence's hashmix with its running multiplier, which stays a
    masked Python int, so only uint32 arrays overflow (and wrap silently)."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)
    return hashmix


def _pool_state(entropy):
    """SeedSequence(column).generate_state(4, uint64) for every column of a
    (words >= 4, m) uint32 entropy array, as an (m, 4) uint64 array."""
    hashmix, xorshift = _hasher(_INIT_A, _MULT_A), lambda v: v ^ v >> np.uint32(16)
    pool = [hashmix(word) for word in entropy[:4]]
    for src, dst in ((s, d) for s in range(4) for d in range(4) if s != d):
        pool[dst] = xorshift(_MIX_L * pool[dst] - _MIX_R * hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = xorshift(_MIX_L * pool[dst] - _MIX_R * hashmix(word))
    final = _hasher(_INIT_B, _MULT_B)
    out = [final(pool[k % 4]).astype(np.uint64) for k in range(8)]
    return np.stack([lo | hi << np.uint64(32) for lo, hi in zip(out[::2], out[1::2])], axis=1)


def _positioned(pool):
    """PCG64's set-seed, mod 2^128, on (m, 4) uint64 (initstate, initseq) words,
    high first: inc = initseq << 1 | 1, state = (inc + initstate) * MULT + inc."""
    s_hi, s_lo, i_hi, i_lo = pool.T
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    lo, hi = inc_lo + s_lo, inc_hi + s_hi
    hi += lo < inc_lo
    # the high word of lo * m_lo from 32-bit halves, so no product overflows
    (m_hi, m_lo), a0, a1 = divmod(_PCG_MULT, 2**64), lo & _MASK32, lo >> 32
    p00, p01, p10 = a0 * (m_lo & _MASK32), a0 * (m_lo >> 32), a1 * (m_lo & _MASK32)
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    state_lo = lo * m_lo + inc_lo
    state_hi = (a1 * (m_lo >> 32) + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + lo * m_hi
                + hi * m_lo + inc_hi + (state_lo < inc_lo))
    return np.stack([state_hi, state_lo, inc_hi, inc_lo], axis=1)


@functools.cache
def _word_order():
    """Which (state, inc) word, high first, each raw PCG64 word holds (low first
    if native): known words go in by the slot write and come back by the getter."""
    probe = Streams(0, INIT, 1)
    known = (0x0123456789ABCDEF, 0x1122334455667788, 0x2233445566778899, 0x33445566778899AB)
    probe._gen.integers(0, 2**31)  # one 32-bit draw leaves the buffer word full
    got = next(probe._walk(np.array(known, np.uint64).data.cast("B"), 0, [0])).bit_generator.state
    read = [*divmod(got["state"]["state"], 2**64), *divmod(got["state"]["inc"], 2**64)]
    if sorted(read) != sorted(known) or got["has_uint32"] or got["uinteger"]:
        raise RuntimeError(f"unknown PCG64 memory layout: the slot write read back as {got}")
    return tuple(read.index(word) for word in known)


class Streams:
    """The streams of one (master_seed, purpose) for nodes 0..n-1 and rounds
    t < horizon.  `each(t, nodes)` sets one reused Generator, node after
    node, exactly where `stream(master_seed, node, t, purpose)` starts, so
    finish a draw before the next node's.  The pool hash and PCG64's set-seed
    run vectorised over a block of whole rounds, derived when first used and
    cut at the horizon; a slot write copies the slot's 32 bytes of (state,
    inc) words into the generator and zeroes its 32-bit buffer word."""

    def __init__(self, master_seed: int, purpose: int, n: int, horizon: int = 2**32):
        seed = int(master_seed)
        if (seed < 0 or not 0 <= purpose <= _MASK32 or not 1 <= n <= 2**32
                or not 1 <= horizon <= 2**32):
            raise ValueError(f"no v1 streams for seed {seed}, purpose {purpose}, n {n}, "
                             f"horizon {horizon}")
        self.master_seed, self.purpose, self.n, self.horizon = seed, purpose, n, horizon
        # SeedSequence's uint32 words of an int, low word first (0 is one word)
        self._seed_words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
        self._rounds = max(1, BLOCK_SLOTS // n)
        self._t0, self._block, self._bitgen = None, None, np.random.PCG64(0)
        self._gen = np.random.Generator(self._bitgen)
        # byte views of the PCG64's (state, inc) words and (has_uint32, uinteger) word
        address = self._bitgen.ctypes.state_address
        words = (ctypes.c_uint64 * 4).from_address(ctypes.c_void_p.from_address(address).value)
        buffer = (ctypes.c_uint64 * 1).from_address(address + ctypes.sizeof(ctypes.c_void_p))
        self._state, self._buffer = memoryview(words).cast("B"), memoryview(buffer).cast("B")

    def __reduce_ex__(self, protocol):  # copy, deepcopy and pickle all call this
        raise TypeError("a Streams writes into its own generator's memory: build a new one")

    def _derive(self, t0: int) -> None:
        # one entropy column (seed words, node, t, purpose) per slot, t-major
        rounds = min(self._rounds, self.horizon - t0)
        entropy = np.empty((len(self._seed_words) + 3, rounds * self.n), dtype=np.uint32)
        entropy[:-3] = np.array(self._seed_words, dtype=np.uint32)[:, None]
        entropy[-3] = np.tile(np.arange(self.n), rounds)
        entropy[-2] = np.repeat(np.arange(t0, t0 + rounds), self.n)
        entropy[-1] = self.purpose
        pool = _pool_state(entropy)
        # each slot's words in the generator's order, as bytes (`take` keeps rows C-contiguous)
        self._t0, self._block = t0, _positioned(pool).take(_word_order(), axis=1).data.cast("B")
        s_hi, s_lo, i_hi, i_lo = pool[0].tolist()  # self-check: slot 0 via the public getter
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        want = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": {
            "state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, "inc": inc}}
        if (got := next(self._walk(self._block, 0, [0])).bit_generator.state) != want:
            raise RuntimeError(f"raw PCG64 write gave {got}, not {want}")

    def each(self, t: int, nodes: list) -> Iterator[np.random.Generator]:
        """The reused Generator at round t's slot of every node in the list
        `nodes`, set node after node, in their order, as the iterator
        advances; no block is derived for no nodes."""
        if not 0 <= t < self.horizon or nodes and not (0 <= min(nodes) and max(nodes) < self.n):
            raise ValueError(f"slots (nodes {nodes}, t {t}) are outside nodes < {self.n}, "
                             f"t < {self.horizon}")
        if not nodes:
            return iter(())
        if self._t0 is None or not 0 <= t - self._t0 < self._rounds:
            self._derive(t - t % self._rounds)
        return self._walk(self._block, (t - self._t0) * self.n, nodes)

    def _walk(self, block: memoryview, base: int, nodes: list) -> Iterator[np.random.Generator]:
        # the slot write, from the block bound at the call, not at the first advance
        state, buffer, gen = self._state, self._buffer, self._gen
        for node in nodes:
            at = (base + node) * _SLOT
            state[:] = block[at : at + _SLOT]
            buffer[:] = _NO_BUFFER
            yield gen
