"""Deterministic random-stream derivation.

Every stochastic draw in a run pulls from a generator derived from
(master_seed, node_id, t, purpose), so results are reproducible bit for bit
and independent of any node evaluation order.  `stream` defines this
contract; `Streams` reproduces it a block of rounds at a time (`block`):
`Streams.at` positions one reused generator at a slot, the only write of a
slot into it; `Streams.bulk` steps PCG64 in numpy to a whole block's first
uniforms, or normal rows, of nodes with few doubles (through numpy's
ziggurat fast path, whose tables are read from the installed numpy, and
a row with a rejected draw is drawn again whole at its `at` slot), so
`at` positions every other draw; `Streams.chunk` is the round loop's chunk
rule, and `RoundDraws` draws its chunks node by node, from a bulk block or
at `at` slots round by round, a split that only this module knows.
"""

import ctypes
import functools

import numpy as np

STREAM_VERSION = 1  # of the contract `stream` defines, written to the manifest

# purpose tags; fixed small ints so stream identities never move
INIT = 0
BATCH = 1
NOISE = 2
PARTITION = 3
DATA = 4
THEORY = 5

# slots a Streams derives at once: whole rounds of every node.  A block pays
# a fixed cost whatever its length, about 1.5 ms of numpy calls (`_derive`'s
# SeedSequence hash, and about 35 calls a step in `_bulk`), against its
# memory: per (node, round), the two bulk streams keep 64 bytes of (state,
# inc) words and, at the BULK_DOUBLES caps, 384 bytes of doubles.  16,384
# slots hold 64 rounds of 256 nodes in one block a stream, at most about
# 7 MB for the two (see CHANGES.md for the measured sizes)
BLOCK_SLOTS = 16384

# bytes of a plane that the round loop takes a chunk of rounds at once, and
# that stacked passes block by (see CHANGES.md for the measured cap)
CHUNK_BYTES = 2**17

# the most doubles a slot takes from a bulk block, by draw kind; a node with
# more draws at its `at` slot round by round (see CHANGES.md for the
# measured crossovers)
BULK_DOUBLES = {"random": 32, "standard_normal": 16}

# numpy's SeedSequence pool hash (pool size 4) and PCG64's LCG multiplier
_MASK32, _MASK128, _PCG_MULT = 2**32 - 1, 2**128 - 1, 0x2360ED051FC65DA44385DF649FCCF645
_PCG_INVERSE = pow(_PCG_MULT, -1, 2**128)  # MULT's inverse mod 2^128
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SLOT, _NO_BUFFER = 32, bytes(8)  # bytes of a slot's (state, inc) words; an empty buffer word
# masks and shifts as uint64 scalars, for the word arithmetic
_LOW32, _LOW9, _LOW52, _9, _11, _32, _58, _63, _64 = (np.uint64(w) for w in (
    _MASK32, 2**9 - 1, 2**52 - 1, 9, 11, 32, 58, 63, 64))


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


# PCG64's LCG multiplier as `_step` takes it: its high and low words, and
# the low word's high and low 32 bits
_MULT = tuple(np.uint64(w) for w in (_PCG_MULT >> 64, _PCG_MULT & 2**64 - 1,
                                     _PCG_MULT >> 32 & _MASK32, _PCG_MULT & _MASK32))


def _step(hi, lo, inc_hi, inc_lo):
    """PCG64's LCG step, mod 2^128, on uint64 word arrays, high word first:
    (hi, lo) * MULT + (inc_hi, inc_lo)."""
    # the high word of lo * m_lo from 32-bit halves (Hacker's Delight mulhi):
    # no partial sum reaches 2^64
    m_hi, m_lo, m_lo_hi, m_lo_lo = _MULT
    a0, a1 = lo & _LOW32, lo >> _32
    mid = a1 * m_lo_lo + (a0 * m_lo_lo >> _32)
    low = (mid & _LOW32) + a0 * m_lo_hi
    new_lo = lo * m_lo + inc_lo
    new_hi = (a1 * m_lo_hi + (mid >> _32) + (low >> _32) + lo * m_hi + hi * m_lo + inc_hi
              + (new_lo < inc_lo))
    return new_hi, new_lo


def _positioned(pool):
    """PCG64's set-seed on (m, 4) uint64 (initstate, initseq) words, high
    first: inc = initseq << 1 | 1, state = (inc + initstate) * MULT + inc."""
    s_hi, s_lo, i_hi, i_lo = pool.T
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    lo, hi = inc_lo + s_lo, inc_hi + s_hi
    hi += lo < inc_lo
    return np.stack([*_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo], axis=1)


def _output(hi, lo):
    """PCG64's uint64 after a step to the states (hi, lo): the XSL-RR output,
    (hi ^ lo) rotated right by hi's top 6 bits."""
    out, rot = hi ^ lo, hi >> _58
    return out >> rot | out << (_64 - rot & _63)


def _normals(words):
    """numpy's ziggurat fast path on uint64 words: (x, rejected), with
    x = +-rabs * wi[idx] for idx the low 8 bits, the sign bit 8 and rabs the
    52 bits above, accepted iff rabs < ki[idx]."""
    w, k = _ziggurat()
    low, rabs = words & _LOW9, words >> _9 & _LOW52
    return rabs * w[low], rabs >= k[low]


@functools.cache
def _word_order():
    """Which (state, inc) word, high first, each raw PCG64 word holds (low first
    if native): known words go in by the slot write and come back by the getter."""
    probe = Streams(0, INIT, 1)
    known = (0x0123456789ABCDEF, 0x1122334455667788, 0x2233445566778899, 0x33445566778899AB)
    probe._gen.integers(0, 2**31)  # one 32-bit draw leaves the buffer word full
    probe._t0, probe._t1, probe._block = 0, 1, np.array(known, np.uint64).data.cast("B")
    got = probe.at(0, 0).bit_generator.state
    read = [*divmod(got["state"]["state"], 2**64), *divmod(got["state"]["inc"], 2**64)]
    if sorted(read) != sorted(known) or got["has_uint32"] or got["uinteger"]:
        raise RuntimeError(f"unknown PCG64 memory layout: the slot write read back as {got}")
    return tuple(read.index(word) for word in known)


@functools.cache
def _ziggurat():
    """numpy's `standard_normal` ziggurat tables wi and ki (Marsaglia & Tsang
    2000), read from the installed numpy and indexed by a word's low 9 bits
    (layer, then sign): a PCG64 steered so that its next uint64 is a chosen
    word (the post-step state (0, word), whose XSL-RR output is the word)
    draws +-wi[idx] at rabs = 1, and accepts, stepping exactly once, iff
    rabs < ki[idx], which bisection finds.  A layer whose rabs = 1 is
    rejected has ki <= 1, and its only accepted draw is +-0 at rabs = 0
    whatever wi is: wi = 0.  From layer 3 on, ki[idx] is about
    2^52 * wi[idx - 1] / wi[idx], so probes on both sides of that guess
    narrow the bisection to a step or two; a guess they reject leaves it
    whole (layer 0 is the tail, and layer 1 reads wi = 0)."""
    probe = np.random.Generator(np.random.PCG64(0))
    w, k = np.zeros(256), np.zeros(256, np.uint64)
    for idx in range(256):
        x, one = _steered(probe, 1 << 9 | idx)
        w[idx] = x if one else 0.0
        tries = []  # rabs on both sides of the guess, probed first
        if idx >= 3 and w[idx]:
            guess = int(2**52 * w[idx - 1] / w[idx])
            tries = [guess - 1, guess + 1]
        low, high = 0, 2**52  # the first rejected rabs lies in [low, high]
        while low < high:
            rabs = tries.pop(0) if tries else (low + high) // 2
            if not low <= rabs < high:
                continue
            if _steered(probe, rabs << 9 | idx)[1]:
                low = rabs + 1
            else:
                high = rabs
        k[idx] = low
    return np.concatenate([w, -w]), np.concatenate([k, k])


def _steered(probe, word):
    """The `standard_normal()` draw of the PCG64 Generator `probe` steered,
    through its public state, so that its next uint64 is `word`, and
    whether it took only that word."""
    pre = (word - 1) * _PCG_INVERSE & _MASK128  # inc 1: state * MULT + 1 = (0, word)
    bitgen = probe.bit_generator
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": pre, "inc": 1},
                    "has_uint32": 0, "uinteger": 0}
    return probe.standard_normal(), bitgen.state["state"]["state"] == word


class Streams:
    """The streams of one (master_seed, purpose) for nodes 0..n-1 and rounds
    t < horizon.  `at` sets one reused Generator exactly where
    `stream(master_seed, node, t, purpose)` starts.  The pool hash and
    PCG64's set-seed run vectorised over a block of whole rounds, derived
    when first used and cut at the horizon; `at` copies the slot's 32 bytes
    of (state, inc) words into the generator and zeroes its 32-bit buffer
    word, which `integers` reads.  `bulk` reads the block's words, and
    positions the generator only to redraw normal rows with a rejected
    draw."""

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
        self._t0 = self._t1 = 0  # _block holds rounds t0 <= t < t1: none yet
        self._block, self._bitgen = None, np.random.PCG64(0)
        self._gen = np.random.Generator(self._bitgen)
        # byte views of the PCG64's (state, inc) words and (has_uint32, uinteger) word
        address = self._bitgen.ctypes.state_address
        words = (ctypes.c_uint64 * 4).from_address(ctypes.c_void_p.from_address(address).value)
        buffer = (ctypes.c_uint64 * 1).from_address(address + ctypes.sizeof(ctypes.c_void_p))
        self._state, self._buffer = memoryview(words).cast("B"), memoryview(buffer).cast("B")

    def __reduce_ex__(self, protocol):  # copy, deepcopy and pickle all call this
        raise TypeError("a Streams writes into its own generator's memory: build a new one")

    def block(self, t: int):
        """(t0, rounds): the first round of the stream block that holds round
        t, and its rounds, cut at the horizon."""
        if not 0 <= t < self.horizon:
            raise ValueError(f"round {t} is outside t < {self.horizon}")
        t0 = t - t % self._rounds
        return t0, min(self._rounds, self.horizon - t0)

    def chunk(self, t: int, width: int):
        """(t0, t1): the round loop's chunk that holds round t, the one chunk
        rule of a run, over a plane of `width` doubles a round: CHUNK_BYTES
        of it, one round at least, from each stream block's first round on,
        cut at the block's end and the horizon."""
        first, rounds = self.block(t)
        size = max(1, CHUNK_BYTES // (8 * max(width, 1)))
        t0 = t - (t - first) % size
        return t0, min(t0 + size, first + rounds)

    def _derive(self, t0: int) -> None:
        # one entropy column (seed words, node, t, purpose) per slot, t-major
        rounds = self.block(t0)[1]
        entropy = np.empty((len(self._seed_words) + 3, rounds * self.n), dtype=np.uint32)
        entropy[:-3] = np.array(self._seed_words, dtype=np.uint32)[:, None]
        entropy[-3] = np.tile(np.arange(self.n), rounds)
        entropy[-2] = np.repeat(np.arange(t0, t0 + rounds), self.n)
        entropy[-1] = self.purpose
        pool = _pool_state(entropy)
        # each slot's words in the generator's order, as bytes (`take` keeps rows C-contiguous)
        block = _positioned(pool).take(_word_order(), axis=1).data.cast("B")
        self._t0, self._t1, self._block = t0, t0 + rounds, block
        s_hi, s_lo, i_hi, i_lo = pool[0].tolist()  # self-check: slot 0 via the public getter
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        want = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": {
            "state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, "inc": inc}}
        if (got := self.at(t0, 0).bit_generator.state) != want:
            raise RuntimeError(f"raw PCG64 write gave {got}, not {want}")

    def _hold(self, t: int) -> None:
        # derive round t's block, range-checked, unless it is held (inside the horizon)
        if not self._t0 <= t < self._t1:
            self._derive(self.block(t)[0])

    def at(self, t: int, node: int) -> np.random.Generator:
        """The reused Generator at the slot (node, t), with an empty 32-bit
        buffer word, as `stream` starts: good for any draws until the next
        `at`."""
        if not 0 <= node < self.n:
            raise ValueError(f"node {node} is outside nodes < {self.n}")
        if not self._t0 <= t < self._t1:  # `_hold`'s test, inline: most slots are held
            self._hold(t)
        pos = ((t - self._t0) * self.n + node) * _SLOT
        self._state[:] = self._block[pos : pos + _SLOT]
        self._buffer[:] = _NO_BUFFER
        return self._gen

    def bulk(self, t: int, nodes: list, counts: list, kind: str):
        """The first counts[k] doubles of node nodes[k]'s slot in every round
        of the block that holds round t, as (t0, U): U[r] holds round t0 +
        r's doubles, node after node, the draws `at(...).kind(count)` makes.
        One vectorised PCG64 step a double runs over the block's slots of
        the nodes, most doubles first, so step j steps only the nodes with
        more than j; a normal row with a draw the ziggurat's fast path
        rejects is drawn again whole at its `at` slot."""
        if kind not in BULK_DOUBLES or not nodes or len(counts) != len(nodes) or min(counts) < 1:
            raise ValueError(f"bulk draws take random or standard_normal doubles of nodes with "
                             f"at least one each, not {kind!r} counts {counts} for nodes {nodes}")
        if not 0 <= min(nodes) <= max(nodes) < self.n:
            raise ValueError(f"nodes {nodes} are outside nodes < {self.n}")
        self._hold(t)
        counts = np.asarray(counts)
        order = np.argsort(-counts, kind="stable")
        ordered = np.asarray(nodes)[order]
        words = np.frombuffer(self._block, np.uint64).reshape(-1, self.n, 4)
        # (nodes, rounds) arrays of the nodes' slot words, most doubles first
        hi, lo, inc_hi, inc_lo = words[:, ordered].transpose(2, 1, 0).take(
            np.argsort(_word_order()), axis=0)
        # step j steps the nodes with more than j doubles, a prefix of the
        # order, and writes their doubles into U's columns first[:m] + j
        first = (np.cumsum(counts) - counts)[order]
        out = np.empty((len(words), counts.sum()))
        rejected = np.zeros(hi.shape, dtype=bool)  # rows with a rejected draw
        for j, m in enumerate(np.count_nonzero(counts > np.arange(counts.max())[:, None], 1)):
            hi, lo = _step(hi[:m], lo[:m], inc_hi[:m], inc_lo[:m])
            if kind == "random":
                x = (_output(hi, lo) >> _11) * 2.0**-53
            else:
                x, bad = _normals(_output(hi, lo))
                rejected[:m] |= bad
            out[:, first[:m] + j] = x.T
        k, rows = np.divmod(np.flatnonzero(rejected), len(words))
        for r, node, a, b in zip(rows.tolist(), ordered[k].tolist(), first[k].tolist(),
                                 (first + counts[order])[k].tolist()):
            self.at(self._t0 + r, node).standard_normal(out=out[r, a:b])
        # self-check of normals, which are redrawn at `at` slots and read
        # numpy's tables: the first listed slot against the positioned generator's draw
        if kind == "standard_normal" and not np.array_equal(
                out[0, : counts[0]], self.at(self._t0, nodes[0]).standard_normal(counts[0])):
            raise RuntimeError(f"bulk normals of node {nodes[0]}, round {self._t0} differ "
                               f"from the generator's")
        return self._t0, out


class RoundDraws:
    """The `kind` draws of the listed nodes a chunk of rounds at a time:
    `draw(t0, t1)` gives C, whose row C[r] holds round t0 + r's counts[k]
    doubles of node nodes[k] at C[r, starts[k]:][:counts[k]], as its
    `Streams.at` slot draws them, times `scale` (one factor a double) if given,
    and 0 elsewhere: a chunk of the plan (`Streams.chunk`), in one buffer
    reused from chunk to chunk, so C holds until the next draw.  The
    nodes of at most BULK_DOUBLES[kind] doubles take theirs from one
    `Streams.bulk` block, stepped in the first chunk that needs it, by one
    scatter a chunk; the others draw round by round at their `at` slots
    into views of the chunk."""

    def __init__(self, streams: Streams, kind: str, nodes, width: int, starts, counts,
                 scale=None):
        nodes, starts, counts = (np.asarray(a, dtype=np.intp) for a in (nodes, starts, counts))
        bulk = counts <= BULK_DOUBLES[kind]
        self.streams, self.kind, self.width, self.scale = streams, kind, width, scale
        self._at_spans = list(zip(nodes[~bulk].tolist(), starts[~bulk].tolist(),
                                  (starts + counts)[~bulk].tolist()))  # (node, start, end)
        nodes, starts, counts = nodes[bulk], starts[bulk], counts[bulk]
        self._bulk_nodes, self._bulk_counts = nodes.tolist(), counts.tolist()
        # the bulk nodes' positions in a row, node after node
        self._index = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts,
                                                          counts)
        self._buffer, self._block_t0 = np.empty((0, width)), None

    def draw(self, t0: int, t1: int) -> np.ndarray:
        """C: the rows of the rounds t0 <= t < t1, round t's at C[t - t0]."""
        streams = self.streams
        if len(self._buffer) < t1 - t0:  # zero spans stay zero: draws overwrite only their spans
            self._buffer = np.zeros((t1 - t0, self.width))
        chunk = self._buffer[: t1 - t0]
        if self._bulk_nodes:
            first = streams.block(t0)[0]
            if self._block_t0 != first:
                self._block_t0, self._block = streams.bulk(t0, self._bulk_nodes,
                                                           self._bulk_counts, self.kind)
            chunk[:, self._index] = self._block[t0 - first : t1 - first]
        for u, row in enumerate(chunk, t0):
            for node, a, b in self._at_spans:
                getattr(streams.at(u, node), self.kind)(out=row[a:b])
        if self.scale is not None:
            chunk *= self.scale
        return chunk
