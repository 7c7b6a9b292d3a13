"""The round loop's bulk stream derivation against the v1 contract.

`rng.stream(seed, node, t, purpose)` defines every draw.  `rng.Streams`
derives the same slots a block of rounds at a time and repositions one
reused generator; these tests require its draws to be identical.
"""

import copy
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pushdp import rng as rngmod
from pushdp.config import load_config
from pushdp.engine import run

from conftest import make_config

PURPOSES = (rngmod.INIT, rngmod.BATCH, rngmod.NOISE, rngmod.PARTITION, rngmod.DATA,
            rngmod.THEORY)
# 0, one word, the largest one-word seed, and two- and three-word seeds
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5)


def draws(gen, k):
    """The draw kinds the engine makes: `integers` first, because it reads
    the 32-bit buffer that repositioning must clear (an odd count leaves
    that buffer full).  Below 2^31 every 32-bit word is accepted, so a
    stale buffered word cannot hide behind a rejection."""
    return gen.integers(0, 2**31, k), gen.random(k), gen.normal(0.0, 1.7, k + 4)


def slots(n, picker, count):
    """Random (node, t) slots of n nodes, with t on both sides of the first
    three block boundaries of the production block size."""
    rounds = max(1, rngmod.BLOCK_SLOTS // n)
    ts = [b * rounds + off for b in (1, 2, 3) for off in (-1, 0)]
    ts += [int(x) for x in picker.integers(0, 4 * rounds, count - len(ts))]
    return [(int(picker.integers(0, n)), t) for t in ts]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 7, 1024])
def test_bulk_slots_match_stream(seed, n):
    picker = np.random.default_rng(seed % 1000 + n)
    for purpose in PURPOSES:
        streams = rngmod.Streams(seed, purpose, n)
        for node, t in slots(n, picker, 12):
            k = int(picker.integers(1, 6)) * 2 + 1
            ref = rngmod.stream(seed, node, t, purpose)
            got = draws(next(streams.each(t, [node])), k)
            for a, b in zip(got, draws(ref, k)):
                assert np.array_equal(a, b), (seed, n, purpose, node, t)


def out_draws(gen, k):
    """The round loop's draws into given buffers, `integers` first as in
    `draws`."""
    uniform, normal = np.empty(k), np.empty(k + 4)
    ints = gen.integers(0, 2**31, k)
    gen.random(out=uniform)
    gen.standard_normal(out=normal)
    return ints, uniform, normal


@pytest.mark.parametrize("block_slots", [rngmod.BLOCK_SLOTS, 10])
@pytest.mark.parametrize("seed", [0, 2**32 + 17])
def test_each_matches_stream(monkeypatch, seed, block_slots):
    # 11 nodes, a subset in a scrambled order, rounds on both sides of the
    # first two block boundaries (10 slots: one round a block)
    monkeypatch.setattr(rngmod, "BLOCK_SLOTS", block_slots)
    n = 11
    nodes = [9, 2, 3, 10, 0]
    rounds = max(1, block_slots // n)
    ts = [0, rounds - 1, rounds, 2 * rounds - 1, 2 * rounds, 2 * rounds + 1]
    for purpose in (rngmod.BATCH, rngmod.NOISE):
        streams = rngmod.Streams(seed, purpose, n)
        for t in ts:
            got = [out_draws(gen, 2 * k + 1) for k, gen in enumerate(streams.each(t, nodes))]
            assert len(got) == len(nodes)
            for k, (node, drawn) in enumerate(zip(nodes, got)):
                ref = rngmod.stream(seed, node, t, purpose)
                ref_draws = (ref.integers(0, 2**31, 2 * k + 1), ref.random(2 * k + 1),
                             ref.standard_normal(2 * k + 5))
                for a, b in zip(drawn, ref_draws):
                    assert np.array_equal(a, b), (seed, purpose, node, t)


def test_each_of_no_nodes_derives_nothing(monkeypatch):
    blocks = derived_blocks(monkeypatch)
    streams = rngmod.Streams(3, rngmod.NOISE, 4)
    assert list(streams.each(5, [])) == []
    assert blocks == []


@pytest.mark.parametrize("t, nodes", [(0, [0, 4]), (0, [-1]), (-1, [0]), (9, [0])])
def test_each_rejects_slots_outside_the_streams(t, nodes):
    with pytest.raises(ValueError):
        list(rngmod.Streams(0, rngmod.BATCH, 4, horizon=9).each(t, nodes))


def test_last_one_word_t_matches_stream():
    # with n=3 the block holding t = 2^32 - 1 is cut short at the default
    # horizon 2^32
    streams = rngmod.Streams(2**40 + 3, rngmod.NOISE, 3)
    ref = rngmod.stream(2**40 + 3, 2, 2**32 - 1, rngmod.NOISE)
    assert np.array_equal(next(streams.each(2**32 - 1, [2])).normal(size=9), ref.normal(size=9))


@pytest.mark.parametrize("args", [(-1, rngmod.BATCH, 4), (0, 2**32, 4), (0, -1, 4),
                                  (0, rngmod.BATCH, 0), (0, rngmod.BATCH, 2**32 + 1),
                                  (0, rngmod.BATCH, 4, 0), (0, rngmod.BATCH, 4, 2**32 + 1)])
def test_rejects_fields_outside_one_word(args):
    with pytest.raises(ValueError):
        rngmod.Streams(*args)


@pytest.mark.parametrize("node, t", [(4, 0), (-1, 0), (0, -1), (0, 2**32)])
def test_rejects_slots_outside_one_word(node, t):
    with pytest.raises(ValueError):
        next(rngmod.Streams(0, rngmod.BATCH, 4).each(t, [node]))


def derived_blocks(monkeypatch):
    """Record (purpose, t0, slots) of every block a Streams derives."""
    blocks = []
    real_derive = rngmod.Streams._derive

    def recording_derive(streams, t0):
        real_derive(streams, t0)
        blocks.append((streams.purpose, t0, len(streams._block)))

    monkeypatch.setattr(rngmod.Streams, "_derive", recording_derive)
    return blocks


def test_last_block_stops_at_the_horizon(monkeypatch):
    # 4 rounds a block and horizon 9: a block boundary at t = 8 = T - 1
    monkeypatch.setattr(rngmod, "BLOCK_SLOTS", 12)
    blocks = derived_blocks(monkeypatch)
    n, T = 3, 9
    streams = rngmod.Streams(7, rngmod.NOISE, n, horizon=T)
    for t in range(T):
        for node in range(n):
            ref = rngmod.stream(7, node, t, rngmod.NOISE)
            assert np.array_equal(next(streams.each(t, [node])).normal(size=3), ref.normal(size=3))
    assert blocks == [(rngmod.NOISE, 0, 12), (rngmod.NOISE, 4, 12), (rngmod.NOISE, 8, 3)]
    with pytest.raises(ValueError, match="t < 9"):
        next(streams.each(T, [0]))


def test_ring_config_derives_only_its_rounds(monkeypatch):
    # n=8, T=400: one block of 400 rounds per purpose, not 512
    cfg = load_config(str(Path(__file__).resolve().parent.parent / "configs/logistic-ring.ini"))
    blocks = derived_blocks(monkeypatch)
    run(cfg, master_seed=0)
    assert sorted(blocks) == [(rngmod.BATCH, 0, cfg.n * cfg.T), (rngmod.NOISE, 0, cfg.n * cfg.T)]


def test_engine_run_matches_stream_backed_run(monkeypatch):
    """A run over several small blocks at a multi-word seed gives the records
    and final state of the same run drawing every slot from `rng.stream`."""
    cfg = make_config(T=9)
    seed = 2**32 + 17
    derived = []
    real_derive = rngmod.Streams._derive

    def counting_derive(streams, t0):
        derived.append((streams.purpose, t0))
        return real_derive(streams, t0)

    monkeypatch.setattr(rngmod, "BLOCK_SLOTS", 2 * cfg.n)
    monkeypatch.setattr(rngmod.Streams, "_derive", counting_derive)
    bulk = run(cfg, master_seed=seed, record_states=True)
    assert derived == [(p, t0) for t0 in range(0, cfg.T, 2) for p in (rngmod.BATCH, rngmod.NOISE)]

    # the run positions every slot through `each`, so the reference run takes each from `rng.stream`
    monkeypatch.setattr(rngmod.Streams, "each", lambda streams, t, nodes: (
        rngmod.stream(streams.master_seed, node, t, streams.purpose) for node in nodes))
    reference = run(cfg, master_seed=seed, record_states=True)
    assert [r.as_dict() for r in bulk.records] == [r.as_dict() for r in reference.records]
    assert np.array_equal(bulk.trajectory[-1], reference.trajectory[-1])


# PCG64's 128-bit LCG multiplier, as the PCG reference implementation gives it
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
WORD128 = st.integers(0, 2**128 - 1)


def set_seed(initstate, initseq):
    """pcg64_set_seed in Python ints: (state, inc)."""
    inc = (initseq << 1 | 1) % 2**128
    return ((inc + initstate) * PCG_MULT + inc) % 2**128, inc


def positioned(pairs):
    """`_positioned` on (initstate, initseq) pairs, read back as Python ints."""
    pool = np.array([[s >> 64, s % 2**64, q >> 64, q % 2**64] for s, q in pairs], dtype=np.uint64)
    return [(s_hi << 64 | s_lo, i_hi << 64 | i_lo)
            for s_hi, s_lo, i_hi, i_lo in rngmod._positioned(pool).tolist()]


# initseq 2^63 - 1 gives inc's low word 2^64 - 1, so initstate 2 carries out
# of the low word of inc + initstate, and the product's low word (MULT's)
# carries out of the low word of product + inc
CARRY_SEQ = 2**63 - 1


@pytest.mark.parametrize("initstate, initseq", [
    (0, 0), (2**128 - 1, 2**128 - 1), (0, 2**127), (2**127 + 5, 2**127 + 2**64),
    (2, CARRY_SEQ), (2**64 - 1, CARRY_SEQ), (2**128 - 1, CARRY_SEQ)])
def test_positioned_matches_set_seed_at_edges(initstate, initseq):
    assert positioned([(initstate, initseq)]) == [set_seed(initstate, initseq)]


def test_carry_edge_carries_twice():
    inc = (CARRY_SEQ << 1 | 1) % 2**128
    assert inc % 2**64 + 2 >= 2**64
    assert ((inc + 2) * PCG_MULT) % 2**64 + inc % 2**64 >= 2**64


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(WORD128, WORD128), min_size=1, max_size=16))
def test_positioned_matches_set_seed(pairs):
    assert positioned(pairs) == [set_seed(s, q) for s, q in pairs]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**96 - 1), purpose=st.sampled_from([rngmod.BATCH, rngmod.NOISE]),
       node=st.integers(0, 6), t=st.integers(0, 40), k=st.integers(0, 4))
@example(seed=2**64 + 5, purpose=rngmod.NOISE, node=6, t=40, k=0)
def test_repositioned_state_matches_stream(seed, purpose, node, t, k):
    streams = rngmod.Streams(seed, purpose, 7, horizon=41)
    gen = next(streams.each(t, [node]))
    gen.integers(0, 2**31, 2 * k + 1)  # an odd count leaves the 32-bit buffer full
    assert gen.bit_generator.state["has_uint32"] == 1
    gen = next(streams.each(t, [node]))
    assert gen.bit_generator.state == rngmod.stream(seed, node, t, purpose).bit_generator.state


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, pickle.dumps])
def test_streams_refuse_to_be_copied(duplicate):
    # a copy's views would write into the original generator's memory
    streams = rngmod.Streams(3, rngmod.BATCH, 4)
    next(streams.each(0, [1]))
    with pytest.raises(TypeError):
        duplicate(streams)


def test_self_check_catches_a_wrong_word_order(monkeypatch):
    monkeypatch.setattr(rngmod, "_word_order", lambda: (3, 2, 1, 0))
    with pytest.raises(RuntimeError, match="raw PCG64 write"):
        next(rngmod.Streams(0, rngmod.NOISE, 4).each(0, [0]))


def test_layout_probe_rejects_memory_it_cannot_place(monkeypatch):
    class Blind(rngmod.Streams):
        """Views of memory the generator does not use: no known word reads back."""
        def __init__(self, *args):
            super().__init__(*args)
            self._words, self._buffer = np.zeros(4, dtype=np.uint64), np.zeros(1, dtype=np.uint64)

    monkeypatch.setattr(rngmod, "Streams", Blind)
    with pytest.raises(RuntimeError, match="unknown PCG64 memory layout"):
        rngmod._word_order.__wrapped__()
