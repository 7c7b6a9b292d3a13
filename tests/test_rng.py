"""The round loop's bulk stream derivation against the v1 contract.

`rng.stream(seed, node, t, purpose)` defines every draw.  `rng.Streams`
derives the same slots a block of rounds at a time and repositions one
reused generator, by `fill` (a round's double draws into given arrays) and
`at` (one slot); these tests require its draws to be identical.
"""

import copy
import pickle
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pushdp import rng as rngmod
from pushdp.config import DataSpec, load_config
from pushdp.engine import run
from pushdp.topology import TopologySchedule

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
            got = draws(streams.at(t, node), k)
            for a, b in zip(got, draws(ref, k)):
                assert np.array_equal(a, b), (seed, n, purpose, node, t)


def fill_views(sizes):
    """Views of one buffer, `sizes[i]` doubles each, as the round loop
    passes its uniform spans and noise rows to `fill`."""
    buffer = np.full(sum(sizes), np.nan)
    return [buffer[a - c : a] for a, c in zip(np.cumsum(sizes).tolist(), sizes)]


@pytest.mark.parametrize("block_slots", [rngmod.BLOCK_SLOTS, 10])
@pytest.mark.parametrize("seed", [0, 2**32 + 17])
def test_each_matches_stream(monkeypatch, seed, block_slots):
    # `fill` of each draw kind: 11 nodes, a subset in a scrambled order,
    # rounds on both sides of the first two block boundaries (10 slots: one
    # round a block)
    monkeypatch.setattr(rngmod, "BLOCK_SLOTS", block_slots)
    n = 11
    nodes = [9, 2, 3, 10, 0]
    rounds = max(1, block_slots // n)
    ts = [0, rounds - 1, rounds, 2 * rounds - 1, 2 * rounds, 2 * rounds + 1]
    for purpose in (rngmod.BATCH, rngmod.NOISE):
        streams = rngmod.Streams(seed, purpose, n)
        for t in ts:
            for kind in ("random", "standard_normal"):
                outs = fill_views([2 * k + 1 for k in range(len(nodes))])
                streams.fill(t, nodes, outs, kind)
                for node, out in zip(nodes, outs):
                    ref = getattr(rngmod.stream(seed, node, t, purpose), kind)(len(out))
                    assert np.array_equal(out, ref), (seed, purpose, node, t, kind)


@pytest.mark.parametrize("purpose", [rngmod.BATCH, rngmod.NOISE])
def test_fill_in_a_new_block_after_a_fill_in_the_last(monkeypatch, purpose):
    # 2 rounds a block: the fill at t = 2 derives the block of rounds 2-3
    # and must draw from it, not from the block of the fill at t = 1
    monkeypatch.setattr(rngmod, "BLOCK_SLOTS", 8)
    blocks = derived_blocks(monkeypatch)
    seed = 2**32 + 17
    streams = rngmod.Streams(seed, purpose, 4)
    for t in (1, 2):
        outs = fill_views([3, 3])
        streams.fill(t, [1, 2], outs, "standard_normal")
        for node, out in zip([1, 2], outs):
            assert np.array_equal(out, rngmod.stream(seed, node, t, purpose).standard_normal(3))
    assert [t0 for _, t0, _ in blocks] == [0, 2]


def test_each_of_no_nodes_derives_nothing(monkeypatch):
    blocks = derived_blocks(monkeypatch)
    streams = rngmod.Streams(3, rngmod.NOISE, 4)
    streams.fill(5, [], [], "standard_normal")
    assert blocks == []


@pytest.mark.parametrize("t, nodes", [(0, [0, 4]), (0, [-1]), (-1, [0]), (9, [0])])
def test_each_rejects_slots_outside_the_streams(t, nodes):
    streams = rngmod.Streams(0, rngmod.BATCH, 4, horizon=9)
    with pytest.raises(ValueError):
        streams.fill(t, nodes, fill_views([1] * len(nodes)), "random")
    with pytest.raises(ValueError):
        streams.at(t, nodes[-1])


@pytest.mark.parametrize("kind, outs", [("integers", 1), ("normal", 1), ("random", 2),
                                        ("random", 0)])
def test_fill_takes_double_draws_into_one_array_per_node(kind, outs):
    # only draws that read no 32-bit buffer word, and no node without an array
    with pytest.raises(ValueError):
        rngmod.Streams(0, rngmod.BATCH, 4).fill(0, [1], fill_views([2] * outs), kind)


def test_last_one_word_t_matches_stream():
    # with n=3 the block holding t = 2^32 - 1 is cut short at the default
    # horizon 2^32
    streams = rngmod.Streams(2**40 + 3, rngmod.NOISE, 3)
    ref = rngmod.stream(2**40 + 3, 2, 2**32 - 1, rngmod.NOISE)
    assert np.array_equal(streams.at(2**32 - 1, 2).normal(size=9), ref.normal(size=9))


@pytest.mark.parametrize("args", [(-1, rngmod.BATCH, 4), (0, 2**32, 4), (0, -1, 4),
                                  (0, rngmod.BATCH, 0), (0, rngmod.BATCH, 2**32 + 1),
                                  (0, rngmod.BATCH, 4, 0), (0, rngmod.BATCH, 4, 2**32 + 1)])
def test_rejects_fields_outside_one_word(args):
    with pytest.raises(ValueError):
        rngmod.Streams(*args)


@pytest.mark.parametrize("node, t", [(4, 0), (-1, 0), (0, -1), (0, 2**32)])
def test_rejects_slots_outside_one_word(node, t):
    with pytest.raises(ValueError):
        rngmod.Streams(0, rngmod.BATCH, 4).at(t, node)


def derived_blocks(monkeypatch):
    """Record (purpose, t0, slots) of every block a Streams derives."""
    blocks = []
    real_derive = rngmod.Streams._derive

    def recording_derive(streams, t0):
        real_derive(streams, t0)
        blocks.append((streams.purpose, t0, len(streams._block) // rngmod._SLOT))

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
            assert np.array_equal(streams.at(t, node).normal(size=3), ref.normal(size=3))
    assert blocks == [(rngmod.NOISE, 0, 12), (rngmod.NOISE, 4, 12), (rngmod.NOISE, 8, 3)]
    with pytest.raises(ValueError, match="t < 9"):
        streams.at(T, 0)


def test_ring_config_derives_only_its_rounds(monkeypatch):
    # n=8, T=400: one block of 400 rounds per purpose, not 512
    cfg = load_config(str(Path(__file__).resolve().parent.parent / "configs/logistic-ring.ini"))
    blocks = derived_blocks(monkeypatch)
    run(cfg, master_seed=0)
    assert sorted(blocks) == [(rngmod.BATCH, 0, cfg.n * cfg.T), (rngmod.NOISE, 0, cfg.n * cfg.T)]


def stream_backed_run(monkeypatch, cfg, seed):
    """cfg's run with every slot that `fill` and `at` would position drawn
    from a fresh `rng.stream` instead, and the draws made on `at` slots."""
    made = []

    class Logged:  # a fresh stream that logs the batch replay's draws
        def __init__(self, gen):
            self._gen = gen

        def random(self, size):
            made.append("random")
            return self._gen.random(size)

        def integers(self, high):
            made.append("integers")
            return self._gen.integers(high)

    def fresh(streams, t, node):
        return rngmod.stream(streams.master_seed, node, t, streams.purpose)

    def stream_fill(streams, t, nodes, outs, kind):
        for node, out in zip(nodes, outs, strict=True):
            getattr(fresh(streams, t, node), kind)(out=out)

    monkeypatch.setattr(rngmod.Streams, "fill", stream_fill)
    monkeypatch.setattr(rngmod.Streams, "at",
                        lambda streams, t, node: Logged(fresh(streams, t, node)))
    return run(cfg, master_seed=seed, record_states=True), made


def assert_same_run(bulk, reference):
    assert [r.as_dict() for r in bulk.records] == [r.as_dict() for r in reference.records]
    assert np.array_equal(bulk.trajectory[-1], reference.trajectory[-1])


def test_engine_run_matches_stream_backed_run(monkeypatch):
    """A run over several small blocks at a multi-word seed gives the records
    and final state of the same run drawing every slot from `rng.stream`."""
    cfg = make_config(T=9)
    seed = 2**32 + 17
    monkeypatch.setattr(rngmod, "BLOCK_SLOTS", 2 * cfg.n)
    blocks = derived_blocks(monkeypatch)
    bulk = run(cfg, master_seed=seed, record_states=True)
    assert [(p, t0) for p, t0, _ in blocks] == [
        (p, t0) for t0 in range(0, cfg.T, 2) for p in (rngmod.BATCH, rngmod.NOISE)]
    assert_same_run(bulk, stream_backed_run(monkeypatch, cfg, seed)[0])


def test_engine_run_at_256_nodes_matches_stream_backed_run(monkeypatch):
    """The expo256 workload's shape (n=256 exponential-periodic, J=1, sdlr)
    at the production block size: T=18 runs past the block edge at round
    16, and alpha_conc=0.05 leaves nodes of one and two rows, whose empty
    draws are replayed and some of whose picks are forced."""
    n, seed = 256, 2**32 + 17
    cfg = make_config(n=n, T=18, algorithm="sdlr",
                      topology=TopologySchedule(kind="exponential-periodic", n=n, J=1),
                      data=DataSpec(kind="blobs", n_samples=3200, alpha_conc=0.05))
    rounds = rngmod.BLOCK_SLOTS // n
    assert rounds < cfg.T
    blocks = derived_blocks(monkeypatch)
    bulk = run(cfg, master_seed=seed, record_states=True)
    assert {1, 2} <= {node["count"] for node in bulk.partition["nodes"]}
    assert sorted(blocks) == [(p, t0, n * min(rounds, cfg.T - t0))
                              for p in (rngmod.BATCH, rngmod.NOISE) for t0 in (0, rounds)]
    reference, made = stream_backed_run(monkeypatch, cfg, seed)
    assert "random" in made and "integers" in made  # replays, and forced picks among them
    assert_same_run(bulk, reference)


SEEDS_OF_1_TO_3_WORDS = st.sampled_from([1, 2, 3]).flatmap(
    lambda words: st.integers(2 ** (32 * words - 32) if words > 1 else 0, 2 ** (32 * words) - 1))


@st.composite
def fill_cases(draw):
    """(seed, purpose, n, rounds a block, horizon, steps): each step is an
    `at` slot (t, node, odd integers count) and then a `fill` (t, nodes in
    any order, sizes, kind), at rounds drawn near block edges and the
    horizon as well as anywhere."""
    n, block_rounds = draw(st.integers(1, 9)), draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 4 * block_rounds + 2))
    edges = [t for b in range(1, 5) for t in (b * block_rounds - 1, b * block_rounds)
             if t < horizon] + [horizon - 1]
    ts = st.sampled_from(edges) | st.integers(0, horizon - 1)
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        nodes = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
        steps.append(((draw(ts), draw(st.integers(0, n - 1)), 2 * draw(st.integers(0, 3)) + 1),
                      (draw(ts), nodes, draw(st.lists(st.integers(1, 5), min_size=len(nodes),
                                                      max_size=len(nodes))),
                       draw(st.sampled_from(["random", "standard_normal"])))))
    purpose = draw(st.sampled_from([rngmod.BATCH, rngmod.NOISE]))
    return draw(SEEDS_OF_1_TO_3_WORDS), purpose, n, block_rounds, horizon, steps


@settings(max_examples=80, deadline=None)
@given(fill_cases())
@example((2**64 + 5, rngmod.NOISE, 3, 2, 5,
          [((1, 2, 3), (2, [2, 0, 1], [2, 1, 3], "standard_normal")),
           ((4, 0, 1), (4, [1], [4], "random"))]))
def test_fill_and_at_match_fresh_streams(case):
    # `fill` writes no buffer word: after an `at` slot whose odd integers
    # count left the 32-bit buffer full, its double draws are still the
    # stream's, and in the `at` slot's block (where no derivation's
    # self-check repositions the generator) the buffer word is left as it was
    seed, purpose, n, block_rounds, horizon, steps = case
    with mock.patch.object(rngmod, "BLOCK_SLOTS", block_rounds * n):
        streams = rngmod.Streams(seed, purpose, n, horizon=horizon)
    for (t, node, k), (fill_t, nodes, sizes, kind) in steps:
        gen, ref = streams.at(t, node), rngmod.stream(seed, node, t, purpose)
        assert np.array_equal(gen.integers(0, 2**31, k), ref.integers(0, 2**31, k))
        assert np.array_equal(gen.random(2), ref.random(2))
        buffer_word = gen.bit_generator.state["has_uint32"], gen.bit_generator.state["uinteger"]
        assert buffer_word[0] == 1
        outs = fill_views(sizes)
        streams.fill(fill_t, nodes, outs, kind)
        for node, out in zip(nodes, outs):
            assert np.array_equal(out, getattr(rngmod.stream(seed, node, fill_t, purpose), kind)(
                len(out))), (node, fill_t, kind)
        state = gen.bit_generator.state
        if fill_t // block_rounds == t // block_rounds:
            assert (state["has_uint32"], state["uinteger"]) == buffer_word


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
    gen = streams.at(t, node)
    gen.integers(0, 2**31, 2 * k + 1)  # an odd count leaves the 32-bit buffer full
    assert gen.bit_generator.state["has_uint32"] == 1
    gen = streams.at(t, node)
    assert gen.bit_generator.state == rngmod.stream(seed, node, t, purpose).bit_generator.state


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, pickle.dumps])
def test_streams_refuse_to_be_copied(duplicate):
    # a copy's views would write into the original generator's memory
    streams = rngmod.Streams(3, rngmod.BATCH, 4)
    streams.at(0, 1)
    with pytest.raises(TypeError):
        duplicate(streams)


def test_self_check_catches_a_wrong_word_order(monkeypatch):
    monkeypatch.setattr(rngmod, "_word_order", lambda: (3, 2, 1, 0))
    with pytest.raises(RuntimeError, match="raw PCG64 write"):
        rngmod.Streams(0, rngmod.NOISE, 4).at(0, 0)


def test_layout_probe_rejects_memory_it_cannot_place(monkeypatch):
    class Blind(rngmod.Streams):
        """Views of memory the generator does not use: no known word reads back."""
        def __init__(self, *args):
            super().__init__(*args)
            self._state, self._buffer = memoryview(bytearray(32)), memoryview(bytearray(8))

    monkeypatch.setattr(rngmod, "Streams", Blind)
    with pytest.raises(RuntimeError, match="unknown PCG64 memory layout"):
        rngmod._word_order.__wrapped__()
