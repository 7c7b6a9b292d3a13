"""The round loop's bulk stream derivation against the v1 contract.

`rng.stream(seed, node, t, purpose)` defines every draw.  `rng.Streams`
derives the same slots a block of rounds at a time and repositions one
reused generator at one slot (`at`), or steps a block's words in numpy
(`bulk`, whose normals go through numpy's ziggurat tables); these tests
require its draws to be identical.
"""

import copy
import pickle
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pushdp import rng as rngmod
from pushdp.config import DataSpec, ModelSpec, load_config
from pushdp.engine import run
from pushdp.models import BatchDraws, node_rows
from pushdp.topology import TopologySchedule

from conftest import make_config, observed_run
from reference import sample_batch
from test_models import round_draws

BULK_ROWS, BULK_NORMALS = rngmod.BULK_DOUBLES["random"], rngmod.BULK_DOUBLES["standard_normal"]

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


def row_views(sizes):
    """Views of one buffer, `sizes[i]` doubles each, as `RoundDraws` draws
    the uniform spans and noise rows of its large nodes into a chunk row."""
    buffer = np.full(sum(sizes), np.nan)
    return [buffer[a - c : a] for a, c in zip(np.cumsum(sizes).tolist(), sizes)]


@pytest.mark.parametrize("block_slots", [rngmod.BLOCK_SLOTS, 10])
@pytest.mark.parametrize("seed", [0, 2**32 + 17])
def test_each_matches_stream(monkeypatch, seed, block_slots):
    # each draw kind into a row's views at `at` slots, all drawn before any
    # is checked: 11 nodes, a subset in a scrambled order, rounds on both
    # sides of the first two block boundaries (10 slots: one round a block)
    monkeypatch.setattr(rngmod, "BLOCK_SLOTS", block_slots)
    n = 11
    nodes = [9, 2, 3, 10, 0]
    rounds = max(1, block_slots // n)
    ts = [0, rounds - 1, rounds, 2 * rounds - 1, 2 * rounds, 2 * rounds + 1]
    for purpose in (rngmod.BATCH, rngmod.NOISE):
        streams = rngmod.Streams(seed, purpose, n)
        for t in ts:
            for kind in ("random", "standard_normal"):
                outs = row_views([2 * k + 1 for k in range(len(nodes))])
                for node, out in zip(nodes, outs):
                    getattr(streams.at(t, node), kind)(out=out)
                for node, out in zip(nodes, outs):
                    ref = getattr(rngmod.stream(seed, node, t, purpose), kind)(len(out))
                    assert np.array_equal(out, ref), (seed, purpose, node, t, kind)


@pytest.mark.parametrize("purpose", [rngmod.BATCH, rngmod.NOISE])
def test_fill_in_a_new_block_after_a_fill_in_the_last(monkeypatch, purpose):
    # 2 rounds a block: the slots at t = 2 derive the block of rounds 2-3
    # and must draw from it, not from the block of the slots at t = 1
    monkeypatch.setattr(rngmod, "BLOCK_SLOTS", 8)
    blocks = derived_blocks(monkeypatch)
    seed = 2**32 + 17
    streams = rngmod.Streams(seed, purpose, 4)
    for t in (1, 2):
        outs = row_views([3, 3])
        for node, out in zip([1, 2], outs):
            streams.at(t, node).standard_normal(out=out)
        for node, out in zip([1, 2], outs):
            assert np.array_equal(out, rngmod.stream(seed, node, t, purpose).standard_normal(3))
    assert [t0 for _, t0, _ in blocks] == [0, 2]


@pytest.mark.parametrize("t, nodes", [(0, [0, 4]), (0, [-1]), (-1, [0]), (9, [0])])
def test_each_rejects_slots_outside_the_streams(t, nodes):
    # the last listed node's slot: past the nodes, below 0, and outside the horizon
    streams = rngmod.Streams(0, rngmod.BATCH, 4, horizon=9)
    with pytest.raises(ValueError):
        streams.at(t, nodes[-1])


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


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 9), block_rounds=st.integers(1, 4), horizon=st.integers(1, 14),
       t=st.integers(-2, 15))
@example(n=3, block_rounds=4, horizon=9, t=8)  # a block of one round, cut at the horizon
@example(n=2, block_rounds=3, horizon=5, t=5)  # the horizon's own round
def test_block_is_the_block_derive_builds(n, block_rounds, horizon, t):
    # (t0, rounds) of the block a slot of round t derives: none outside the horizon
    with mock.patch.object(rngmod, "BLOCK_SLOTS", block_rounds * n):
        streams = rngmod.Streams(3, rngmod.BATCH, n, horizon=horizon)
    if not 0 <= t < horizon:
        for call in (lambda: streams.block(t), lambda: streams.at(t, n - 1)):
            with pytest.raises(ValueError, match=f"t < {horizon}"):
                call()
        assert streams._block is None
        return
    got, t0 = streams.block(t), t - t % block_rounds
    streams.at(t, n - 1)
    assert got == (streams._t0, len(streams._block) // (rngmod._SLOT * n))
    assert got == (t0, min(block_rounds, horizon - t0))


def test_ring_config_derives_only_its_rounds(monkeypatch):
    # n=8, T=400: one block of 400 rounds per purpose, not 512
    cfg = load_config(str(Path(__file__).resolve().parent.parent / "configs/logistic-ring.ini"))
    blocks = derived_blocks(monkeypatch)
    run(cfg, master_seed=0)
    assert sorted(blocks) == [(rngmod.BATCH, 0, cfg.n * cfg.T), (rngmod.NOISE, 0, cfg.n * cfg.T)]


def stream_backed_run(monkeypatch, cfg, seed):
    """cfg's run with every slot that `bulk` and `at` would position drawn
    from a fresh `rng.stream` instead, and the draws made on `at` slots: a
    kind alone for a sized draw (the retries and the forced picks' tries),
    with " into a row" for a draw into a chunk row (the large nodes)."""
    made = []

    class Logged:  # a fresh stream that logs its draws
        def __init__(self, gen):
            self._gen = gen

        def random(self, size=None, out=None):
            made.append("random" if out is None else "random into a row")
            return self._gen.random(size, out=out)

        def standard_normal(self, out):
            made.append("standard_normal into a row")
            return self._gen.standard_normal(out=out)

        def integers(self, high):
            made.append("integers")
            return self._gen.integers(high)

    def fresh(streams, t, node):
        return rngmod.stream(streams.master_seed, node, t, streams.purpose)

    def stream_bulk(streams, t, nodes, counts, kind):
        t0, rounds = streams.block(t)
        return t0, np.array([np.concatenate([
            getattr(fresh(streams, u, node), kind)(c)
            for node, c in zip(nodes, counts, strict=True)]) for u in range(t0, t0 + rounds)])

    monkeypatch.setattr(rngmod.Streams, "bulk", stream_bulk)
    monkeypatch.setattr(rngmod.Streams, "at",
                        lambda streams, t, node: Logged(fresh(streams, t, node)))
    return observed_run(cfg, seed), made


def assert_same_run(bulk, reference):
    """bulk and reference are the (RunResult, RoundLog) of an observed run."""
    (bulk, bulk_log), (reference, reference_log) = bulk, reference
    assert [r.as_dict() for r in bulk.records] == [r.as_dict() for r in reference.records]
    assert np.array_equal(bulk_log.trajectory[-1], reference_log.trajectory[-1])


def test_engine_run_matches_stream_backed_run(monkeypatch):
    """A run over several small blocks at a multi-word seed gives the records
    and final state of the same run drawing every slot from `rng.stream`."""
    cfg = make_config(T=9)
    seed = 2**32 + 17
    monkeypatch.setattr(rngmod, "BLOCK_SLOTS", 2 * cfg.n)
    blocks = derived_blocks(monkeypatch)
    bulk = observed_run(cfg, seed)
    assert [(p, t0) for p, t0, _ in blocks] == [
        (p, t0) for t0 in range(0, cfg.T, 2) for p in (rngmod.BATCH, rngmod.NOISE)]
    assert_same_run(bulk, stream_backed_run(monkeypatch, cfg, seed)[0])


@pytest.mark.parametrize("T, blocks_a_stream", [
    pytest.param(rngmod.BLOCK_SLOTS // 256 + 2, 2, id="block-edge"),
    pytest.param(50, 1, id="expo256-horizon")])
def test_engine_run_at_256_nodes_matches_stream_backed_run(monkeypatch, T, blocks_a_stream):
    """The expo256 workload's shape (n=256 exponential-periodic, J=1, sdlr)
    at the production block size: T = BLOCK_SLOTS // n + 2 runs past the
    first block edge, and the workload's T = 50 derives one block a stream.
    alpha_conc=0.05 leaves nodes of one and two rows, whose empty draws are
    retried and some of whose picks are forced."""
    n, seed = 256, 2**32 + 17
    cfg = make_config(n=n, T=T, algorithm="sdlr",
                      topology=TopologySchedule(kind="exponential-periodic", n=n, J=1),
                      data=DataSpec(kind="blobs", n_samples=3200, alpha_conc=0.05))
    rounds = rngmod.BLOCK_SLOTS // n
    starts = range(0, cfg.T, rounds)
    assert len(starts) == blocks_a_stream
    blocks = derived_blocks(monkeypatch)
    bulk = observed_run(cfg, seed)
    assert {1, 2} <= {node["count"] for node in bulk[0].partition["nodes"]}
    assert sorted(blocks) == [(p, t0, n * min(rounds, cfg.T - t0))
                              for p in (rngmod.BATCH, rngmod.NOISE) for t0 in starts]
    reference, made = stream_backed_run(monkeypatch, cfg, seed)
    assert "random" in made and "integers" in made  # forced picks: both tries, then the pick
    assert_same_run(bulk, reference)


def test_at_calls_are_large_node_slots_replays_and_block_self_checks(monkeypatch):
    """A run whose noise rows (dim 21) and larger nodes' batch uniforms
    exceed the bulk caps, at a sampling ratio that empties first draws on
    both sides of the uniforms' cap: every `at` call is one of those slots
    of a round, a multi-row node's retry (of bulk and larger nodes alike)
    or forced pick, or a derived block's self-check of its node 0, and each
    of them is one call.  A one-row node's retry makes none."""
    cfg = make_config(T=7, sampling_ratio=0.05, epsilon=0.01,
                      model=ModelSpec(kind="logistic", features=20, l2=0.01),
                      data=DataSpec(kind="blobs", n_samples=400, alpha_conc=0.3))
    seed = 3
    monkeypatch.setattr(rngmod, "BLOCK_SLOTS", 3 * cfg.n)  # blocks of rounds 0-2, 3-5 and 6
    blocks, calls, real_at = derived_blocks(monkeypatch), [], rngmod.Streams.at
    rngmod._word_order()  # its once-a-process probe positions a slot of its own
    monkeypatch.setattr(rngmod.Streams, "at", lambda streams, t, node: (
        calls.append((streams.purpose, node, t)), real_at(streams, t, node))[1])
    counts = [node["count"] for node in run(cfg, master_seed=seed).partition["nodes"]]
    large = [i for i, c in enumerate(counts) if c > BULK_ROWS]
    tries = {(i, t): (rngmod.stream(seed, i, t, rngmod.BATCH).random(2 * c) < 0.05).reshape(2, c)
             for t in range(cfg.T) for i, c in enumerate(counts) if c}
    empty = [(i, t) for (i, t), (first, _) in tries.items() if not first.any()]
    retried = [(rngmod.BATCH, i, t) for i, t in empty if counts[i] > 1]
    forced = [(rngmod.BATCH, i, t) for _, i, t in retried if not tries[i, t][1].any()]
    assert {i in large for _, i, t in retried if tries[i, t][1].any()} == {False, True} and forced
    assert len(blocks) == 6
    assert sorted(calls) == sorted(
        [(rngmod.BATCH, i, t) for t in range(cfg.T) for i in large]
        + [(rngmod.NOISE, i, t) for t in range(cfg.T) for i, c in enumerate(counts) if c]
        + retried + forced + [(purpose, 0, t0) for purpose, t0, _ in blocks])


SEEDS_OF_1_TO_3_WORDS = st.sampled_from([1, 2, 3]).flatmap(
    lambda words: st.integers(2 ** (32 * words - 32) if words > 1 else 0, 2 ** (32 * words) - 1))


@st.composite
def slot_cases(draw):
    """(seed, purpose, n, rounds a block, horizon, steps): each step is an
    `at` slot (t, node, odd integers count) and then a round's `at` slots
    (t, nodes in any order, sizes, kind), at rounds drawn near block edges
    and the horizon as well as anywhere."""
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
@given(slot_cases())
@example((2**64 + 5, rngmod.NOISE, 3, 2, 5,
          [((1, 2, 3), (2, [2, 0, 1], [2, 1, 3], "standard_normal")),
           ((4, 0, 1), (4, [1], [4], "random"))]))
def test_fill_and_at_match_fresh_streams(case):
    # after an `at` slot whose odd integers count left the 32-bit buffer
    # full, a round's double draws into a row's views at `at` slots, as
    # `RoundDraws` makes them for its large nodes, are still the stream's
    seed, purpose, n, block_rounds, horizon, steps = case
    with mock.patch.object(rngmod, "BLOCK_SLOTS", block_rounds * n):
        streams = rngmod.Streams(seed, purpose, n, horizon=horizon)
    for (t, node, k), (row_t, nodes, sizes, kind) in steps:
        gen, ref = streams.at(t, node), rngmod.stream(seed, node, t, purpose)
        assert np.array_equal(gen.integers(0, 2**31, k), ref.integers(0, 2**31, k))
        assert np.array_equal(gen.random(2), ref.random(2))
        assert gen.bit_generator.state["has_uint32"] == 1
        outs = row_views(sizes)
        for node, out in zip(nodes, outs):
            getattr(streams.at(row_t, node), kind)(out=out)
        for node, out in zip(nodes, outs):
            assert np.array_equal(out, getattr(rngmod.stream(seed, node, row_t, purpose), kind)(
                len(out))), (node, row_t, kind)


@st.composite
def randoms_cases(draw, limit=BULK_ROWS):
    """(seed, n, rounds a block, horizon, t, nodes in any order, counts):
    t drawn among the first and last rounds of the blocks and the horizon's
    round as well as anywhere, counts from 1 to one past `limit`."""
    n, block_rounds = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    horizon = draw(st.integers(1, 3 * block_rounds + 2))
    edges = [t for b in range(4) for t in (b * block_rounds, b * block_rounds + block_rounds - 1)
             if t < horizon] + [horizon - 1]
    nodes = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    counts = draw(st.lists(st.integers(1, limit + 1) | st.sampled_from([1, limit + 1]),
                           min_size=len(nodes), max_size=len(nodes)))
    t = draw(st.sampled_from(edges) | st.integers(0, horizon - 1))
    return draw(SEEDS_OF_1_TO_3_WORDS), n, block_rounds, horizon, t, nodes, counts


@settings(max_examples=80, deadline=None)
@given(randoms_cases())
@example((2**64 + 5, 3, 2, 5, 4, [2, 0], [BULK_ROWS + 1, 1]))
@example((2**32 + 17, 9, 3, 7, 5, [8, 3, 0, 5], [1, 7, BULK_ROWS, 2]))
def test_randoms_match_fresh_streams(case):
    # every round of t's block, cut at the horizon, and each node's first
    # counts[k] doubles of it, node after node
    assert_bulk_matches_fresh_streams(case, "random", rngmod.BATCH)


def assert_bulk_matches_fresh_streams(case, kind, purpose):
    seed, n, block_rounds, horizon, t, nodes, counts = case
    with mock.patch.object(rngmod, "BLOCK_SLOTS", block_rounds * n):
        streams = rngmod.Streams(seed, purpose, n, horizon=horizon)
    t0, block = streams.bulk(t, nodes, counts, kind)
    assert t0 == t - t % block_rounds
    assert block.shape == (min(block_rounds, horizon - t0), sum(counts))
    ends = np.cumsum(counts).tolist()
    for r, row in enumerate(block):
        for node, count, end in zip(nodes, counts, ends):
            assert np.array_equal(row[end - count : end], getattr(rngmod.stream(
                seed, node, t0 + r, purpose), kind)(count)), (node, t0 + r, count)


@settings(max_examples=80, deadline=None)
@given(randoms_cases(BULK_NORMALS))
@example((2**64 + 5, 3, 2, 5, 4, [2, 0], [BULK_NORMALS + 1, 1]))
@example((2**32 + 17, 9, 3, 7, 5, [8, 3, 0, 5], [6, 6, 6, 6]))
def test_normals_match_fresh_streams(case):
    # as `randoms`, with `standard_normal` rows: rejected draws are replayed
    assert_bulk_matches_fresh_streams(case, "standard_normal", rngmod.NOISE)


def steered(word, sign=0):
    """A fresh Generator, set through PCG64's public state, whose next uint64
    is `word`: the state after its step is (0, word), whose XSL-RR output is
    `word` itself, and its increment is 1."""
    bitgen = np.random.PCG64()
    pre = (word - 1) * pow(PCG_MULT, -1, 2**128) % 2**128
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": pre, "inc": 1},
                    "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen)


def test_ziggurat_tables_give_the_generators_draws():
    # every layer idx, both signs: rabs = ki - 1 is accepted, one word taken,
    # and draws +-rabs * wi; rabs = ki is rejected and takes more words
    w, k = rngmod._ziggurat()
    assert k[1] == 0  # every idx-1 draw is rejected
    for idx in range(256):
        ki = int(k[idx])
        probes = [((ki - 1) << 9 | sign << 8 | idx, True) for sign in (0, 1) if ki >= 1]
        probes += [(ki << 9 | idx, False)] if ki < 2**52 else []
        for word, accepted in probes:
            gen = steered(word)
            x, rejected = rngmod._normals(np.array([word], np.uint64))
            got = gen.standard_normal()
            assert rejected[0] != accepted, (idx, word)
            assert (gen.bit_generator.state["state"]["state"] == word) == accepted, (idx, word)
            if accepted:
                assert got == x[0] and np.signbit(got) == bool(word >> 8 & 1), (idx, word)


def test_ziggurat_read_guesses_most_layers(monkeypatch):
    # the guessed ki of layers 3-255 take about 4 probes each; a read that
    # bisects every layer makes about 54 a layer, some 13,000 in all
    probes = []
    real_steered = rngmod._steered
    monkeypatch.setattr(rngmod, "_steered",
                        lambda probe, word: probes.append(word) or real_steered(probe, word))
    w, k = rngmod._ziggurat.__wrapped__()
    assert len(probes) < 2000
    cached_w, cached_k = rngmod._ziggurat()
    assert np.array_equal(w, cached_w) and np.array_equal(k, cached_k)


# NOISE slots (seed, node, t, d) found by search, with the index of the
# row's first rejected word, that word's layer idx and how many of the
# row's d words are rejected
REJECTED_SLOTS = {
    "draw 0 rejected": (7, 0, 98, 6, 0, 30, 1),
    "rejected mid-row": (7, 0, 40, 6, 3, 34, 2),
    "idx-0 tail draw": (7, 0, 273, 6, 5, 0, 1),
    "idx-1 draw": (7, 0, 14, 6, 4, 1, 1),
    "two rejected words in a row": (7, 0, 301, 6, 1, 252, 2),
    "last word rejected": (7, 0, 161, 6, 5, 231, 1),
}


@pytest.mark.parametrize("name", REJECTED_SLOTS)
def test_normals_of_pinned_rejected_slots(name):
    # the slot's first d words, as if every draw took one, pin its case
    seed, node, t, d, first, idx, bad = REJECTED_SLOTS[name]
    words = rngmod.stream(seed, node, t, rngmod.NOISE).bit_generator.random_raw(d)
    _, rejected = rngmod._normals(words)
    assert rejected.argmax() == first and rejected[first] and words[first] & 0xFF == idx
    assert rejected.sum() == bad
    t0, block = rngmod.Streams(seed, rngmod.NOISE, 3, horizon=t + 1).bulk(
        t, [2, node], [1, d], "standard_normal")
    assert np.array_equal(block[t - t0, 1:],
                          rngmod.stream(seed, node, t, rngmod.NOISE).standard_normal(d))


def test_normals_block_self_check(monkeypatch):
    # tables that do not match numpy's give draws the generator does not make
    w, k = rngmod._ziggurat()
    monkeypatch.setattr(rngmod, "_ziggurat", lambda: (w * (1 + 2**-40), k))
    with pytest.raises(RuntimeError, match="bulk normals"):
        rngmod.Streams(3, rngmod.NOISE, 4).bulk(0, [1, 2], [6, 6], "standard_normal")


def assert_chunk_row(seed, purpose, kind, t, row, spans, scale):
    """Round t's row of a RoundDraws chunk: each (node, start, count) span
    holds the node's fresh-stream draw times its scale, and the rest is 0."""
    for node, a, c in spans:
        assert np.array_equal(row[a : a + c], scale[a : a + c] * getattr(
            rngmod.stream(seed, node, t, purpose), kind)(c)), (node, t)
    assert not np.delete(row, [a + i for _, a, c in spans for i in range(c)]).any(), t


@pytest.mark.parametrize("kind, purpose", [("random", rngmod.BATCH),
                                           ("standard_normal", rngmod.NOISE)])
def test_round_draws_write_each_nodes_span(monkeypatch, kind, purpose):
    # nodes on both sides of the kind's bulk cap, spans with gaps between
    # them, over 3-round blocks and a horizon cut after one round, in chunks
    # of at most 2 rounds (a chunk edge inside each whole block), scaled
    monkeypatch.setattr(rngmod, "BLOCK_SLOTS", 3 * 6)
    blocks = derived_blocks(monkeypatch)
    cap, seed, T = rngmod.BULK_DOUBLES[kind], 2**32 + 17, 7
    nodes, counts = [4, 1, 5, 2], [1, cap + 1, cap, 3]
    starts = np.cumsum([2] + [c + 1 for c in counts[:-1]])
    width = int(starts[-1] + counts[-1] + 1)
    monkeypatch.setattr(rngmod, "CHUNK_BYTES", 2 * 8 * width)
    scale = np.linspace(0.5, 2.0, width)
    streams = rngmod.Streams(seed, purpose, 6, horizon=T)
    draws = rngmod.RoundDraws(streams, kind, nodes, width, starts, counts, scale)
    assert draws._bulk_nodes == [4, 5, 2]
    assert draws._at_spans == [(1, int(starts[1]), int(starts[1]) + cap + 1)]
    firsts, t1 = [], 0
    while t1 < T:  # the plan's chunks
        t0, t1 = streams.chunk(t1, width)
        for t, row in enumerate(draws.draw(t0, t1), t0):
            firsts.append(t0)
            assert_chunk_row(seed, purpose, kind, t, row,
                             list(zip(nodes, starts.tolist(), counts)), scale)
    assert firsts == [0, 0, 2, 3, 3, 5, 6]
    assert [t0 for _, t0, _ in blocks] == [0, 3, 6]


@st.composite
def chunk_cases(draw):
    """(seed, kind, n, rounds a block, rounds a chunk, horizon, spans,
    scaled): spans (node, start, count) with gaps, counts on both sides of
    the kind's BULK_DOUBLES, over blocks and chunks of 1-3 rounds."""
    kind = draw(st.sampled_from(["random", "standard_normal"]))
    cap = rngmod.BULK_DOUBLES[kind]
    n, block_rounds, chunk_rounds = (draw(st.integers(1, k)) for k in (6, 3, 3))
    horizon = draw(st.integers(1, 3 * block_rounds + 2))
    nodes = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    spans, end = [], 0
    for node in nodes:
        count = draw(st.integers(1, 3) | st.sampled_from([cap, cap + 1]))
        start = end + draw(st.integers(0, 2))
        spans.append((node, start, count))
        end = start + count
    return (draw(SEEDS_OF_1_TO_3_WORDS), kind, n, block_rounds, chunk_rounds, horizon, spans,
            end + draw(st.integers(0, 2)), draw(st.booleans()), draw(st.integers(0, horizon - 1)))


@settings(max_examples=80, deadline=None)
@given(chunk_cases())
@example((2**64 + 5, "standard_normal", 3, 3, 2, 5,
          [(2, 0, BULK_NORMALS + 1), (0, BULK_NORMALS + 2, 2)], BULK_NORMALS + 5, True, 3))
@example((2**32 + 17, "random", 4, 3, 2, 8, [(3, 1, BULK_ROWS), (1, BULK_ROWS + 1, BULK_ROWS + 1)],
          2 * BULK_ROWS + 2, False, 7))
# the first chunk drawn is the horizon-cut one-round block [6, 7)
@example((5, "standard_normal", 2, 3, 3, 7, [(1, 0, 2)], 2, False, 6))
def test_round_draws_chunks_match_fresh_streams(case):
    # the plan's chunk that holds any round first, then every chunk in turn
    # on the same draws: chunks start every chunk_rounds rounds from their
    # block's first round and stop at the block's end and the horizon, and
    # the one buffer grows when a later chunk is longer than the first
    seed, kind, n, block_rounds, chunk_rounds, horizon, spans, width, scaled, start = case
    purpose = rngmod.BATCH if kind == "random" else rngmod.NOISE
    scale = np.linspace(0.5, 1.5, width) if scaled else np.ones(width)
    nodes, starts, counts = (list(a) for a in zip(*spans)) if spans else ([], [], [])
    with mock.patch.object(rngmod, "BLOCK_SLOTS", block_rounds * n), \
            mock.patch.object(rngmod, "CHUNK_BYTES", chunk_rounds * 8 * max(width, 1)):
        streams = rngmod.Streams(seed, purpose, n, horizon=horizon)
        draws = rngmod.RoundDraws(streams, kind, nodes, width, starts, counts,
                                  scale if scaled else None)
        plan = [streams.chunk(t, width) for t in range(horizon)]
        with pytest.raises(ValueError, match=f"t < {horizon}"):
            streams.chunk(horizon, width)
    for t, (t0, t1) in enumerate(plan):
        first = t - t % block_rounds
        assert t0 == t - (t - first) % chunk_rounds
        assert t1 - t0 == min(chunk_rounds, first + block_rounds - t0, horizon - t0)
    for t0, t1 in [plan[start], *sorted(set(plan))]:
        for t, row in enumerate(draws.draw(t0, t1), t0):
            assert_chunk_row(seed, purpose, kind, t, row, spans, scale)


def test_randoms_read_words_through_the_inverse_order(monkeypatch):
    # a block written in a word order that is not its own inverse reads back
    streams = rngmod.Streams(7, rngmod.BATCH, 3, horizon=2)
    streams.at(0, 0)
    words = np.frombuffer(streams._block, np.uint64).reshape(-1, 4)
    canonical = words.take(np.argsort(rngmod._word_order()), axis=1)
    cycle = (1, 2, 3, 0)
    monkeypatch.setattr(rngmod, "_word_order", lambda: cycle)
    streams._block = canonical.take(cycle, axis=1).data.cast("B")
    _, block = streams.bulk(1, [2, 0], [3, 2], "random")
    assert np.array_equal(block[1], np.concatenate([rngmod.stream(7, 2, 1, rngmod.BATCH).random(3),
                                                    rngmod.stream(7, 0, 1, rngmod.BATCH).random(2)]))


@pytest.mark.parametrize("nodes, counts", [([], []), ([1], [0]), ([1, 2], [3]), ([1, 4], [1, 1]),
                                           ([-1], [1])])
def test_randoms_take_nodes_with_a_double_each(nodes, counts):
    # and only nodes of the streams
    with pytest.raises(ValueError):
        rngmod.Streams(0, rngmod.BATCH, 4).bulk(0, nodes, counts, "random")


def test_bulk_takes_only_double_kinds():
    with pytest.raises(ValueError, match="'normal'"):
        rngmod.Streams(0, rngmod.NOISE, 4).bulk(0, [1], [2], "normal")


@pytest.mark.parametrize("seed", [0, 2**64 + 5])
def test_retries_are_each_slots_second_random_draw(seed):
    # `BatchDraws`' retries, each the second random(count) of its `at` slot,
    # of nodes of 1 to 3 * BULK_ROWS rows (bulk and larger nodes alike),
    # each at the ratio that empties half its first draws, over a first
    # block of 3 rounds and the block cut at the horizon 5
    sizes = np.arange(1, 3 * BULK_ROWS + 1)
    ratios = 1.0 - 0.5 ** (1.0 / sizes)
    with mock.patch.object(rngmod, "BLOCK_SLOTS", 3 * len(sizes)):
        streams = rngmod.Streams(seed, rngmod.BATCH, len(sizes), horizon=5)
    draws, ends = BatchDraws(node_rows(sizes), ratios, streams), np.cumsum(sizes)
    retried = set()  # whether a node with a non-empty retry takes its first draw in bulk
    for t, sel, _, drawn in round_draws(draws, 5):
        tries = [(rngmod.stream(seed, i, t, rngmod.BATCH).random(2 * c) < q).reshape(2, c)
                 for i, (c, q) in enumerate(zip(sizes.tolist(), ratios))]
        retried |= {c > BULK_ROWS for c, (first, retry) in zip(sizes.tolist(), tries)
                    if c > 1 and not first.any() and retry.any()}
        ref = [sample_batch(np.arange(end - c, end), q, rngmod.stream(seed, i, t, rngmod.BATCH))
               for i, (c, end, q) in enumerate(zip(sizes, ends, ratios))]
        assert drawn.tolist() == [len(rows) for rows in ref]
        assert np.array_equal(sel, np.concatenate(ref))
    assert retried == {False, True}


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


def test_step_matches_python_ints():
    # the LCG step of `bulk` and `_positioned`, with carries out of both words
    states = [0, 2**128 - 1, 2**64 - 1, 2**127 + 2**64 - 1, 0x0123456789ABCDEF << 60]
    incs = [1, 2**128 - 1, 2**64 - 1, 2**64 + 1, 0xFEDCBA9876543211]
    split = lambda xs: [np.array([x >> 64 for x in xs], np.uint64),
                        np.array([x % 2**64 for x in xs], np.uint64)]
    hi, lo = rngmod._step(*split(states), *split(incs))
    assert [h << 64 | l for h, l in zip(hi.tolist(), lo.tolist())] == [
        (s * PCG_MULT + i) % 2**128 for s, i in zip(states, incs)]


def words128(xs):
    """Python ints below 2^128 as (high, low) uint64 word arrays."""
    return [np.array([x >> 64 for x in xs], np.uint64),
            np.array([x % 2**64 for x in xs], np.uint64)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(WORD128, WORD128), min_size=1, max_size=16))
@example([(2**128 - 1, 2**128 - 1), (2**64 - 1, 2**64 - 1)])
def test_step_matches_python_ints_at_random_words(cases):
    # random states and increments, every carry reachable
    states, incs = zip(*cases)
    hi, lo = rngmod._step(*words128(states), *words128(incs))
    assert [h << 64 | l for h, l in zip(hi.tolist(), lo.tolist())] == [
        (s * PCG_MULT + i) % 2**128 for s, i in cases]


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
