"""The round loop's bulk stream derivation against the v1 contract.

`rng.stream(seed, node, t, purpose)` defines every draw.  `rng.Streams`
derives the same slots a block of rounds at a time and repositions one
reused generator; these tests require its draws to be identical.
"""

import numpy as np
import pytest

from pushdp import rng as rngmod
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
            got = draws(streams.at(node, t), k)
            for a, b in zip(got, draws(ref, k)):
                assert np.array_equal(a, b), (seed, n, purpose, node, t)


def test_last_one_word_t_matches_stream():
    # with n=3 the block holding t = 2^32 - 1 runs past 2^32; its tail is
    # never handed out
    streams = rngmod.Streams(2**40 + 3, rngmod.NOISE, 3)
    ref = rngmod.stream(2**40 + 3, 2, 2**32 - 1, rngmod.NOISE)
    assert np.array_equal(streams.at(2, 2**32 - 1).normal(size=9), ref.normal(size=9))


@pytest.mark.parametrize("args", [(-1, rngmod.BATCH, 4), (0, 2**32, 4), (0, -1, 4),
                                  (0, rngmod.BATCH, 0), (0, rngmod.BATCH, 2**32 + 1)])
def test_rejects_fields_outside_one_word(args):
    with pytest.raises(ValueError):
        rngmod.Streams(*args)


@pytest.mark.parametrize("node, t", [(4, 0), (-1, 0), (0, -1), (0, 2**32)])
def test_rejects_slots_outside_one_word(node, t):
    with pytest.raises(ValueError):
        rngmod.Streams(0, rngmod.BATCH, 4).at(node, t)


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

    monkeypatch.setattr(rngmod.Streams, "at", lambda streams, node, t: rngmod.stream(
        streams.master_seed, node, t, streams.purpose))
    reference = run(cfg, master_seed=seed, record_states=True)
    assert [r.as_dict() for r in bulk.records] == [r.as_dict() for r in reference.records]
    assert np.array_equal(bulk.trajectory[-1], reference.trajectory[-1])
