"""Property test: the canonical config echo reparses to an equal config."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pushdp.config import parse_sections, to_sections


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


POSITIVE = _floats(1e-3, 10.0)
FRACTION = _floats(0.01, 0.99)


@st.composite
def config_sections(draw):
    """String sections of a random valid static-ring or exponential-periodic
    config: both noise forms, eta or K/p, scalar or per-node privacy lists,
    and an optional sigma."""
    kind = draw(st.sampled_from(["static-ring", "exponential-periodic"]))
    n = draw(st.sampled_from([2, 4, 8, 16]) if kind == "exponential-periodic" else st.integers(2, 12))
    tau = draw(st.integers(1, 10))
    run = {
        "algorithm": draw(st.sampled_from(["sdlr", "adp-vrsgp"])),
        "n": str(n),
        "t": str(draw(st.integers(1, 200))),
        "master_seed": str(draw(st.integers(0, 2**32))),
        "theory": draw(st.sampled_from(["true", "false"])),
    }
    topology = {"kind": kind, "j": str(draw(st.integers(1, 4)))}
    if kind == "static-ring":
        topology["k"] = str(draw(st.integers(1, n - 1)))

    noise = {"form": draw(st.sampled_from(["power", "stepwise"])),
             "s": repr(draw(_floats(-1.0, 1.0))), "tau": str(tau)}
    if noise["form"] == "power":
        noise["k"] = repr(draw(POSITIVE))
    else:
        noise["a1"], noise["a2"] = repr(draw(POSITIVE)), repr(draw(POSITIVE))

    lr = {"xi": repr(draw(FRACTION))}
    if draw(st.booleans()):
        lr["eta"] = repr(draw(POSITIVE))
    else:
        lr["k"], lr["p"] = repr(draw(POSITIVE)), repr(draw(_floats(-0.4, 1.0)))

    privacy = {}
    for key, values in (("epsilon", POSITIVE), ("delta", _floats(1e-9, 0.5)),
                        ("sampling_ratio", _floats(0.01, 1.0)), ("c1", POSITIVE), ("c2", POSITIVE)):
        size = draw(st.sampled_from([1, n]))
        privacy[key] = ",".join(repr(v) for v in draw(st.lists(values, min_size=size, max_size=size)))
    if draw(st.booleans()):
        privacy["sigma"] = repr(draw(_floats(0.0, 10.0)))

    return {
        "run": run,
        "topology": topology,
        "noise": noise,
        "lr": lr,
        "clip": {"g0": repr(draw(POSITIVE)), "psi": repr(draw(_floats(0.01, 1.0)))},
        "fusion": {"theta": repr(draw(_floats(0.0, 0.99))), "tau": str(tau)},
        "privacy": privacy,
        "model": {
            "kind": draw(st.sampled_from(["quadratic", "logistic", "mlp"])),
            "features": str(draw(st.integers(1, 8))),
            "l2": repr(draw(_floats(0.0, 1.0))),
            "hidden": str(draw(st.integers(1, 16))),
            "classes": str(draw(st.integers(1, 4))),
        },
        "data": {
            "kind": draw(st.sampled_from(["blobs", "quadratic"])),
            "n_samples": str(draw(st.integers(1, 1000))),
            "separation": repr(draw(POSITIVE)),
            "spread": repr(draw(POSITIVE)),
            "test_fraction": repr(draw(_floats(0.0, 0.9))),
            "alpha_conc": repr(draw(POSITIVE)),
        },
    }


@settings(max_examples=200, deadline=None)
@given(config_sections())
def test_to_sections_round_trip(sections):
    cfg = parse_sections(sections)
    assert parse_sections(to_sections(cfg)) == cfg
