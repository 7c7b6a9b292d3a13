"""Golden-trace regression: full engine runs compared bit for bit with a
stored baseline.

Each case stores the per-round metrics records (one list per field), the
summary's non-dict fields, its config echo and theory block, and the final
post-mix parameter stack X (n, d).  Two cases run with the theory block on,
so the convergence-bound breakdown is pinned too, and with it the MLP probe
passes of `estimate_theory_params`.
The comparison is exact: a change that keeps the arithmetic must reproduce
every float.  A change that alters the arithmetic on purpose (a new stream
contract, a new summation order) re-baselines with

    PYTHONPATH=src python tests/test_golden_trace.py

and says why in its change notes.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from pushdp.config import DataSpec, ModelSpec
from pushdp.topology import DirectedEdgeSet, TopologySchedule

from conftest import make_config, observed_run

GOLDEN_PATH = Path(__file__).with_name("golden_trace.json")
N, T = 8, 40

MODELS = {
    "quadratic": (
        ModelSpec(kind="quadratic", features=3),
        DataSpec(kind="quadratic", n_samples=160, alpha_conc=5.0),
    ),
    "logistic": (
        ModelSpec(kind="logistic", features=5, l2=0.01),
        DataSpec(kind="blobs", n_samples=240, test_fraction=0.2, alpha_conc=1.0),
    ),
    "mlp": (
        ModelSpec(kind="mlp", features=4, hidden=6, classes=3),
        DataSpec(kind="blobs", n_samples=240, test_fraction=0.2, alpha_conc=1.0),
    ),
}


def _explicit_schedule():
    """Two alternating edge sets: each node sends one hop forward, then each
    node sends three hops back; jointly strongly connected."""
    nodes = np.arange(N)
    forward = DirectedEdgeSet(N, (nodes + 1) % N, nodes)
    back = DirectedEdgeSet(N, (nodes - 3) % N, nodes)
    return TopologySchedule(kind="explicit-list", n=N, edge_sets=(forward, back))


TOPOLOGIES = {
    "static-ring": lambda: TopologySchedule(kind="static-ring", n=N, k=2),
    "exponential-periodic": lambda: TopologySchedule(kind="exponential-periodic", n=N),
    "explicit-list": _explicit_schedule,
}


def _case_config(name):
    if name == "empty-node":
        return make_config(T=T, data=DataSpec(kind="blobs", n_samples=24, alpha_conc=0.05)), 0
    algorithm, topology, model, *theory = name.split("/")
    model_spec, data_spec = MODELS[model]
    cfg = make_config(
        algorithm=algorithm,
        n=N,
        T=T,
        topology=TOPOLOGIES[topology](),
        model=model_spec,
        data=data_spec,
        **({"theory": True, "p": 0.1} if theory else {}),
    )
    return cfg, 3


CASES = [
    f"{algorithm}/{topology}/{model}"
    for algorithm in ("sdlr", "adp-vrsgp")
    for topology in TOPOLOGIES
    for model in MODELS
] + ["empty-node", "adp-vrsgp/static-ring/logistic/theory", "adp-vrsgp/static-ring/mlp/theory"]


def trace(name):
    """The stored quantities of one case, as plain JSON values."""
    cfg, seed = _case_config(name)
    result, log = observed_run(cfg, seed)
    rows = [rec.as_dict() for rec in result.records]
    payload = {
        "records": {key: [row[key] for row in rows] for key in rows[0]},
        "summary": {k: v for k, v in result.summary.items() if not isinstance(v, dict)},
        "config": result.summary["config"],
        "theory": result.summary["theory"],
        "final_X": log.trajectory[-1].tolist(),
    }
    return json.loads(json.dumps(payload, allow_nan=False))


def regenerate(path=GOLDEN_PATH):
    """Rewrite the stored baseline from the current engine, one case a line."""
    lines = [f"{json.dumps(name)}: {json.dumps(trace(name), allow_nan=False)}" for name in CASES]
    Path(path).write_text("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_cases_cover_the_stored_baseline(golden):
    assert sorted(golden) == sorted(CASES)


def test_regenerate_writes_the_stored_baseline(tmp_path):
    path = tmp_path / GOLDEN_PATH.name
    regenerate(path)
    assert path.read_bytes() == GOLDEN_PATH.read_bytes()


def test_empty_node_case_has_empty_nodes(golden):
    assert golden["empty-node"]["summary"]["empty_nodes"]


@pytest.mark.parametrize("name", CASES)
def test_trace_is_bit_identical(name, golden):
    got, want = trace(name), golden[name]
    assert got["records"]["t"] == want["records"]["t"] == list(range(T))
    for key, values in want["records"].items():
        assert got["records"][key] == values, f"records differ in {key}"
    assert got["summary"] == want["summary"]
    assert got["config"] == want["config"]
    assert got["theory"] == want["theory"]
    assert got["final_X"] == want["final_X"]


if __name__ == "__main__":
    regenerate()
