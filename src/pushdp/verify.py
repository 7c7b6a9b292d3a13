"""Independent oracle suites: Monte-Carlo and brute-force checks of every
closed-form quantity, runnable from the command line.

Each suite pits an implementation against a second route that shares no code
with it: the fused-noise factor against a vectorized simulation of the
fusion chain, the window diameter against Floyd-Warshall, analytic
gradients against central finite differences, per-row gradient distances
against single-sample gradients and the gathered per-node gradients against
one pass per node, the schedule inequality against summation, and the bulk
random streams against one fresh stream per slot.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from . import rng as rngmod
from .fusion import fuse, noise_factor, perturb
from .models import (
    BatchDraws, LogisticModel, MlpModel, NodeGrads, make_quadratic_model, make_synthetic,
    node_rows, row_pass,
)
from .privacy import LrSchedule, NoiseSchedule, PrivacyBudget, beta_sum_dominance, calibrate_sigma
from .pushsum import mix_round
from .topology import (
    DirectedEdgeSet, TopologySchedule, build_mixing_matrix, topology_at, window_diameter,
)

NOISE_GRID_THETA = (0.3, 0.5, 0.7)
NOISE_GRID_TAU = (2, 4, 6, 12)


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    expected: float
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: measured={self.measured:.6g} "
            f"expected={self.expected:.6g} {self.detail}"
        )


# ------------------------------------------------------------ noise factor


def simulate_fused_noise(theta: float, tau: int, trials: int, seed: int, alpha: float = 1.0,
                         sigma: float = 1.0) -> float:
    """Empirical residual noise-variance fraction after one fusion interval.

    Drives the real perturb/fuse machinery on a pure-noise gradient stream
    (clipped gradient identically zero) for tau steps at constant multiplier
    and returns E||g_fused||^2 / (alpha*sigma)^2, estimated over `trials`
    scalar chains; matches the closed form h(theta, tau) in expectation.
    """
    zeros = np.zeros(trials)
    fused = None  # the interval starts at k = 0
    for k in range(tau):
        rng = np.random.default_rng(np.random.SeedSequence((seed, theta_key(theta), tau, k)))
        noisy = perturb(zeros, alpha, rng.normal(0.0, sigma, size=trials))
        fused = fuse(noisy, fused, theta)
    return float(np.mean(fused**2) / (alpha * sigma) ** 2)


def theta_key(theta: float) -> int:
    return int(round(theta * 1000))


def noise_factor_suite(trials: int = 1_000_000, seed: int = 20240,
                       rel_tol: float = 0.02) -> List[CheckResult]:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    results = []
    for theta in NOISE_GRID_THETA:
        for tau in NOISE_GRID_TAU:
            h = noise_factor(theta, tau)
            measured = simulate_fused_noise(theta, tau, trials, seed)
            results.append(CheckResult(
                f"fused-noise h(theta={theta}, tau={tau})", abs(measured - h) <= rel_tol * h,
                measured, h, f"rel_err={abs(measured - h) / h:.4f} tol={rel_tol}"))
    for theta, tau, label in ((0.0, 7, "h(0, tau)=1"), (0.6, 1, "h(theta, 1)=1")):
        h = noise_factor(theta, tau)
        results.append(CheckResult(f"exact {label}", abs(h - 1.0) <= 4 * np.finfo(float).eps,
                                   h, 1.0, "machine precision"))
    return results


# ------------------------------------------------------------- consensus


def consensus_suite(seed: int = 7) -> List[CheckResult]:
    results = []

    # mass conservation on the exponential-periodic schedule, 1000 rounds
    n, rounds = 8, 1000
    schedule = TopologySchedule(kind="exponential-periodic", n=n)
    rng = np.random.default_rng(seed)
    X, w = rng.normal(size=(n, 3)), np.ones(n)
    worst = 0.0
    period = schedule.period()
    matrices = [build_mixing_matrix(topology_at(schedule, t)) for t in range(period)]
    for t in range(rounds):
        X, w, _ = mix_round(X, w, matrices[t % period])
        worst = max(worst, abs(sum(w) - n) / n)
    results.append(CheckResult(f"mass conservation, exponential-periodic n={n}, {rounds} rounds",
                               worst <= 1e-10, worst, 0.0, "max relative |sum w - n|, tol 1e-10"))

    # zero-gradient consensus on a static directed ring
    schedule = TopologySchedule(kind="static-ring", n=8, k=2)
    P = build_mixing_matrix(topology_at(schedule, 0))
    rng = np.random.default_rng(seed + 1)
    X, w = rng.normal(size=(8, 2)), np.ones(8)
    max_dev = np.inf
    for t in range(500):
        X, w, Z = mix_round(X, w, P)
        max_dev = float(np.max(np.linalg.norm(Z - X.mean(axis=0), axis=1)))
        if max_dev < 1e-8:
            break
    results.append(CheckResult("zero-gradient ring consensus within 500 rounds", max_dev < 1e-8,
                               max_dev, 0.0, "max ||z_i - xbar||, tol 1e-8"))
    return results


# -------------------------------------------------------------- gradients


def finite_difference_grad(model, params, batch, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient; shares no code with the analytic path."""
    g = np.zeros_like(params, dtype=float)
    for k in range(len(params)):
        bump = np.zeros_like(g)
        bump[k] = step
        up = row_pass(model, params + bump, batch, grad=False).loss()
        down = row_pass(model, params - bump, batch, grad=False).loss()
        g[k] = (up - down) / (2 * step)
    return g


def single_sample_dev_sq(model, params, batch, g) -> np.ndarray:
    """||g_j - g||^2 row by row, from one single-sample gradient per row."""
    X, y = batch
    return np.array([
        np.sum((row_pass(model, params, (X[j : j + 1], y[j : j + 1])).grad() - g) ** 2)
        for j in range(len(X))
    ])


def per_node_grads(model, Z, batch, layout, sel, drawn):
    """NodeGrads node by node: one row pass per occupied node at its own
    point, reduced over its whole slice and over its drawn rows."""
    X, y = batch
    full, batch_mean = np.zeros_like(Z), np.zeros_like(Z)
    node_sel = np.split(sel, np.cumsum(drawn)[:-1])
    for i, start, count, chosen in zip(layout.nodes, layout.starts, layout.counts, node_sel):
        seg = slice(start, start + count)
        rows = row_pass(model, Z[i], (X[seg], y[seg]))
        full[i], batch_mean[i] = rows.grad(), rows.grad(chosen - start)
    return full, batch_mean


# the node layout of the per-node check: an empty node, a one-row node, a
# full draw (ratio 1), a forced single-sample draw and an ordinary draw
NODE_SIZES = (0, 1, 9, 14, 16)
NODE_RATIOS = (0.5, 0.5, 1.0, 1e-12, 0.3)


def node_draws(rng, sizes=NODE_SIZES, ratios=NODE_RATIOS):
    """The NodeRows of nodes with the given sizes over consecutive rows, and
    one batch draw per node at its ratio, on streams of a seed drawn from
    rng: (layout, drawn rows, how many each node drew)."""
    layout = node_rows(sizes)
    streams = rngmod.Streams(int(rng.integers(2**32)), rngmod.BATCH, len(sizes), horizon=1)
    return (layout, *BatchDraws(layout, ratios, streams).draw(0))


def _gradient_cases(seed: int):
    quad = make_quadratic_model(4, seed)
    quad_data = make_synthetic("quadratic", 40, 4, seed)
    blobs2 = make_synthetic("blobs", 40, 3, seed + 1)
    blobs3 = make_synthetic("blobs", 40, 3, seed + 2, classes=3)
    return [
        ("quadratic", quad, quad_data),
        ("logistic", LogisticModel(n_features=3, l2=0.05), blobs2),
        ("mlp", MlpModel(n_features=3, hidden=5, classes=3), blobs3),
    ]


def gradients_suite(
    points: int = 100, seed: int = 11, rel_tol: float = 1e-5, row_tol: float = 1e-10,
    node_tol: float = 1e-12,
) -> List[CheckResult]:
    """Analytic mean gradients against finite differences, each model's
    closed-form per-row ||g_j - g||^2 (g the mean gradient) against a loop
    of single-sample gradients, and `NodeGrads` at random per-node points
    against one pass per node (relative error of each node's gradient)."""
    results = []
    rng = np.random.default_rng(seed)
    for name, model, data in _gradient_cases(seed):
        batch = (data.features, data.labels)
        worst = worst_row = worst_node = 0.0
        for _ in range(points):
            params = rng.normal(size=model.dim)
            rows = row_pass(model, params, batch)
            analytic = rows.grad()
            numeric = finite_difference_grad(model, params, batch)
            denom = max(float(np.linalg.norm(numeric)), 1e-12)
            worst = max(worst, float(np.linalg.norm(analytic - numeric)) / denom)
            looped = single_sample_dev_sq(model, params, batch, analytic)
            row_err = np.abs(rows.dev_sq(analytic) - looped) / looped
            worst_row = max(worst_row, float(np.max(row_err)))
            Z = rng.normal(size=(len(NODE_SIZES), model.dim))
            draws = node_draws(rng)
            got = NodeGrads(model, batch, draws[0]).at(Z, *draws[1:])
            for g, ref in zip(got, per_node_grads(model, Z, batch, *draws)):
                scale = np.maximum(np.linalg.norm(ref, axis=1), 1e-300)  # empty nodes: 0 / tiny
                err = np.linalg.norm(g - ref, axis=1) / scale
                worst_node = max(worst_node, float(np.max(err)))
        for label, measured, tol in (("gradient check", worst, rel_tol),
                                     ("per-row deviation", worst_row, row_tol),
                                     ("per-node gradients", worst_node, node_tol)):
            results.append(CheckResult(f"{label} ({name}, {points} points)", measured < tol,
                                       measured, 0.0, f"max relative error, tol {tol}"))
    return results


# -------------------------------------------------------------- schedules


def random_schedule(rng) -> tuple:
    form = rng.choice(["power", "stepwise"])
    T = int(rng.integers(2, 120))
    s = float(rng.uniform(0.0, 0.999))
    if form == "power":
        sched = NoiseSchedule(form="power", T=T, s=s, K=float(rng.uniform(0.2, 5.0)))
    else:
        sched = NoiseSchedule(form="stepwise", T=T, s=s, tau=int(rng.integers(1, 12)),
                              a1=float(rng.uniform(0.2, 3.0)), a2=float(rng.uniform(1.0, 20.0)))
    lr = LrSchedule(eta=1.0, xi=float(rng.uniform(0.05, 0.95)))
    return sched, lr


def schedules_suite(configs: int = 200, seed: int = 5) -> List[CheckResult]:
    results = []
    rng = np.random.default_rng(seed)
    violations = 0
    worst_margin = np.inf
    for _ in range(configs):
        sched, lr = random_schedule(rng)
        lhs, rhs = beta_sum_dominance(sched, lr)
        if lhs > rhs * (1 + 1e-12):
            violations += 1
        worst_margin = min(worst_margin, rhs - lhs)
    results.append(CheckResult(f"beta-sum dominance on {configs} random schedules",
                               violations == 0, float(violations), 0.0,
                               f"min(rhs - lhs) = {worst_margin:.3g}"))

    # calibration reduction at constant alpha: sigma = c2*varsigma*G*sqrt(T ln(1/delta))/eps
    budget = PrivacyBudget(epsilon=2.0, delta=1e-5, sampling_ratio=0.01, c1=25.0, c2=1.0)
    sched = NoiseSchedule(form="power", T=1000, s=0.0, K=1.0)
    sigma = calibrate_sigma(budget, 0.1, sched)
    closed = (budget.c2 * budget.sampling_ratio * 0.1
              * np.sqrt(sched.T * np.log(1.0 / budget.delta)) / budget.epsilon)
    results.append(CheckResult("calibration reduction at alpha == 1",
                               abs(sigma - closed) <= 1e-12 * closed, sigma, float(closed),
                               "rel tol 1e-12"))
    return results


# ----------------------------------------------------------- connectivity


def floyd_warshall_diameter(edges: DirectedEdgeSet) -> Optional[int]:
    """Brute-force oracle: the largest all-pairs hop distance over
    sender->receiver arcs, or None if some node does not reach another."""
    n = edges.n
    dist = np.full((n, n), np.inf)
    dist[edges.send, edges.recv] = 1.0
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return int(dist.max()) if np.all(np.isfinite(dist)) else None


def union_window(schedule: TopologySchedule, start: int, length: int) -> DirectedEdgeSet:
    """Union of the edge sets over iterations [start, start + length)."""
    sets = [topology_at(schedule, t) for t in range(start, start + length)]
    return DirectedEdgeSet(schedule.n, *np.hstack([(s.recv, s.send) for s in sets]))


def brute_force_window_diameter(schedule: TopologySchedule, J: int) -> Optional[int]:
    """Largest Floyd-Warshall diameter of the J-window unions over one full
    schedule cycle, or None if some union is not strongly connected."""
    period = len(schedule.edge_sets)
    diameters = [floyd_warshall_diameter(union_window(schedule, l * J, J))
                 for l in range(period // math.gcd(period, J))]
    return None if None in diameters else max(diameters)


def random_explicit_schedule(rng, n: int, length: int) -> TopologySchedule:
    """`length` edge sets of random arcs, each holding a random spanning
    cycle with probability 1/2, so that most window unions are strongly
    connected and their diameters range from 1 to n - 1."""
    sets = []
    for _ in range(length):
        m = int(rng.integers(0, n * (n - 1) + 1))
        edges = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(m)]
        if rng.random() < 0.5:
            cycle = rng.permutation(n).tolist()
            edges += list(zip(cycle, cycle[1:] + cycle[:1]))
        sets.append(DirectedEdgeSet(n, [i for i, _ in edges], [j for _, j in edges]))
    return TopologySchedule(kind="explicit-list", n=n, edge_sets=tuple(sets))


def connectivity_suite(cases: int = 60, seed: int = 13) -> List[CheckResult]:
    """`window_diameter`, which the theory block calls for kappa, against the
    Floyd-Warshall diameter on random explicit schedules and six fixed
    graphs, three of them with 256 or more nodes."""
    rng = np.random.default_rng(seed)
    mismatches, finite = 0, []
    for _ in range(cases):
        n = int(rng.integers(2, 7))
        schedule = random_explicit_schedule(rng, n, int(rng.integers(1, 6)))
        J = int(rng.integers(1, 5))
        expected = brute_force_window_diameter(schedule, J)
        mismatches += window_diameter(schedule, J) != expected
        finite += [] if expected is None else [expected]
    results = [CheckResult(f"window diameter vs Floyd-Warshall on {cases} random schedules",
                           mismatches == 0, float(mismatches), 0.0),
               # the comparison means little unless most unions connect
               CheckResult(f"finite diameters, some >= 3, in half of {cases} random schedules",
                           2 * len(finite) >= cases and max(finite, default=0) >= 3,
                           float(len(finite)), cases / 2, f"diameters {sorted(set(finite))}")]

    block = np.arange(8) // 4
    cliques = DirectedEdgeSet(8, *np.nonzero(block[:, None] == block))
    fixed = (
        ("static ring (k=2, n=8), J=1", TopologySchedule(kind="static-ring", n=8, k=2), 1, 4),
        ("two disjoint 4-cliques, J=2",
         TopologySchedule(kind="explicit-list", n=8, edge_sets=(cliques,)), 2, None),
        # one period reaches offsets {1,2,3,4,6} directly; 5 and 7 take two hops
        ("exponential-periodic n=8, J=3", TopologySchedule(kind="exponential-periodic", n=8), 3, 2),
        # at J=1 the window of step 2 holds even offsets only
        ("exponential-periodic n=256, J=1",
         TopologySchedule(kind="exponential-periodic", n=256), 1, None),
        # one period reaches offsets up to 127 and every even one; the odd rest take two hops
        ("exponential-periodic n=256, J=8",
         TopologySchedule(kind="exponential-periodic", n=256), 8, 2),
        ("static ring (k=1, n=300), J=1", TopologySchedule(kind="static-ring", n=300, k=1), 1, 299),
    )
    for label, schedule, J, expected in fixed:
        got = window_diameter(schedule, J)
        passed = got == expected == brute_force_window_diameter(schedule, J)
        results.append(CheckResult(f"{label}: window diameter {expected}", passed,
                                   float(-1 if got is None else got),
                                   float(-1 if expected is None else expected), "None reads -1"))
    return results


# ---------------------------------------------------------------- streams


def stream_draws(gen, k: int):
    """`integers` first, an odd count of them, so the 32-bit buffer is left
    full for the next slot's positioning; below 2^31 every 32-bit word is
    accepted, so a stale buffered word cannot hide behind a rejection."""
    return gen.integers(0, 2**31, k), gen.random(k), gen.standard_normal(k + 3)


def fill_mismatches(streams, t: int, nodes: list, kind: str) -> int:
    """How many of the round-t slots of `nodes` `Streams.fill` draws unlike a
    fresh `rng.stream`, into the rows of one buffer as the round loop does."""
    rows = list(np.empty((len(nodes), 5)))
    streams.fill(t, nodes, rows, kind)
    return sum(not np.array_equal(row, getattr(rngmod.stream(
        streams.master_seed, node, t, streams.purpose), kind)(5)) for node, row in zip(nodes, rows))


def streams_suite(slots: int = 40, seed: int = 17) -> List[CheckResult]:
    """`Streams.at` and `Streams.fill`, which write each slot's PCG64 words
    into one reused generator's memory, against a fresh `rng.stream`: `at` at
    random slots of one-, two- and three-word seeds, BATCH and NOISE, with
    rounds on both sides of the first block edges, each slot positioned over
    the buffer word the previous slot's draws left full; after each, a `fill`
    of its round over that full word, for a random list of nodes and a draw
    kind in turn; and a `fill` of a block's first round after one in the
    previous block."""
    rng, kinds = np.random.default_rng(seed), ("random", "standard_normal")
    results, fill_misses = [], dict.fromkeys(kinds, 0)

    def check(name, misses):
        results.append(CheckResult(name, misses == 0, float(misses), 0.0,
                                   "slots whose draws differ"))

    for words in (1, 2, 3):
        master = sum(int(rng.integers(1, 2**32)) << 32 * k for k in range(words))
        for purpose, label in ((rngmod.BATCH, "BATCH"), (rngmod.NOISE, "NOISE")):
            n = int(rng.integers(1, 300))
            streams, rounds = rngmod.Streams(master, purpose, n), max(1, rngmod.BLOCK_SLOTS // n)
            ts = [b * rounds + off for b in (1, 2) for off in (-1, 0)]
            mismatches = 0
            for i, t in enumerate(ts + rng.integers(0, 3 * rounds, slots - len(ts)).tolist()):
                node, k = int(rng.integers(n)), 2 * int(rng.integers(4)) + 1
                got = stream_draws(streams.at(t, node), k)
                ref = stream_draws(rngmod.stream(master, node, t, purpose), k)
                mismatches += not all(np.array_equal(a, b) for a, b in zip(got, ref))
                nodes = rng.permutation(n)[: int(rng.integers(1, min(n, 4) + 1))].tolist()
                fill_misses[kinds[i % 2]] += fill_mismatches(streams, t, nodes, kinds[i % 2])
            check(f"Streams.at vs rng.stream, {words}-word seed, {label}, n={n}, {slots} slots",
                  mismatches)
    for kind, misses in fill_misses.items():
        check(f"Streams.fill ({kind}) after each Streams.at slot vs rng.stream", misses)
    streams, first = rngmod.Streams(master, rngmod.NOISE, 4), max(1, rngmod.BLOCK_SLOTS // 4)
    check("Streams.fill of a block's first round after a fill in the previous block vs "
          "rng.stream", sum(fill_mismatches(streams, t, [1, 2], "standard_normal")
                            for t in (first - 1, first)))
    return results


SUITES: Dict[str, Callable[..., List[CheckResult]]] = {
    "noise-factor": noise_factor_suite,
    "consensus": consensus_suite,
    "gradients": gradients_suite,
    "schedules": schedules_suite,
    "connectivity": connectivity_suite,
    "streams": streams_suite,
}


def run_suite(name: str, trials: Optional[int] = None) -> List[CheckResult]:
    """The checks of suite `name` (of every suite for "all"); trials, when
    given, goes to the noise-factor suite alone.  A suite that raises gives
    one failing check naming it and its exception."""
    if name != "all" and name not in SUITES:
        raise KeyError(name)
    out = []
    for suite in SUITES if name == "all" else [name]:
        kwargs = {"trials": trials} if trials is not None and suite == "noise-factor" else {}
        try:
            out += SUITES[suite](**kwargs)
        except Exception as exc:  # a failure to report, not to end the run on
            where = traceback.extract_tb(exc.__traceback__)[-1]
            out.append(CheckResult(f"suite {suite} raised", False, math.nan, math.nan,
                                   f"{type(exc).__name__}: {exc} (in {where.name}, line "
                                   f"{where.lineno})"))
    return out
