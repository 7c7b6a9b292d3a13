from dataclasses import asdict

import numpy as np
import pytest

from pushdp.config import DataSpec, ModelSpec
from pushdp.engine import build_dataset, build_model, run
from pushdp.errors import ConfigurationError, NumericalBreakdownError
from pushdp.fusion import ClipConfig, FusionConfig
from pushdp.privacy import (
    LrSchedule, NoiseSchedule, PrivacyBudget, beta_at, calibrate_sigma, delta_bound, epsilon_spent,
    starts_interval,
)
from pushdp.topology import TopologySchedule

from conftest import make_config, reference_dsgd


def degenerate_config(T=60, eta=0.05):
    """All error sources off: sigma = 0, no fusion, no clipping bite,
    constant alpha, doubly stochastic complete graph, full batches."""
    return make_config(
        algorithm="sdlr",
        T=T,
        theta=0.0,
        tau=1,
        sampling_ratio=1.0,
        topology=TopologySchedule(kind="static-ring", n=8, k=7),
        noise=NoiseSchedule(form="power", T=T, s=0.0, K=1.0, tau=1),
        lr=LrSchedule(eta=eta, xi=0.5),
        clip=ClipConfig(g0=1e9, psi=1.0),
        fusion=FusionConfig(theta=0.0),
        sigma_override=0.0,
        data=DataSpec(kind="blobs", n_samples=160, test_fraction=0.0, alpha_conc=5.0),
    )


class TestDegenerateReduction:
    def test_matches_reference_dsgd(self):
        cfg = degenerate_config()
        result = run(cfg, master_seed=4, record_states=True)
        model = build_model(cfg, 4)
        dataset = build_dataset(cfg, 4)
        P = np.full((8, 8), 1.0 / 8.0)
        reference = reference_dsgd(model, dataset, dataset.node_indices, P, 0.05, cfg.T)
        worst = max(
            float(np.max(np.abs(engine_X - ref_X)))
            for engine_X, ref_X in zip(result.trajectory, reference)
        )
        assert worst <= 1e-10


class TestDeterminism:
    def test_bitwise_identical_records(self):
        cfg = make_config(T=40)
        a = run(cfg, master_seed=5)
        b = run(cfg, master_seed=5)
        assert all(x.as_dict() == y.as_dict() for x, y in zip(a.records, b.records))
        assert a.summary["sigma_per_node"] == b.summary["sigma_per_node"]
        # as_dict is dataclasses.asdict without the deep copy: same keys, same order
        assert all(list(r.as_dict().items()) == list(asdict(r).items()) for r in a.records)
        # plain Python scalars, as the JSON writer gets them: no numpy scalar
        assert all(type(v) in (int, float, type(None)) for r in a.records
                   for v in r.as_dict().values())
        assert type(a.records[-1].test_accuracy) is float

    def test_seed_changes_stream(self):
        cfg = make_config(T=20)
        a = run(cfg, master_seed=5)
        b = run(cfg, master_seed=6)
        assert any(x.as_dict() != y.as_dict() for x, y in zip(a.records, b.records))


class TestRecordedSchedules:
    def test_eta_matches_beta_exactly(self):
        cfg = make_config(T=50)
        result = run(cfg, master_seed=1)
        for rec in result.records:
            assert rec.eta_t == cfg.lr.eta / beta_at(cfg.noise, cfg.lr, rec.t)

    def test_alpha_injected_is_decaying_multiplier(self):
        cfg = make_config(T=30)
        result = run(cfg, master_seed=1)
        values = [rec.alpha_injected for rec in result.records]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_clip_threshold_decays_only_for_vrsgp(self):
        cfg = make_config(T=20, algorithm="adp-vrsgp")
        gs = [rec.current_g for rec in run(cfg, master_seed=2).records]
        assert gs[0] == 0.1 and gs[5] == pytest.approx(0.1 * 0.99**5, rel=1e-12)
        cfg_sdlr = make_config(T=20, algorithm="sdlr")
        gs = [rec.current_g for rec in run(cfg_sdlr, master_seed=2).records]
        assert set(gs) == {0.1}


class TestNoiselessDescent:
    def test_quadratic_monotone_and_converged(self):
        # homogeneous data (spread 0) so every local optimum coincides
        cfg = make_config(
            algorithm="sdlr",
            T=400,
            theta=0.0,
            tau=1,
            sampling_ratio=1.0,
            noise=NoiseSchedule(form="power", T=400, s=0.0, K=1.0, tau=1),
            lr=LrSchedule(eta=0.4, xi=0.5),
            clip=ClipConfig(g0=1e9, psi=1.0),
            fusion=FusionConfig(theta=0.0),
            sigma_override=0.0,
            model=ModelSpec(kind="quadratic", features=3),
            data=DataSpec(kind="quadratic", n_samples=160, spread=0.0, alpha_conc=5.0),
        )
        result = run(cfg, master_seed=3)
        values = [rec.mean_sq_grad_norm for rec in result.records]
        assert values[-1] < 1e-6
        tail = values[30:]
        assert all(b <= a * (1 + 1e-9) + 1e-30 for a, b in zip(tail, tail[1:]))


class TestFailureModes:
    def test_nan_abort_names_iteration(self, tmp_path):
        # clipping saturates any gradient blow-up, so the guard's real job is
        # catching corrupt inputs: a NaN feature poisons the state at once
        path = tmp_path / "bad.csv"
        rows = ["f1,f2,label"] + [f"{0.1 * i},1.0,{i % 2}" for i in range(16)]
        rows[3] = "nan,1.0,1"
        path.write_text("\n".join(rows) + "\n")
        cfg = make_config(
            algorithm="sdlr",
            T=10,
            sampling_ratio=1.0,
            model=ModelSpec(kind="logistic", features=2),
            data=DataSpec(kind="csv", path=str(path), alpha_conc=5.0),
        )
        with pytest.raises(NumericalBreakdownError, match="iteration"):
            with np.errstate(over="ignore", invalid="ignore"):
                run(cfg, master_seed=0)

    @pytest.mark.parametrize("model, labels, bad", [
        (ModelSpec(kind="logistic", features=2), [0, 1, 2, 3, 4], 2),
        (ModelSpec(kind="mlp", features=2, classes=3), [0, 1, 2, -1], -1),
        (ModelSpec(kind="mlp", features=2, classes=3), [0, 1, 2, 4], 4),
    ], ids=["logistic-label-2", "mlp-label-minus-1", "mlp-label-4"])
    def test_csv_label_outside_the_model_classes_is_config_error(self, tmp_path, model, labels, bad):
        path = tmp_path / "data.csv"
        rows = ["f1,f2,label"] + [f"{0.1 * i},1.0,{labels[i % len(labels)]}" for i in range(60)]
        path.write_text("\n".join(rows) + "\n")
        cfg = make_config(model=model, data=DataSpec(kind="csv", path=str(path)))
        classes = 2 if model.kind == "logistic" else 3
        with pytest.raises(ConfigurationError) as err:
            build_dataset(cfg, 0)
        assert str(err.value) == (
            f"data.path: {path} has label {bad}, but model.kind = {model.kind} "
            f"needs labels in [0, {classes})"
        )

    def test_calibration_regime_error_propagates(self):
        # tiny sampling ratio at default c1 violates eps < c1*ratio^2*T
        cfg = make_config(T=20, sampling_ratio=0.01, epsilon=2.0)
        from pushdp.errors import CalibrationError

        with pytest.raises(CalibrationError, match="c1"):
            run(cfg, master_seed=0)

    def test_out_of_regime_theory_warns_and_continues(self):
        # the exponential rule's single-iteration graphs are not strongly
        # connected, so J=1 disables the calculators but the run proceeds
        cfg = make_config(
            T=15,
            topology=TopologySchedule(kind="exponential-periodic", n=8, J=1),
            theory=True,
        )
        result = run(cfg, master_seed=1)
        assert len(result.records) == 15
        theory = result.summary["theory"]
        assert theory["enabled"] and not theory["in_regime"]
        assert "disabled" in theory["warning"]

    def test_q_rounding_to_one_warns_and_continues(self):
        # one full period of the n=64 exponential rule is connected, but
        # n*U^(-kappa*J) vanishes next to 1, so q rounds to 1.0
        cfg = make_config(
            n=64,
            T=20,
            topology=TopologySchedule(kind="exponential-periodic", n=64, J=6),
            data=DataSpec(kind="blobs", n_samples=800, test_fraction=0.2, alpha_conc=1.0),
            theory=True,
        )
        result = run(cfg, master_seed=0)
        assert len(result.records) == 20
        theory = result.summary["theory"]
        assert theory["enabled"] and not theory["in_regime"]
        assert "rounds to 1" in theory["warning"]

    def test_in_regime_theory_block_present(self):
        cfg = make_config(
            T=15,
            model=ModelSpec(kind="quadratic", features=3),
            data=DataSpec(kind="quadratic", n_samples=80, alpha_conc=5.0),
            theory=True,
        )
        result = run(cfg, master_seed=1)
        theory = result.summary["theory"]
        assert theory["in_regime"] and theory["warning"] is None
        assert theory["propagation"]["U"] == 3 and theory["propagation"]["kappa"] == 4
        assert theory["convergence_bound"]["total"] > 0
        assert result.summary["time_avg_mean_sq_grad_norm"] <= theory["convergence_bound"]["total"]


class TestSummary:
    def test_summary_fields_and_errata(self):
        cfg = make_config(T=12)
        summary = run(cfg, master_seed=9).summary
        assert summary["algorithm"] == "adp-vrsgp"
        assert len(summary["sigma_per_node"]) == 8
        assert summary["privacy_spent"][0]["label"] == "bound, constants-dependent"
        assert summary["errata"]["tau_intervals"]["rule_values"] == {"0.3": 3, "0.5": 5, "0.7": 8}
        assert summary["errata"]["tau_intervals"]["paper_reported"] == {"0.3": 12, "0.5": 6, "0.7": 4}
        assert summary["final_test_accuracy"] is not None

    @pytest.mark.parametrize("epsilons", [[1.0] * 8, [1.0, 0.5] * 4], ids=["same", "two"])
    def test_privacy_spent_evaluates_each_budget_once(self, monkeypatch, epsilons):
        # the summary makes the moments_bound calls of one node per distinct
        # (budget, sigma), and every entry is that node's own evaluation
        from pushdp import privacy

        cfg = make_config(T=6, budgets=[PrivacyBudget(epsilon=e, delta=1e-5, sampling_ratio=0.5)
                                        for e in epsilons])
        calls = []
        real = privacy.moments_bound
        monkeypatch.setattr(privacy, "moments_bound", lambda *a: calls.append(a) or real(*a))
        summary = run(cfg, master_seed=0).summary
        in_run = len(calls)
        expected = []
        for i, (b, sigma) in enumerate(zip(cfg.budgets, summary["sigma_per_node"])):
            z = sigma / cfg.clip.g0
            expected.append({"node": i, "epsilon_bound": epsilon_spent(b, z, cfg.noise),
                             "delta_at_epsilon": delta_bound(b, z, cfg.noise),
                             "label": "bound, constants-dependent"})
        assert in_run * cfg.n == (len(calls) - in_run) * len(set(epsilons))
        assert summary["privacy_spent"] == expected

    @pytest.mark.parametrize("epsilons", [[1.0] * 8, [1.0, 0.5, 1.0, 0.25] * 2],
                             ids=["same", "three"])
    def test_sigmas_calibrate_each_budget_once(self, monkeypatch, epsilons):
        # one calibrate_sigma call per distinct budget, in node order, and
        # every node's sigma is its own budget's calibration
        from pushdp import engine

        cfg = make_config(T=6, budgets=[PrivacyBudget(epsilon=e, delta=1e-5, sampling_ratio=0.5)
                                        for e in epsilons])
        calls = []
        monkeypatch.setattr(engine, "calibrate_sigma",
                            lambda b, *args: calls.append(b) or calibrate_sigma(b, *args))
        sigmas = run(cfg, master_seed=0).summary["sigma_per_node"]
        assert calls == list(dict.fromkeys(cfg.budgets))
        assert sigmas == [calibrate_sigma(b, cfg.clip.g0, cfg.noise) for b in cfg.budgets]

    def test_first_failing_budget_names_the_calibration_error(self):
        # nodes 2 and 3 both violate eps < c1*ratio^2*T = 0.2; node 2's epsilon is named
        from pushdp.errors import CalibrationError

        cfg = make_config(T=20, budgets=[PrivacyBudget(epsilon=e, delta=1e-5, sampling_ratio=0.1)
                                         for e in (0.1, 0.1, 2.0, 3.0, 0.1, 2.0, 3.0, 0.1)])
        with pytest.raises(CalibrationError, match="epsilon=2 violates"):
            run(cfg, master_seed=0)

    def test_empty_node_flagged_and_survives(self):
        # alpha small enough to starve some node eventually; find a seed that
        # produces one and check the run still completes
        cfg = make_config(T=8, data=DataSpec(kind="blobs", n_samples=24, alpha_conc=0.05))
        for seed in range(30):
            result = run(cfg, master_seed=seed)
            if result.summary["empty_nodes"]:
                assert len(result.records) == 8
                return
        pytest.skip("no seed produced an empty node at this size")


class TestNoiseDraws:
    @staticmethod
    def noise_draws(monkeypatch, cfg, seed):
        """Run cfg and list the (node, t) of every NOISE slot it positions, at
        the round loop's per-round accessor `rng.Streams.fill`, and the first
        round of every NOISE block it derives."""
        from pushdp import rng as rngmod

        drawn, derived = [], []
        real_fill, real_derive = rngmod.Streams.fill, rngmod.Streams._derive

        def counting_fill(streams, t, nodes, outs, kind):
            if streams.purpose == rngmod.NOISE:
                drawn.extend((int(node), t) for node in nodes)
            return real_fill(streams, t, nodes, outs, kind)

        def counting_derive(streams, t0):
            if streams.purpose == rngmod.NOISE:
                derived.append(t0)
            return real_derive(streams, t0)

        monkeypatch.setattr(rngmod.Streams, "fill", counting_fill)
        monkeypatch.setattr(rngmod.Streams, "_derive", counting_derive)
        return run(cfg, master_seed=seed), drawn, derived

    def test_no_noise_stream_when_sigma_is_zero(self, monkeypatch):
        _, drawn, derived = self.noise_draws(monkeypatch, degenerate_config(T=10), 4)
        assert drawn == []
        assert derived == []

    def test_only_occupied_nodes_draw(self, monkeypatch):
        cfg = make_config(T=6, data=DataSpec(kind="blobs", n_samples=24, alpha_conc=0.05))
        result, drawn, _ = self.noise_draws(monkeypatch, cfg, 0)
        empty = result.summary["empty_nodes"]
        assert empty  # seed 0 leaves nodes 0, 1 and 4 without samples
        occupied = [i for i in range(cfg.n) if i not in empty]
        assert drawn == [(i, t) for t in range(cfg.T) for i in occupied]
        assert np.all(result.fused_norms[:, empty] == 0.0)


def test_one_model_pass_per_occupied_node_round(monkeypatch):
    """Each round makes one shared loss-only pass at xbar over all training
    rows.  Logistic (and quadratic) then make one gathered pass over all
    rows, each at its node's z_i; the MLP makes one pass per occupied node."""
    from pushdp import models

    for model in (ModelSpec(kind="logistic", features=5, l2=0.01),
                  ModelSpec(kind="mlp", features=5, hidden=6, classes=2)):
        cfg = make_config(T=6, model=model,
                          data=DataSpec(kind="blobs", n_samples=24, alpha_conc=0.05))
        kind = type(build_model(cfg, 0))
        passes = []  # (grad flag, gathered) of every row-block pass
        real_rows = kind.rows

        def counting_rows(self, params, X, y, grad=True, **gather):
            passes.append((grad, bool(gather)))
            return real_rows(self, params, X, y, grad, **gather)

        with monkeypatch.context() as patch:
            patch.setattr(kind, "rows", counting_rows)
            result = run(cfg, master_seed=0)
        occupied = cfg.n - len(result.summary["empty_nodes"])
        assert 1 < occupied < cfg.n
        node_passes = {(True, True): cfg.T} if kind is models.LogisticModel else {
            (True, False): occupied * cfg.T}
        assert {p: passes.count(p) for p in set(passes)} == {(False, False): cfg.T, **node_passes}


def test_round_marker_calls(monkeypatch):
    """engine.beta_at is called once at the top of every round, as an engine
    global, and engine._summarize once, right after the last round: the
    benchmark's round boundaries are these two calls."""
    from pushdp import engine

    calls = []  # "beta" per beta_at call, "summarize" per _summarize call
    real_beta, real_summarize = engine.beta_at, engine._summarize

    def counting_beta(*args):
        calls.append("beta")
        return real_beta(*args)

    def counting_summarize(*args):
        calls.append("summarize")
        return real_summarize(*args)

    monkeypatch.setattr(engine, "beta_at", counting_beta)
    monkeypatch.setattr(engine, "_summarize", counting_summarize)
    for algorithm in ("sdlr", "adp-vrsgp"):
        cfg = make_config(T=7, algorithm=algorithm)
        calls.clear()
        engine.run(cfg, master_seed=0)
        assert calls == ["beta"] * cfg.T + ["summarize"]


class TestEmpiricalDTau:
    """empirical_d_tau against a brute-force oracle over every round's clipped
    rows, captured at engine.clip: the largest squared distance between an
    occupied node's row now and at any earlier round of the same interval."""

    T = 30
    CASES = {
        "sdlr": dict(algorithm="sdlr"),
        "adp-vrsgp": dict(algorithm="adp-vrsgp"),
        # one interval of all T rounds, far past tau = 5: `held` doubles
        "stepwise-s0": dict(noise=NoiseSchedule(form="stepwise", T=T, s=0.0, tau=5)),
        # every round starts an interval
        "power": dict(noise=NoiseSchedule(form="power", T=T, s=0.5, K=2.0)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_brute_force(self, case, monkeypatch):
        from pushdp import engine

        cfg = make_config(T=self.T, **self.CASES[case])
        clipped = []
        real_clip = engine.clip

        def capturing_clip(g, G):
            out = real_clip(g, G)
            clipped.append(out[0].copy())
            return out

        monkeypatch.setattr(engine, "clip", capturing_clip)
        result = run(cfg, master_seed=3)
        occupied = [i for i in range(cfg.n) if i not in result.summary["empty_nodes"]]
        starts = [t for t in range(cfg.T) if starts_interval(cfg.noise, t)]
        got = [r.empirical_d_tau for r in result.records]
        want = []
        for t in range(cfg.T):
            start = max(s for s in starts if s <= t)
            want.append(max((float(np.sum((clipped[t][i] - clipped[s][i]) ** 2))
                             for s in range(start, t) for i in occupied), default=0.0))
        assert got == want
        if case == "power":
            assert starts == list(range(cfg.T)) and not any(got)
        else:
            assert max(np.diff(starts + [cfg.T])) == (cfg.T if case == "stepwise-s0" else 5)
            assert all(got[t] > 0 for t in range(cfg.T) if t not in starts)
