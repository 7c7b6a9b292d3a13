from dataclasses import asdict

import numpy as np
import pytest

from pushdp.config import DataSpec, ModelSpec
from pushdp.engine import build_dataset, build_model, run
from pushdp.errors import ConfigurationError, NumericalBreakdownError
from pushdp.fusion import ClipConfig, FusionConfig
from pushdp.models import LogisticModel, MlpModel, QuadraticModel, node_sorted
from pushdp.privacy import (
    LrSchedule, NoiseSchedule, PrivacyBudget, beta_at, calibrate_sigma, delta_bound, epsilon_spent,
    starts_interval,
)
from pushdp.topology import TopologySchedule

from conftest import make_config, observed_run, reference_dsgd
from test_models import reference_mlp_rows, reference_predict


def fixed_plan(patch, rounds):
    """Patch the round loop's plan, `Streams.chunk`, to chunks of `rounds`
    rounds from round 0, cut at the horizon (no stream block edge falls
    inside the short horizons that use it)."""
    from pushdp import rng as rngmod

    patch.setattr(rngmod.Streams, "chunk", lambda streams, t, width: (
        t - t % rounds, min(t - t % rounds + rounds, streams.horizon)))


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
        _, log = observed_run(cfg, 4)
        model = build_model(cfg, 4)
        dataset = build_dataset(cfg, 4)
        P = np.full((8, 8), 1.0 / 8.0)
        reference = reference_dsgd(model, dataset, dataset.node_indices, P, 0.05, cfg.T)
        worst = max(
            float(np.max(np.abs(engine_X - ref_X)))
            for engine_X, ref_X in zip(log.trajectory, reference)
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

    def test_breakdown_inside_a_chunk_names_its_first_round(self, monkeypatch):
        # T = 40 is one observable chunk, checked once at its end: a NaN step
        # size at round 7 still names round 7, with no warning on the way
        from pushdp import engine

        real_beta = engine.beta_at
        monkeypatch.setattr(engine, "beta_at", lambda noise, lr, t: (
            float("nan") if t == 7 else real_beta(noise, lr, t)))
        with pytest.raises(NumericalBreakdownError, match=r"iteration 7 \(node 0\)"):
            run(make_config(T=40), master_seed=0)

    @pytest.mark.parametrize("model", [
        ModelSpec(kind="logistic", features=5, l2=0.01),
        ModelSpec(kind="mlp", features=5, hidden=6, classes=2),
        ModelSpec(kind="quadratic", features=5),
    ], ids=["logistic", "mlp", "quadratic"])
    def test_infinite_state_names_its_round_under_the_warnings_filter(self, model, monkeypatch):
        # an inf in X after round 5's mix runs on to the next state check (the
        # end of the 30-round chunk, or of the MLP's first 14 observed rounds)
        # under the suite's warnings-as-errors filter: the check names round 5
        # and node 2, not a numpy RuntimeWarning
        from pushdp import engine

        real_mix = engine.mix_round
        rounds = []

        def mix_round(X, w, P):
            X, w, Z = real_mix(X, w, P)
            rounds.append(len(rounds))
            if rounds[-1] == 5:
                X[2, 0] = np.inf
            return X, w, Z

        monkeypatch.setattr(engine, "mix_round", mix_round)
        data = (DataSpec(kind="quadratic", n_samples=240, alpha_conc=1.0)
                if model.kind == "quadratic" else None)
        cfg = make_config(T=30, model=model, **({"data": data} if data else {}))
        with pytest.raises(NumericalBreakdownError, match=r"iteration 5 \(node 2\)"):
            run(cfg, master_seed=0)
        assert len(rounds) == (14 if model.kind == "mlp" else 30)

    @pytest.mark.parametrize("model", [
        ModelSpec(kind="logistic", features=5, l2=0.01),
        ModelSpec(kind="mlp", features=5, hidden=6, classes=2),
        ModelSpec(kind="quadratic", features=5),
    ], ids=["logistic", "mlp", "quadratic"])
    def test_overflowing_observables_name_their_round_and_field(self, model, monkeypatch):
        # X[2] = 1e200 after round 5's mix is a finite state, but round 6's
        # consensus error overflows: the chunk's observables check names it
        # under the suite's warnings-as-errors filter, where the run would
        # otherwise end with inf records and summary
        from pushdp import engine

        real_mix = engine.mix_round
        rounds = []

        def mix_round(X, w, P):
            X, w, Z = real_mix(X, w, P)
            rounds.append(len(rounds))
            if rounds[-1] == 5:
                X[2, :] = 1e200
            return X, w, Z

        monkeypatch.setattr(engine, "mix_round", mix_round)
        data = (DataSpec(kind="quadratic", n_samples=240, alpha_conc=1.0)
                if model.kind == "quadratic" else None)
        cfg = make_config(T=30, model=model, **({"data": data} if data else {}))
        with pytest.raises(NumericalBreakdownError,
                           match=r"^non-finite consensus_error at iteration 6$"):
            run(cfg, master_seed=0)
        assert len(rounds) == (14 if model.kind == "mlp" else 30)

    def test_run_leaves_the_numpy_error_state_as_it_found_it(self, monkeypatch):
        # the round loop's np.errstate is left on a normal return and on a breakdown
        from pushdp import engine

        before = np.geterr()
        run(make_config(T=10), master_seed=0)
        assert np.geterr() == before
        monkeypatch.setattr(engine, "beta_at", lambda noise, lr, t: float("nan"))
        with pytest.raises(NumericalBreakdownError):
            run(make_config(T=10), master_seed=0)
        assert np.geterr() == before

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
        """Run cfg and list the (node, t) of every NOISE slot it draws, at the
        round loop's per-slot accessor `rng.Streams.at` and at its bulk
        accessor `rng.Streams.bulk` (every round of the block), and the
        first round of every NOISE block it derives.  The `at` calls that
        `bulk` and a block derivation make themselves are not draws of the
        round loop, and are dropped."""
        from pushdp import rng as rngmod

        drawn, derived = [], []
        real_at, real_derive = rngmod.Streams.at, rngmod.Streams._derive
        real_bulk = rngmod.Streams.bulk

        def counting_at(streams, t, node):
            if streams.purpose == rngmod.NOISE:
                drawn.append((int(node), t))
            return real_at(streams, t, node)

        def counting_bulk(streams, t, nodes, counts, kind):
            start = len(drawn)
            t0, block = real_bulk(streams, t, nodes, counts, kind)
            del drawn[start:]  # its redraws and self-check
            if streams.purpose == rngmod.NOISE:
                drawn.extend((int(node), t0 + r) for r in range(len(block)) for node in nodes)
            return t0, block

        def counting_derive(streams, t0):
            start = len(drawn)
            if streams.purpose == rngmod.NOISE:
                derived.append(t0)
            real_derive(streams, t0)
            del drawn[start:]  # its self-check

        monkeypatch.setattr(rngmod.Streams, "at", counting_at)
        monkeypatch.setattr(rngmod.Streams, "bulk", counting_bulk)
        monkeypatch.setattr(rngmod.Streams, "_derive", counting_derive)
        return observed_run(cfg, seed), drawn, derived

    def test_no_noise_stream_when_sigma_is_zero(self, monkeypatch):
        _, drawn, derived = self.noise_draws(monkeypatch, degenerate_config(T=10), 4)
        assert drawn == []
        assert derived == []

    def test_only_occupied_nodes_draw(self, monkeypatch):
        # noise rows of dim 6 from bulk blocks, of dim 21 at `at` slots
        for features in (5, 20):
            cfg = make_config(T=6, model=ModelSpec(kind="logistic", features=features, l2=0.01),
                              data=DataSpec(kind="blobs", n_samples=24, alpha_conc=0.05))
            (result, log), drawn, _ = self.noise_draws(monkeypatch, cfg, 0)
            empty = result.summary["empty_nodes"]
            assert empty  # seed 0 leaves nodes without samples
            occupied = [i for i in range(cfg.n) if i not in empty]
            assert sorted(drawn) == sorted((i, t) for t in range(cfg.T) for i in occupied)
            assert np.all(log.fused_norms[:, empty] == 0.0)


def test_one_model_pass_per_occupied_node_round(monkeypatch):
    """Each chunk of the plan makes one shared loss-only pass, at every
    round's xbar, over all training rows: one for the whole run by default
    here, two at chunks of 4 rounds.  Each round, logistic (and
    quadratic) then make one gathered pass over all rows, each at its node's
    z_i; the MLP makes one pass per occupied node."""
    from pushdp import engine, models

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

        for chunk, loss_passes in ((None, 1), (4, 2)):
            passes.clear()
            with monkeypatch.context() as patch:
                patch.setattr(kind, "rows", counting_rows)
                if chunk:
                    fixed_plan(patch, chunk)
                result = run(cfg, master_seed=0)
            occupied = cfg.n - len(result.summary["empty_nodes"])
            assert 1 < occupied < cfg.n
            node_passes = {(True, True): cfg.T} if kind is models.LogisticModel else {
                (True, False): occupied * cfg.T}
            assert {p: passes.count(p) for p in set(passes)} == {(False, False): loss_passes,
                                                                 **node_passes}


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


@pytest.mark.parametrize("features, alpha_conc", [(5, 1.0), (20, 0.3)])
def test_one_round_chunks_write_the_same_run(monkeypatch, features, alpha_conc):
    """Chunks of one round give the records, summary and final state of the
    default chunk size: the noise rows go through the bulk normals at dim 6
    and through `at` slots at dim 21, and alpha_conc=0.3 leaves nodes on both
    sides of the bulk uniforms' cap."""
    from pushdp import rng as rngmod

    cfg = make_config(T=30, model=ModelSpec(kind="logistic", features=features, l2=0.01),
                      data=DataSpec(kind="blobs", n_samples=400, test_fraction=0.2,
                                    alpha_conc=alpha_conc))
    default, default_log = observed_run(cfg, master_seed=2)
    monkeypatch.setattr(rngmod, "CHUNK_BYTES", 8)
    one, one_log = observed_run(cfg, master_seed=2)
    assert [r.as_dict() for r in one.records] == [r.as_dict() for r in default.records]
    assert one.summary == default.summary
    assert np.array_equal(one_log.trajectory[-1], default_log.trajectory[-1])


@pytest.mark.parametrize("model", [ModelSpec(kind="logistic", features=5, l2=0.01),
                                   ModelSpec(kind="mlp", features=5, hidden=6, classes=2)],
                         ids=["logistic", "mlp"])
def test_runs_across_stream_block_edges(monkeypatch, model):
    """Stream blocks of 12 rounds put two v1 block edges inside a 30-round
    horizon.  The plan cuts its chunks there at the default CHUNK_BYTES (85
    rounds over the 192 training rows), and plans of one and of three
    rounds a chunk run through them: each run writes the records, summary
    and final state of the run at the default block size."""
    from pushdp import rng as rngmod

    cfg = make_config(T=30, model=model)
    default, default_log = observed_run(cfg, master_seed=2)
    monkeypatch.setattr(rngmod, "BLOCK_SLOTS", 12 * cfg.n)
    real_chunk = rngmod.Streams.chunk
    for rounds, chunk_bytes in ((None, rngmod.CHUNK_BYTES), (1, 8 * 192), (3, 3 * 8 * 192)):
        plan = []
        monkeypatch.setattr(rngmod, "CHUNK_BYTES", chunk_bytes)
        monkeypatch.setattr(rngmod.Streams, "chunk", lambda streams, t, width: (
            plan.append(real_chunk(streams, t, width)), plan[-1])[1])
        got, log = observed_run(cfg, master_seed=2)
        assert plan == ([(0, 12), (12, 24), (24, 30)] if rounds is None
                        else [(t, t + rounds) for t in range(0, 30, rounds)])
        assert [r.as_dict() for r in got.records] == [r.as_dict() for r in default.records]
        assert got.summary == default.summary
        assert np.array_equal(log.trajectory[-1], default_log.trajectory[-1])


def reference_round(model, X, Z, train, layout, test):
    """Oracle: (train loss, test accuracy, consensus error) of one round at
    its pre-update X and Z, with the per-round calls the engine made before
    it took its observables a chunk of rounds at a time: the pass at xbar
    alone, `X @ w` and `float(w @ w)` for logistic, the old `predict`s and
    an int count over the test rows."""
    n, (train_X, train_y), (test_X, test_y) = len(X), train, test
    xbar = X.sum(axis=0) / n
    if isinstance(model, QuadraticModel):
        losses = train_X @ xbar
        reg = 0.5 * xbar @ (model.A @ xbar) - model.b @ xbar
        pred = None
    elif isinstance(model, LogisticModel):
        w, bias = xbar[:-1], xbar[-1]
        margin = train_X @ w + bias
        losses, reg = np.logaddexp(0.0, margin) - train_y * margin, 0.5 * model.l2 * float(w @ w)
        pred = None if test_X is None else (test_X @ w + bias > 0).astype(int)
    else:
        losses, reg = reference_mlp_rows(model, xbar, train_X, train_y, grad=False)[0], 0.0
        pred = None if test_X is None else reference_predict(model, xbar, test_X)
    segments = np.add.reduceat(losses, layout.starts) / layout.counts + reg
    return (float(segments.sum() / len(layout.nodes)),
            None if pred is None else int(np.count_nonzero(pred == test_y)) / len(test_y),
            float(np.add.reduce((Z - xbar) ** 2, axis=1).sum() / n))


class TestObservableChunks:
    """The records of a run do not depend on how many rounds' observables
    are computed at once, and equal the per-round oracle."""

    T = 20
    CASES = {
        **{f"{kind}/{algorithm}": dict(algorithm=algorithm, model=model, data=data)
           for kind, model, data in (
               ("quadratic", ModelSpec(kind="quadratic", features=3),
                DataSpec(kind="quadratic", n_samples=160, alpha_conc=5.0)),
               ("logistic", ModelSpec(kind="logistic", features=5, l2=0.01),
                DataSpec(kind="blobs", n_samples=240, test_fraction=0.2)),
               ("mlp", ModelSpec(kind="mlp", features=4, hidden=6, classes=3),
                DataSpec(kind="blobs", n_samples=240, test_fraction=0.2)))
           for algorithm in ("sdlr", "adp-vrsgp")},
        "empty-node": dict(data=DataSpec(kind="blobs", n_samples=24, alpha_conc=0.05)),
        "no-test-split": dict(data=DataSpec(kind="blobs", n_samples=240, test_fraction=0.0)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_chunks_of_one_three_and_all_rounds_write_the_same_run(self, case, monkeypatch):
        cfg = make_config(T=self.T, **self.CASES[case])
        default, default_log = observed_run(cfg, master_seed=1)
        if case == "empty-node":
            assert default.summary["empty_nodes"]
        for chunk in (1, 3, self.T):  # 3 leaves a last chunk of 2 rounds
            fixed_plan(monkeypatch, chunk)
            got, log = observed_run(cfg, master_seed=1)
            assert [r.as_dict() for r in got.records] == [r.as_dict() for r in default.records]
            assert got.summary == default.summary
            assert np.array_equal(log.trajectory[-1], default_log.trajectory[-1])

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("chunk", [None, 3])
    def test_records_match_the_per_round_oracle(self, case, chunk, monkeypatch):
        if chunk:
            fixed_plan(monkeypatch, chunk)
        cfg = make_config(T=self.T, **self.CASES[case])
        result, log = observed_run(cfg, master_seed=4)
        model, dataset = build_model(cfg, 4), build_dataset(cfg, 4)
        train_X, train_y, layout = node_sorted(dataset)
        start = np.zeros((cfg.n, model.dim))  # every node starts at x0 = 0 with weight 1
        states = [(start, start)] + [(X, Z) for X, _, Z in log.states[:-1]]
        for record, (X, Z) in zip(result.records, states, strict=True):
            loss, acc, cons = reference_round(model, X, Z, (train_X, train_y), layout,
                                              (dataset.test_features, dataset.test_labels))
            assert (record.train_loss, record.test_accuracy, record.consensus_error) == (
                loss, acc, cons)
        if case == "no-test-split" or case.startswith("quadratic"):
            assert result.records[-1].test_accuracy is None

    def test_chunk_rule_on_the_benchmark_shapes(self, monkeypatch):
        # the plan's chunks hold CHUNK_BYTES of one batch uniform a training
        # row, 8 bytes a double: ring8's 192 rows give 85 rounds, expo256's
        # 2,560 and mlp8's 2,400 give 6, and expo256's 64-round stream
        # blocks cut a chunk of 4.  The observables stack CHUNK_BYTES over
        # the widest loss-pass plane: 85, 6 and 1 (2,400 x 64 hidden) rounds;
        # a test split larger than the training rows sets that plane (1,000
        # test rows: 16 rounds), and so do the MLP's 10 classes over its 3
        # hidden units (100 rows: 16 rounds)
        from pushdp import engine
        from pushdp import rng as rngmod

        blobs = dict(kind="blobs", test_fraction=0.2, alpha_conc=1.0)
        shapes = {
            "ring8": (make_config(T=90), [(0, 85), (85, 90)], [85, 5]),
            "expo256": (make_config(n=256, T=70, algorithm="sdlr",
                                    topology=TopologySchedule(kind="exponential-periodic",
                                                              n=256, J=1),
                                    data=DataSpec(n_samples=3200, **blobs)),
                        [(t, t + 6) for t in range(0, 60, 6)] + [(60, 64), (64, 70)],
                        [6] * 10 + [4, 6]),
            "mlp8": (make_config(T=12, algorithm="sdlr", sigma_override=0.1,
                                 model=ModelSpec(kind="mlp", features=20, hidden=64, classes=3),
                                 data=DataSpec(n_samples=3000, **blobs)),
                     [(0, 6), (6, 12)], [1] * 12),
            "test-split": (make_config(T=20, data=DataSpec(n_samples=1250, kind="blobs",
                                                           test_fraction=0.8, alpha_conc=1.0)),
                           [(0, 20)], [16, 4]),
            "classes": (make_config(T=20, model=ModelSpec(kind="mlp", features=10, hidden=3,
                                                          classes=10),
                                    data=DataSpec(n_samples=100, kind="blobs",
                                                  test_fraction=0.0, alpha_conc=1.0)),
                        [(0, 20)], [16, 4]),
        }
        for name, (cfg, chunks, observed) in shapes.items():
            seen, stacked = [], []
            real_chunk, real_observe = rngmod.Streams.chunk, engine._observe
            with monkeypatch.context() as patch:
                patch.setattr(rngmod.Streams, "chunk", lambda streams, t, width: (
                    seen.append(real_chunk(streams, t, width)), seen[-1])[1])
                patch.setattr(engine, "_observe", lambda *args: (
                    stacked.append(len(args[4])), real_observe(*args))[1])
                run(cfg, master_seed=0)
            assert (seen, stacked) == (chunks, observed), name
        assert rngmod.Streams(0, rngmod.BATCH, 8, horizon=400).chunk(0, 192) == (0, 85)

    def test_mlp_observables_take_one_round_plane(self, monkeypatch):
        # mlp8's shape: 2,400 training rows x 64 hidden is one 1.2 MB plane,
        # so the chunk is one round and its pass makes that one plane
        import tracemalloc

        from pushdp import engine

        cfg = make_config(T=3, algorithm="sdlr", sigma_override=0.1,
                          model=ModelSpec(kind="mlp", features=20, hidden=64, classes=3),
                          data=DataSpec(kind="blobs", n_samples=3000, test_fraction=0.2))
        plane = 2400 * 64 * 8
        peaks, real = [], engine._observe

        def traced(*args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            records = real(*args)
            peaks.append((tracemalloc.get_traced_memory()[1] - before) / plane)
            return records

        monkeypatch.setattr(engine, "_observe", traced)
        tracemalloc.start()
        try:
            run(cfg, master_seed=0)
        finally:
            tracemalloc.stop()
        assert len(peaks) == cfg.T
        assert max(peaks) <= 1.2

    def test_wide_states_bound_the_observed_rounds(self, monkeypatch):
        # 2,000 features: each kept round's X, Z and full gradients are
        # 8 x 2,001 doubles, wider than its 192-row loss-pass plane, so one
        # round is observed at a time, under the default plan (85-round
        # chunks) as under a one-round plan, with the same records
        from pushdp import engine

        cfg = make_config(T=170, model=ModelSpec(kind="logistic", features=2000, l2=0.01))
        stacked, records, real = [], [], engine._observe
        for rounds in (None, 1):
            with monkeypatch.context() as patch:
                if rounds:
                    fixed_plan(patch, rounds)
                patch.setattr(engine, "_observe", lambda *args: (
                    stacked.append(len(args[4])), real(*args))[1])
                records.append([r.as_dict() for r in run(cfg, master_seed=0).records])
        assert stacked == [1] * 2 * cfg.T
        assert records[0] == records[1]


class TestEmpiricalDTau:
    """empirical_d_tau against a brute-force oracle over every round's clipped
    rows, captured at engine.clip: the largest squared distance between an
    occupied node's row now and at any earlier round of the same interval."""

    T = 30
    CASES = {
        "sdlr": dict(algorithm="sdlr"),
        "adp-vrsgp": dict(algorithm="adp-vrsgp"),
        # one interval of all T rounds, far past tau = 5
        "stepwise-s0": dict(noise=NoiseSchedule(form="stepwise", T=T, s=0.0, tau=5)),
        # every round starts an interval
        "power": dict(noise=NoiseSchedule(form="power", T=T, s=0.5, K=2.0)),
    }

    def test_constant_noise_makes_a_bounded_number_of_calls_a_round(self, monkeypatch):
        # power s = 0 injects one alpha all run, one interval of T rounds: its
        # drift takes no call per earlier round of it
        from pushdp import engine

        calls = []
        for name in ("sq_deviations", "alpha_at"):
            real = getattr(engine, name)
            monkeypatch.setattr(engine, name, lambda *args, real=real: (
                calls.append(real), real(*args))[1])
        for T in (20, 80):
            cfg = make_config(T=T, noise=NoiseSchedule(form="power", T=T, s=0.0, K=1.0))
            calls.clear()
            result = run(cfg, master_seed=0)
            assert result.records[-1].empirical_d_tau > 0
            assert len(calls) <= 3 * T

    @staticmethod
    def brute_drifts(rows, lags):
        """Round r of the last len(lags) rows against each of its lags[r]
        earlier rows, one pair at a time; np.max keeps a NaN."""
        p = len(rows) - len(lags)
        return [max((np.add.reduce((rows[p + r] - rows[p + r - j]) ** 2, axis=1).max()
                     for j in range(1, lag + 1)), default=0.0) for r, lag in enumerate(lags)]

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_blocks_of_earlier_rounds_give_the_whole_max(self, block, monkeypatch):
        # differences of 1, 2, 3 and 7 rounds: one round against its 7
        # earlier rounds (3 leaves a last block of one), and a chunk of 5
        # rounds whose first two close an interval opened 3 rows before the
        # chunk; a NaN in the first or the last earlier round propagates, as
        # np.max over all rounds did, and one before the chunk crosses its
        # edge into the open interval's rounds only
        from pushdp import engine
        from pushdp import rng as rngmod

        gen = np.random.default_rng(block)
        active, earlier = gen.normal(size=(4, 3)), gen.normal(size=(7, 4, 3))
        monkeypatch.setattr(rngmod, "CHUNK_BYTES", block * 8 * active.size)
        rows = np.concatenate([earlier, active[None]])
        assert engine._drifts(rows, [7]).tolist() == [
            np.add.reduce((active - earlier) ** 2, axis=2).max()]
        for at in ((0, 1, 2), (6, 3, 0)):
            nan = rows.copy()
            nan[at] = np.nan
            assert np.isnan(engine._drifts(nan, [7])).all()
        rows, lags = gen.normal(size=(9, 4, 3)), [3, 4, 0, 1, 2]
        assert engine._drifts(rows, lags).tolist() == self.brute_drifts(rows, lags)
        for at, crossed in ((1, [True, True, False, False, False]), (0, [False] * 5)):
            nan = rows.copy()
            nan[at, 1, 2] = np.nan  # row 1 opens the interval; row 0 is before it
            assert np.isnan(engine._drifts(nan, lags)).tolist() == crossed

    def test_drift_step_memory_is_bounded_in_one_long_interval(self, monkeypatch):
        # power s = 0: one interval of all T rounds at mlp8's (8, 1539) rows,
        # in chunks of one round.  Each chunk's step reads the interval's
        # rows as one view and takes differences of at most CHUNK_BYTES, not
        # a (j, 8, 1539) difference at the j-th round
        import tracemalloc

        from pushdp import engine
        from pushdp import rng as rngmod

        T = 30
        cfg = make_config(T=T, algorithm="sdlr", sigma_override=0.1,
                          noise=NoiseSchedule(form="power", T=T, s=0.0, K=1.0),
                          model=ModelSpec(kind="mlp", features=20, hidden=64, classes=3),
                          data=DataSpec(kind="blobs", n_samples=160, alpha_conc=100.0))
        steps, real = [], engine._drifts

        def traced(rows, lags):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = real(rows, lags)
            steps.append((rows.shape, lags, tracemalloc.get_traced_memory()[1] - before))
            return out

        monkeypatch.setattr(engine, "_drifts", traced)
        tracemalloc.start()
        try:
            result = run(cfg, master_seed=0)
        finally:
            tracemalloc.stop()
        assert [(shape, lags) for shape, lags, _ in steps] == [
            ((t + 1, 8, 1539), (t,)) for t in range(T)]
        assert result.records[-1].empirical_d_tau > 0
        assert max(peak for _, _, peak in steps) <= 2.5 * rngmod.CHUNK_BYTES

    @pytest.mark.parametrize("case, chunk", [
        pytest.param(case, chunk, id=case if chunk is None else f"{case}-chunk{chunk}")
        for case in CASES for chunk in (None, 1, 3, 7)])
    def test_matches_brute_force(self, case, chunk, monkeypatch):
        # the default chunk holds all T rounds; chunks of 1, 3 and 7 rounds
        # (CHUNK_BYTES over 8 bytes of the 192 training rows) end inside
        # the 5-round intervals and the stepwise-s0 interval of all T rounds
        from pushdp import engine
        from pushdp import rng as rngmod

        cfg = make_config(T=self.T, **self.CASES[case])
        if chunk:
            monkeypatch.setattr(rngmod, "CHUNK_BYTES", chunk * 8 * 192)
            assert rngmod.Streams(3, rngmod.BATCH, cfg.n, horizon=cfg.T).chunk(0, 192) == (0, chunk)
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
