import json
import os
import re
from pathlib import Path
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from pushdp.cli import main
from pushdp.config import load_config, parse_sections, to_sections
from pushdp.errors import ConfigurationError

BASE_CONFIG = """
[run]
algorithm = adp-vrsgp
n = 8
T = 30
master_seed = 3

[topology]
kind = static-ring
k = 2

[noise]
form = stepwise
s = 0.2
tau = 5
a1 = 1.0
a2 = 10.0

[lr]
eta = 1.0
xi = 0.5

[clip]
g0 = 0.1
psi = 0.99

[fusion]
theta = 0.5
tau = 5

[privacy]
epsilon = 1.0
delta = 1e-5
sampling_ratio = 0.5

[model]
kind = logistic
features = 4
l2 = 0.01

[data]
kind = blobs
n_samples = 160
test_fraction = 0.25
alpha_conc = 1.0
"""


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.ini"))


def write_config(tmp_path, text=BASE_CONFIG, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_load_and_fields(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.run.algorithm == "adp-vrsgp" and cfg.n == 8 and cfg.T == 30
        assert cfg.noise.tau == 5 and to_sections(cfg)["fusion"]["tau"] == "5"
        assert cfg.budgets[0].epsilon == 1.0 and len(cfg.budgets) == 8
        assert cfg.lr.eta == 1.0

    def test_missing_key_path_in_message(self, tmp_path):
        broken = BASE_CONFIG.replace("kind = static-ring", "")
        with pytest.raises(ConfigurationError, match="topology.kind"):
            load_config(write_config(tmp_path, broken))

    def test_tau_mismatch_names_both_keys(self, tmp_path):
        broken = BASE_CONFIG.replace("theta = 0.5\ntau = 5", "theta = 0.5\ntau = 4")
        with pytest.raises(ConfigurationError, match="fusion.tau") as err:
            load_config(write_config(tmp_path, broken))
        assert "noise.tau" in str(err.value)

    def test_per_node_epsilon_list(self, tmp_path):
        text = BASE_CONFIG.replace(
            "epsilon = 1.0", "epsilon = 1,1,1,1,2,2,2,2"
        )
        cfg = load_config(write_config(tmp_path, text))
        assert [b.epsilon for b in cfg.budgets] == [1, 1, 1, 1, 2, 2, 2, 2]

    def test_wrong_list_length(self, tmp_path):
        text = BASE_CONFIG.replace("epsilon = 1.0", "epsilon = 1,2,3")
        with pytest.raises(ConfigurationError, match="privacy.epsilon"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("sigma", ["-0.1", "nan"])
    def test_sigma_override_must_be_non_negative(self, tmp_path, sigma):
        text = BASE_CONFIG.replace("sampling_ratio = 0.5", f"sampling_ratio = 0.5\nsigma = {sigma}")
        with pytest.raises(ConfigurationError, match="privacy.sigma"):
            load_config(write_config(tmp_path, text))

    def test_config_is_frozen(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        with pytest.raises(FrozenInstanceError):
            cfg.n = 4

    def test_eta_from_exponent(self, tmp_path):
        text = BASE_CONFIG.replace("eta = 1.0", "K = 2.0\np = 0.1")
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.lr.eta == pytest.approx(2.0 * np.sqrt(8) / 30**0.1)
        assert cfg.lr.p == 0.1 and cfg.lr.K == 2.0

    def test_round_trip_equality(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert parse_sections(to_sections(cfg)) == cfg

    def test_round_trip_with_exponent_and_lists(self, tmp_path):
        text = BASE_CONFIG.replace("eta = 1.0", "K = 2.0\np = 0.1").replace(
            "epsilon = 1.0", "epsilon = 1,1,1,1,2,2,2,2"
        )
        cfg = load_config(write_config(tmp_path, text))
        assert parse_sections(to_sections(cfg)) == cfg

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_loads_and_round_trips(self, path):
        cfg = load_config(str(path))
        assert parse_sections(to_sections(cfg)) == cfg

    def test_fusion_theta_defaults_to_zero(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE_CONFIG.replace("theta = 0.5\n", "")))
        assert cfg.fusion.theta == 0.0

    def test_missing_required_spec_key(self, tmp_path):
        text = BASE_CONFIG.replace("g0 = 0.1\n", "")
        with pytest.raises(ConfigurationError, match=r"^clip\.g0: required key missing$"):
            load_config(write_config(tmp_path, text))

    def test_readme_config_block_lists_exactly_the_parsed_keys(self, monkeypatch):
        from pushdp import config

        asked = set()
        reject_unknown = config._Reader.reject_unknown

        def record(reader):
            asked.update(reader.asked)
            reject_unknown(reader)

        monkeypatch.setattr(config._Reader, "reject_unknown", record)
        load_config(str(SHIPPED_CONFIGS[0]))

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Config format")[1].split("```ini\n")[1].split("```")[0]
        documented, section = set(), None
        for line in block.splitlines():
            if line.startswith("["):
                section, line = line[1:].split("]", 1)
            for part in re.sub(r"\(.*?\)", "", line).split(";"):
                if part.strip():
                    documented.add((section, re.match(r"\w+", part.strip()).group().lower()))
        assert documented == asked

    def test_unparseable_spec_value(self, tmp_path):
        text = BASE_CONFIG.replace("l2 = 0.01", "l2 = 0.01\nhidden = x")
        with pytest.raises(ConfigurationError, match=r"^model\.hidden: cannot parse 'x' as int$"):
            load_config(write_config(tmp_path, text))


class TestCliRun:
    def test_run_writes_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--config", cfg_path, "--seeds", "1,2", "--out", str(out)])
        assert code == 0
        for seed in (1, 2):
            metrics = out / f"seed_{seed}_metrics.jsonl"
            lines = metrics.read_text().strip().splitlines()
            assert len(lines) == 30
            row = json.loads(lines[0])
            assert set(row) == {
                "t", "mean_sq_grad_norm", "consensus_error", "train_loss",
                "test_accuracy", "current_g", "alpha_injected", "eta_t",
                "clip_residual_mean", "empirical_d_tau",
            }
            summary = json.loads((out / f"seed_{seed}_summary.json").read_text())
            assert summary["master_seed"] == seed
            assert (out / f"seed_{seed}_partition.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [1, 2]
        assert manifest["stream_version"] == 1

    def test_summary_config_echo_reparses(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--seeds", "1", "--out", str(out)]) == 0
        summary = json.loads((out / "seed_1_summary.json").read_text())
        parsed = parse_sections(summary["config"])
        assert parsed == load_config(cfg_path)

    def test_explicit_list_echo_reparses_from_another_directory(self, tmp_path, monkeypatch):
        # the echo names the edge file resolved against the config's directory
        (tmp_path / "edges.txt").write_text("0<1 1<2 2<3 3<4 4<5 5<6 6<7 7<0\n")
        text = BASE_CONFIG.replace(
            "kind = static-ring\nk = 2", "kind = explicit-list\npath = edges.txt"
        )
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--seeds", "1", "--out", str(out)]) == 0
        summary = json.loads((out / "seed_1_summary.json").read_text())
        assert summary["config"]["topology"]["path"] == str(tmp_path / "edges.txt")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert parse_sections(summary["config"]) == load_config(cfg_path)

    def test_overwrite_needs_force(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--seeds", "1", "--out", str(out)]) == 0
        assert main(["run", "--config", cfg_path, "--seeds", "1", "--out", str(out)]) == 1
        assert "would overwrite" in capsys.readouterr().err
        assert main(["run", "--config", cfg_path, "--seeds", "1", "--out", str(out), "--force"]) == 0

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        broken = BASE_CONFIG.replace("theta = 0.5\ntau = 5", "theta = 0.5\ntau = 4")
        code = main(["run", "--config", write_config(tmp_path, broken), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "fusion.tau" in err and "noise.tau" in err

    @pytest.mark.parametrize("token", ["1<9", "-1<2"])
    def test_out_of_range_edge_token_is_config_error(self, tmp_path, capsys, token):
        (tmp_path / "edges.txt").write_text(f"0<1 1<2\n2<3 {token}\n")
        text = BASE_CONFIG.replace(
            "kind = static-ring\nk = 2", "kind = explicit-list\npath = edges.txt"
        )
        code = main(["run", "--config", write_config(tmp_path, text), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"edges.txt:2: edge token '{token}'" in err

    @pytest.mark.parametrize("old, new, key", [
        ("kind = static-ring\nk = 2", "kind = explicit-list\npath = nope.txt", "topology.path"),
        ("kind = blobs", "kind = csv\npath = nope.csv", "data.path"),
    ], ids=["edge-list", "csv"])
    def test_missing_data_file_is_config_error(self, tmp_path, capsys, old, new, key):
        code = main(["run", "--config", write_config(tmp_path, BASE_CONFIG.replace(old, new)),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        missing = tmp_path / new.rsplit(" = ", 1)[1]
        assert capsys.readouterr().err == f"config error: {key}: no such file {missing}\n"

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.ini"
        assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"config error: config file not found: {missing}\n"

    @pytest.mark.parametrize("old, new, message", [
        ("n_samples = 160", "n_samples = 0", "data.n_samples: must be >= 1, got 0"),
        ("master_seed = 3", "master_seed = -1", "run.master_seed: must be >= 0, got -1"),
        ("kind = logistic", "kind = mlp\nclasses = 0", "model.classes: must be >= 1, got 0"),
        ("k = 2", "k = 2\nJ = 0", "topology.J: must be >= 1, got 0"),
        ("k = 2", "k = 8", "topology.k: static-ring needs 1 <= k < n, got k=8, n=8"),
        ("algorithm = adp-vrsgp", "algorithm = sgd",
         "run.algorithm: must be one of ('sdlr', 'adp-vrsgp'), got 'sgd'"),
        ("n = 8", "n = 1", "run.n: need at least 2 nodes, got 1"),
        ("T = 30", "T = 0", "run.T: must be >= 1, got 0"),
        ("master_seed = 3", "master_seed = 3\ntheory = maybe",
         "run.theory: cannot parse 'maybe' as bool"),
        ("kind = static-ring", "kind = torus", "topology.kind: unknown kind 'torus'"),
        ("kind = static-ring\nk = 2", "kind = explicit-list",
         "topology.path: required for explicit-list"),
        ("form = stepwise", "form = cosine", "noise.form: unknown form 'cosine'"),
        ("s = 0.2\ntau = 5", "s = 0.2\ntau = 0", "noise.tau: must be >= 1, got 0"),
        ("form = stepwise", "form = power\nK = 0", "noise.K: must be > 0, got 0.0"),
        ("a1 = 1.0", "a1 = 0", "noise.a1, noise.a2: stepwise form needs a1 > 0 and a2 > 0"),
        ("eta = 1.0", "eta = 0", "lr.eta: must be > 0, got 0.0"),
        ("xi = 0.5", "xi = 1", "lr.xi: must lie in (0,1), got 1.0"),
        ("eta = 1.0\n", "", "lr: give either lr.eta or both lr.K and lr.p"),
        ("g0 = 0.1", "g0 = 0", "clip.g0: must be finite and > 0, got 0.0"),
        ("g0 = 0.1", "g0 = inf", "clip.g0: must be finite and > 0, got inf"),
        ("psi = 0.99", "psi = 1.5", "clip.psi: must lie in (0,1], got 1.5"),
        ("theta = 0.5", "theta = 1", "fusion.theta: must lie in [0,1), got 1.0"),
        ("epsilon = 1.0", "epsilon = 0", "privacy.epsilon: must be > 0, got 0.0"),
        ("delta = 1e-5", "delta = 1", "privacy.delta: must lie in (0,1), got 1.0"),
        ("sampling_ratio = 0.5", "sampling_ratio = 0",
         "privacy.sampling_ratio: must lie in (0,1], got 0.0"),
        ("sampling_ratio = 0.5", "sampling_ratio = 0.5\nc2 = 0",
         "privacy.c1, privacy.c2: must be > 0"),
        ("epsilon = 1.0\n", "", "privacy.epsilon: required key missing"),
        ("delta = 1e-5", "delta = 1e-5,x", "privacy.delta: cannot parse '1e-5,x'"),
        ("kind = logistic", "kind = svm", "model.kind: unknown kind 'svm'"),
        ("features = 4", "features = 0", "model.features: must be >= 1, got 0"),
        ("kind = blobs", "kind = images", "data.kind: unknown kind 'images'"),
        ("kind = blobs", "kind = csv", "data.path: required when data.kind = csv"),
        ("alpha_conc = 1.0", "alpha_conc = 0", "data.alpha_conc: must be > 0, got 0.0"),
    ])
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys, old, new, message):
        text = BASE_CONFIG.replace(old, new)
        code = main(["run", "--config", write_config(tmp_path, text), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("section, line, message", [
        ("run", "master_sead = 1", "run.master_sead: unknown key"),
        ("topology", "kapa = 2", "topology.kapa: unknown key"),
        ("topology", "kappa = 4", "topology.kappa: unknown key"),  # measured, never set
        ("noise", "tua = 5", "noise.tua: unknown key"),
        ("lr", "xii = 0.5", "lr.xii: unknown key"),
        ("clip", "pis = 0.5", "clip.pis: unknown key"),
        ("fusion", "theeta = 0.5", "fusion.theeta: unknown key"),
        ("privacy", "sampling_rate = 0.5", "privacy.sampling_rate: unknown key"),
        ("model", "hiden = 8", "model.hiden: unknown key"),
        ("data", "n_sample = 100", "data.n_sample: unknown key"),
        ("fussion", "theta = 0.5", "[fussion]: unknown section"),
    ])
    def test_unknown_section_or_key_is_config_error(self, tmp_path, capsys, section, line, message):
        header = f"[{section}]\n"
        if header in BASE_CONFIG:
            text = BASE_CONFIG.replace(header, header + line + "\n")
        else:
            text = BASE_CONFIG + header + line + "\n"
        code = main(["run", "--config", write_config(tmp_path, text), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_test_split_leaving_no_training_sample_is_rejected(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("test_fraction = 0.25", "test_fraction = 0.999")
        code = main(["run", "--config", write_config(tmp_path, text), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            "run failed (seed 3): data.test_fraction: 0.999 leaves no training sample out of 160\n"
        )

    def test_test_split_leaving_no_test_sample_is_rejected(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("test_fraction = 0.25", "test_fraction = 0.001")
        code = main(["run", "--config", write_config(tmp_path, text), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            "run failed (seed 3): data.test_fraction: 0.001 leaves no test sample out of 160\n"
        )

    @pytest.mark.parametrize("seeds", ["-3", "1,x", "", ","])
    def test_bad_seed_list_is_usage_error(self, tmp_path, capsys, seeds):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", write_config(tmp_path), "--seeds", seeds,
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            "pushdp run: error: argument --seeds: expected a comma list of "
            f"non-negative integers, got {seeds!r}"
        )
        assert not (tmp_path / "o").exists()

    def test_failed_summary_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        from pushdp import cli

        real_run = cli.engine.run

        def run_with_unserializable_summary(config, master_seed=None):
            result = real_run(config, master_seed=master_seed)
            result.summary["unserializable"] = object()
            return result

        monkeypatch.setattr(cli.engine, "run", run_with_unserializable_summary)
        out = tmp_path / "out"
        with pytest.raises(TypeError):
            main(["run", "--config", write_config(tmp_path), "--seeds", "1", "--out", str(out)])
        assert os.listdir(out) == ["seed_1_metrics.jsonl"]
        lines = (out / "seed_1_metrics.jsonl").read_text().splitlines()
        assert [json.loads(line)["t"] for line in lines] == list(range(30))

    @pytest.mark.parametrize("name", ["seed_1_metrics.jsonl", "seed_1_summary.json"])
    def test_failed_rewrite_keeps_the_old_file(self, tmp_path, monkeypatch, name):
        from pushdp import cli

        cfg_path, out = write_config(tmp_path), tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--seeds", "1", "--out", str(out)]) == 0
        before = (out / name).read_bytes()
        real_run = cli.engine.run

        def run_failing_partway(config, master_seed=None):
            # encoding the file raises partway through its records or summary
            result = real_run(config, master_seed=master_seed)
            if name.endswith(".jsonl"):
                result.records[10].train_loss = object()
            else:
                result.summary["unserializable"] = object()
            return result

        monkeypatch.setattr(cli.engine, "run", run_failing_partway)
        with pytest.raises(TypeError):
            main(["run", "--config", cfg_path, "--seeds", "1", "--out", str(out), "--force"])
        assert (out / name).read_bytes() == before
        assert not [f for f in os.listdir(out) if f.endswith(".tmp")]

    def test_metrics_jsonl_is_strict_json(self, tmp_path, monkeypatch):
        from pushdp import cli

        real_run = cli.engine.run

        def run_with_inf(config, master_seed=None):
            result = real_run(config, master_seed=master_seed)
            result.records[0].train_loss = float("inf")
            return result

        monkeypatch.setattr(cli.engine, "run", run_with_inf)
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path), "--seeds", "1", "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        lines = (out / "seed_1_metrics.jsonl").read_text().splitlines()
        rows = [json.loads(line, parse_constant=reject) for line in lines]
        assert rows[0]["train_loss"] == "inf" and len(rows) == 30

    def test_atomic_open_keeps_the_old_file_when_a_write_fails(self, tmp_path):
        from pushdp import cli

        path = tmp_path / "f.json"
        path.write_text("old\n")
        with pytest.raises(OSError):
            with cli._atomic_open(str(path)) as fh:
                fh.write("half")
                raise OSError("disk full")
        assert path.read_text() == "old\n" and os.listdir(tmp_path) == ["f.json"]

    def test_writers_make_the_bytes_of_the_chunked_writers_in_one_write(self, tmp_path,
                                                                       monkeypatch):
        # the old writers: json.dump, and two writes a metrics record; a
        # non-finite value in a record and in the summary goes out as a string
        import contextlib
        import io

        from pushdp import cli, engine

        result = engine.run(load_config(write_config(tmp_path)), master_seed=2)
        result.records[3].train_loss = float("nan")
        result.summary["final_train_loss"] = float("-inf")

        def old_json(payload):
            fh = io.StringIO()
            json.dump(cli._sanitize(payload), fh, indent=2)
            fh.write("\n")
            return fh.getvalue()

        def old_metrics(records):
            fh, encode = io.StringIO(), json.JSONEncoder(allow_nan=False).encode
            for record in records:
                record = record.as_dict()
                try:
                    line = encode(record)
                except ValueError:
                    line = encode(cli._sanitize(record))
                fh.write(line)
                fh.write("\n")
            return fh.getvalue()

        class Recording(io.StringIO):
            def write(self, text):
                calls.append(len(text))
                return super().write(text)

        @contextlib.contextmanager
        def recording_open(path):
            fh = Recording()
            yield fh
            writes.append(fh.getvalue())

        writes, calls = [], []
        monkeypatch.setattr(cli, "_atomic_open", recording_open)
        cli._write_metrics("m", result.records)
        cli._write_json("s", result.summary)
        cli._write_json("p", result.partition)
        assert len(calls) == 3
        assert writes == [old_metrics(result.records), old_json(result.summary),
                          old_json(result.partition)]
        assert '"train_loss": "nan"' in writes[0] and '"-inf"' in writes[1]

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path)
        target = tmp_path / "env_out"
        monkeypatch.setenv("PUSHDP_OUT", str(target))
        assert main(["run", "--config", cfg_path, "--seeds", "4"]) == 0
        assert (target / "seed_4_summary.json").exists()


class TestCliVerify:
    def test_schedules_suite_passes(self, capsys):
        assert main(["verify", "schedules"]) == 0
        out = capsys.readouterr().out
        assert "beta-sum dominance" in out and "[pass]" in out

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2

    def test_noise_factor_small_trials(self, capsys):
        assert main(["verify", "noise-factor", "--trials", "50000"]) == 0
        assert "fused-noise" in capsys.readouterr().out

    @pytest.mark.parametrize("suite", ["consensus", "streams"])
    def test_trials_on_another_suite_is_usage_error(self, capsys, suite):
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--trials", "5"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"pushdp: error: verify {suite}: --trials applies to noise-factor and all only"
        )

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_is_usage_error(self, capsys, trials):
        # past the parser, the suite would report either as one failing check
        with pytest.raises(SystemExit) as exc:
            main(["verify", "noise-factor", "--trials", trials])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"pushdp verify: error: argument --trials: need at least 1 trial, got {trials}"
        )

    def test_all_passes_trials_to_noise_factor_only(self, monkeypatch, capsys):
        import pushdp.verify as verify
        from pushdp.verify import CheckResult

        seen = {}

        def recorder(name):
            def suite(**kwargs):
                seen[name] = kwargs
                return [CheckResult(name, True, 1.0, 1.0)]
            return suite

        monkeypatch.setattr(verify, "SUITES", {s: recorder(s) for s in ("noise-factor", "consensus")})
        assert main(["verify", "all", "--trials", "7"]) == 0
        assert seen == {"noise-factor": {"trials": 7}, "consensus": {}}

    def test_zero_trials_fail_the_noise_factor_suite(self):
        from pushdp.verify import run_suite

        results = run_suite("noise-factor", trials=0)
        assert len(results) == 1 and not results[0].passed
        assert results[0].name == "suite noise-factor raised"
        assert results[0].detail.startswith("ValueError: trials must be >= 1, got 0")

    def test_connectivity_suite_passes(self, capsys):
        assert main(["verify", "connectivity"]) == 0
        assert "window diameter vs Floyd-Warshall" in capsys.readouterr().out

    def test_streams_suite_passes(self, capsys):
        assert main(["verify", "streams"]) == 0
        out = capsys.readouterr().out
        assert out.count("Streams.at vs rng.stream") == 6  # 1-3-word seeds, BATCH and NOISE
        assert "Streams.bulk (random)" in out and "Streams.bulk (standard_normal)" in out
        assert "RoundDraws chunk rows" in out

    def test_all_aggregates_and_fails_on_any_red(self, monkeypatch, capsys):
        import pushdp.verify as verify
        from pushdp.verify import CheckResult

        ok = lambda: [CheckResult("stub-ok", True, 1.0, 1.0)]
        bad = lambda: [CheckResult("stub-bad", False, 0.0, 1.0)]
        monkeypatch.setattr(verify, "SUITES", {"a": ok, "b": ok})
        assert main(["verify", "all"]) == 0
        assert "2/2 checks passed" in capsys.readouterr().out
        monkeypatch.setattr(verify, "SUITES", {"a": ok, "b": bad})
        assert main(["verify", "all"]) == 1
        assert "[FAIL] stub-bad" in capsys.readouterr().out

    def test_raising_suite_fails_and_the_next_one_runs(self, monkeypatch, capsys):
        import pushdp.verify as verify
        from pushdp.verify import CheckResult

        def broken():
            raise RuntimeError("self-check failed")

        ok = lambda: [CheckResult("stub-ok", True, 1.0, 1.0)]
        monkeypatch.setattr(verify, "SUITES", {"a": broken, "b": ok})
        assert main(["verify", "all"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("[FAIL] suite a raised")
        assert "RuntimeError: self-check failed" in lines[0] and "(in broken, line " in lines[0]
        assert lines[1:] == ["[pass] stub-ok: measured=1 expected=1 ", "1/2 checks passed"]
        [alone] = verify.run_suite("a")
        assert not alone.passed and alone.name == "suite a raised"


class TestCliCalc:
    def test_tau_reports_discrepancy(self, capsys):
        assert main(["calc", "tau", "--theta", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tau"] == 5
        assert payload["paper_reported"] == 6

    def test_sigma_worked_example(self, capsys):
        code = main([
            "calc", "sigma", "--form", "power", "--s", "0.0", "--T", "1000",
            "--epsilon", "2", "--delta", "1e-5", "--ratio", "0.01",
            "--c1", "25", "--g", "0.1",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["sigma"] - 0.05364) < 1e-5

    def test_sigma_regime_error_exits_one(self, capsys):
        code = main([
            "calc", "sigma", "--form", "power", "--s", "0.0", "--T", "1000",
            "--epsilon", "2", "--delta", "1e-5", "--ratio", "0.01",
        ])
        assert code == 1
        assert "c1" in capsys.readouterr().err

    def test_bound_h_takes_tau(self, capsys):
        from pushdp.fusion import noise_factor

        code = main(["calc", "bound", "--n", "4", "--eta", "1", "--theta", "0.5", "--tau", "3"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["h"] == noise_factor(0.5, 3)

    def test_regime_label(self, capsys):
        code = main([
            "calc", "regime", "--p", "0", "--n", "8", "--T", "1000", "--s", "0.25",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regime"] == "(log T)^2 / sqrt(nT)"

    def test_mint_terms(self, capsys):
        code = main([
            "calc", "minT", "--n", "1", "--p", "0.5", "--K", "1",
            "--L", "1", "--C", "1", "--q", "0",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["floor"] == 162

    @pytest.mark.parametrize("argv, code, message", [
        (["sigma", "--g", "0"], 1, "error: clip threshold must be > 0, got 0.0"),
        (["tau", "--theta", "1.5"], 1, "error: theta must lie in [0,1), got 1.5"),
        (["tau", "--theta", "0.5", "--tol", "0"], 1, "error: tol must be > 0, got 0.0"),
        (["minT", "--n", "4", "--p", "0.1", "--L", "-1"], 1, "error: L must be >= 0"),
        (["minT", "--n", "0", "--p", "0.5"], 2,
         "pushdp calc minT: error: argument --n: need at least 1 node, got 0"),
        (["bound", "--n", "0", "--eta", "1"], 2,
         "pushdp calc bound: error: argument --n: need at least 1 node, got 0"),
        (["regime", "--p", "0", "--n", "8", "--s", "0.5", "--T", "1"], 1,
         "error: s = 1/2 normalizes by log T, which needs T >= 2, got T = 1"),
        # a spec check's error names the flag, not the config key of its field
        (["sigma", "--epsilon", "0"], 1, "error: --epsilon: must be > 0, got 0.0"),
        (["sigma", "--T", "0"], 1, "error: --T: must be >= 1, got 0"),
        (["sigma", "--ratio", "2"], 1, "error: --ratio: must lie in (0,1], got 2.0"),
        (["bound", "--n", "4", "--eta", "0"], 1, "error: --eta: must be > 0, got 0.0"),
        (["bound", "--n", "4", "--eta", "1", "--a1", "0"], 1,
         "error: --a1, --a2: stepwise form needs a1 > 0 and a2 > 0"),
        # h takes --tau, as a config's fusion.tau must equal noise.tau
        (["bound", "--n", "4", "--eta", "1", "--fusion-tau", "3"], 2,
         "pushdp: error: unrecognized arguments: --fusion-tau 3"),
    ])
    def test_bad_input_is_an_error_line_not_a_traceback(self, capsys, argv, code, message):
        if code == 2:
            with pytest.raises(SystemExit) as exc:
                main(["calc", *argv])
            assert exc.value.code == 2
        else:
            assert main(["calc", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines()[-1] == message
        if code == 1:
            assert captured.err == message + "\n"

    def test_bound_runs(self, capsys):
        code = main([
            "calc", "bound", "--n", "4", "--eta", "1.0", "--T", "50",
            "--form", "power", "--s", "0.0", "--q", "0.5", "--F0", "1",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == pytest.approx(
            payload["fixed_term"] + payload["noise_term"] + payload["bias_term"]
        )


# Every calc flag: its dest, its default (given only the required flags) and
# the type its value parses to.  Pinned so that generating the flags from
# the dataclass fields cannot change a spelling, default or type.
SCHEDULE_FLAGS = {"form": "stepwise", "T": 1000, "s": 0.2, "tau": 5, "K": 1.0, "a1": 1.0, "a2": 10.0}
BUDGET_FLAGS = {"epsilon": 2.0, "delta": 1e-5, "ratio": 0.5, "c1": 1.0, "c2": 1.0, "g": 0.1}
THEORY_FLAGS = {"L": 1.0, "a_const": 0.0, "m_const": 0.0, "C": 1.0, "q": 0.0, "F0": 0.0, "d": 1,
                "x0_norm": 0.0}
CALC_DEFAULTS = [
    (["sigma"], {**SCHEDULE_FLAGS, **BUDGET_FLAGS}),
    (["tau", "--theta", "0.5"], {"theta": 0.5, "tol": 0.01}),
    (["minT", "--n", "4", "--p", "0.1"],
     {"n": 4, "p": 0.1, "K": 1.0, "s": None, **THEORY_FLAGS}),
    (["bound", "--n", "4", "--eta", "1.0"],
     {"n": 4, "eta": 1.0, "xi": 0.5, "theta": 0.0, "upsilon": 0.0,
      "rho": 0.0, **SCHEDULE_FLAGS, **BUDGET_FLAGS, **THEORY_FLAGS}),
    (["regime", "--p", "0.1", "--n", "4", "--s", "0.2"],
     {"p": 0.1, "n": 4, "T": 1000, "s": 0.2, "h": None, "theta": 0.5, "tau": 5, "a1": 1.0,
      "a2": 10.0, "a3": 5.0, **BUDGET_FLAGS, **THEORY_FLAGS}),
]

SCHEDULE_ARGV = ["--form", "power", "--T", "7", "--s", "3", "--tau", "3", "--K", "3",
                 "--a1", "3", "--a2", "3"]
BUDGET_ARGV = ["--epsilon", "3", "--delta", "3", "--ratio", "3", "--c1", "3", "--c2", "3",
               "--g", "3"]
THEORY_ARGV = ["--L", "3", "--a-const", "3", "--m-const", "3", "--C", "3", "--q", "3",
               "--F0", "3", "--d", "3", "--x0-norm", "3"]
SCHEDULE_GIVEN = {"form": "power", "T": 7, "s": 3.0, "tau": 3, "K": 3.0, "a1": 3.0, "a2": 3.0}
BUDGET_GIVEN = {"epsilon": 3.0, "delta": 3.0, "ratio": 3.0, "c1": 3.0, "c2": 3.0, "g": 3.0}
THEORY_GIVEN = {"L": 3.0, "a_const": 3.0, "m_const": 3.0, "C": 3.0, "q": 3.0, "F0": 3.0, "d": 3,
                "x0_norm": 3.0}
CALC_GIVEN = [
    (["sigma", *SCHEDULE_ARGV, *BUDGET_ARGV], {**SCHEDULE_GIVEN, **BUDGET_GIVEN}),
    (["tau", "--theta", "3", "--tol", "3"], {"theta": 3.0, "tol": 3.0}),
    (["minT", "--n", "3", "--p", "3", "--K", "3", "--s", "3", *THEORY_ARGV],
     {"n": 3, "p": 3.0, "K": 3.0, "s": 3.0, **THEORY_GIVEN}),
    (["bound", "--n", "3", "--eta", "3", "--xi", "3", "--theta", "3",
      "--upsilon", "3", "--rho", "3", *SCHEDULE_ARGV, *BUDGET_ARGV, *THEORY_ARGV],
     {"n": 3, "eta": 3.0, "xi": 3.0, "theta": 3.0, "upsilon": 3.0, "rho": 3.0,
      **SCHEDULE_GIVEN, **BUDGET_GIVEN, **THEORY_GIVEN}),
    (["regime", "--p", "3", "--n", "3", "--T", "7", "--s", "3", "--h", "3", "--theta", "3",
      "--tau", "3", "--a1", "3", "--a2", "3", "--a3", "3", *BUDGET_ARGV, *THEORY_ARGV],
     {"p": 3.0, "n": 3, "T": 7, "s": 3.0, "h": 3.0, "theta": 3.0, "tau": 3, "a1": 3.0, "a2": 3.0,
      "a3": 3.0, **BUDGET_GIVEN, **THEORY_GIVEN}),
]


def _typed(mapping):
    return {key: (value, type(value)) for key, value in mapping.items()}


class TestCalcFlags:
    @pytest.mark.parametrize("argv, flags", CALC_DEFAULTS + CALC_GIVEN,
                             ids=[f"{a[0]}-defaults" for a, _ in CALC_DEFAULTS]
                             + [f"{a[0]}-given" for a, _ in CALC_GIVEN])
    def test_flags_parse_to_the_pinned_namespace(self, argv, flags):
        from pushdp.cli import build_parser

        got = vars(build_parser().parse_args(["calc", *argv]))
        assert got.pop("func").__name__ == "cmd_calc"
        assert _typed(got) == _typed({"command": "calc", "sub": argv[0], **flags})
