"""tools/ab.py on a tiny config: two copies of this checkout's pushdp,
imported side by side as packages of their own."""

import importlib.util
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

# ring8's config cut to 6 rounds
TINY = ab.WORKLOADS["ring8-vrsgp"].config_text.replace("T = 400", "T = 6")


def test_two_trees_alternate_in_one_process(tmp_path):
    # the base tree is a copy of this checkout's src/; each side runs the
    # seeds under its own package name, and the sides agree bit for bit
    assert "T = 6" in TINY
    shutil.copytree(ab.ROOT / "src" / "pushdp", tmp_path / "base" / "src" / "pushdp")
    packages = {"base": ab.load_package(tmp_path / "base", "pushdp_ab_base"),
                "change": ab.load_package(ab.ROOT, "pushdp_ab_change")}
    assert packages["base"].engine.__file__.startswith(str(tmp_path))
    assert packages["change"].engine.__name__ == "pushdp_ab_change.engine"
    config = tmp_path / "tiny.ini"
    config.write_text(TINY)
    times = ab.alternate(packages, config, [0, 1], 3)
    assert len(times["base"]) == len(times["change"]) == 3
    assert times["identical"] and times["node_rounds"] == 8 * 6 * 2
    lines = ab.summary_lines(times)
    assert lines[0].startswith("base: median ") and lines[1].startswith("change: median ")
    assert lines[2].startswith("paired median ratio (change time / base time): ")
    assert lines[2].endswith("/3")
    assert lines[3] == "records, summaries and partitions identical: yes"


@pytest.mark.parametrize("edit, code, verdict", [
    pytest.param(None, 0, "yes", id="same"),
    pytest.param(('"n_samples": sum(counts)', '"n_samples": sum(counts) + 1'), 1, "NO",
                 id="partition-differs")])
def test_a_bit_difference_in_the_warm_up_exits_one(tmp_path, monkeypatch, capsys, edit, code,
                                                   verdict):
    # the base side is a copy of this checkout's src/, whose partition
    # report may count one sample more: its records and summaries still agree
    def export(rev, dest):
        package = Path(dest) / "src" / "pushdp"
        shutil.copytree(ab.ROOT / "src" / "pushdp", package)
        if edit is not None:
            text = (package / "models.py").read_text()
            assert edit[0] in text
            (package / "models.py").write_text(text.replace(*edit))
        return Path(dest)

    monkeypatch.setattr(ab, "export", export)
    monkeypatch.setattr(ab, "WORKLOADS", {"tiny": SimpleNamespace(
        config_text=TINY, timed_seeds=lambda seed: [seed, seed + 1])})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    assert ab.main(["--base", "HEAD", "--workload", "tiny", "--alternations", "1"]) == code
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"records, summaries and partitions identical: {verdict}")
