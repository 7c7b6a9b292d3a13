"""tools/ab.py on a tiny config: two copies of this checkout's pushdp,
imported side by side as packages of their own."""

import importlib.util
import shutil
from pathlib import Path

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
    assert lines[2].endswith("/3") and lines[3] == "records and summaries identical: yes"
