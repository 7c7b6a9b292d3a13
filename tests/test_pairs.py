"""The summary arithmetic of tools/pairs.py on fixed numbers and trees."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_quartiles_interpolate_between_sorted_values():
    assert pairs.quartiles([13, 9, 11, 10, 12]) == (10, 11, 12)
    assert pairs.quartiles([4, 1, 2, 3]) == (1.75, 2.5, 3.25)
    assert pairs.quartiles([7]) == (7, 7, 7)


def test_summary_of_a_gain_that_holds():
    s = pairs.summarize([10, 12, 11, 13, 9], [14, 15, 13, 16, 12], "higher")
    assert s == {"base": (10, 11, 12), "change": (13, 14, 15), "wins": 5, "pairs": 5,
                 "iqr": 2, "gain": 3, "holds": True}


def test_lower_is_better_turns_the_sign():
    s = pairs.summarize([10, 12, 11, 13, 9], [14, 15, 13, 16, 12], "lower")
    assert (s["wins"], s["gain"], s["holds"]) == (0, -3, False)


def test_ties_count_for_neither_side():
    s = pairs.summarize([1.0, 2.0, 5.0], [1.0, 3.0, 4.0], "lower")
    assert (s["wins"], s["gain"]) == (1, -1.0)


@pytest.mark.parametrize("wins, holds", [(9, True), (8, False)])
def test_a_gain_needs_nine_tenths_of_the_pairs(wins, holds):
    base = [10.0] * 10
    change = [20.0] * wins + [5.0] * (10 - wins)
    s = pairs.summarize(base, change, "higher")
    assert (s["wins"], s["iqr"], s["holds"]) == (wins, 0.0, holds)


def test_a_gain_inside_the_base_spread_does_not_hold():
    s = pairs.summarize([8, 10, 12, 14, 16], [9, 11, 13, 15, 17], "higher")
    assert (s["wins"], s["gain"], s["iqr"], s["holds"]) == (5, 1, 4, False)


def test_mismatched_sides_are_an_error():
    with pytest.raises(ValueError):
        pairs.summarize([1.0, 2.0], [1.0], "higher")


def test_report_lines():
    result = lambda v: {"correct": True, "failed": 0, "metrics": {"run_s": {"value": v}}}
    runs = {"base": [result(v) for v in (2.0, 2.2, 2.1)],
            "change": [result(v) for v in (1.8, 1.9, 2.0)]}
    lines = pairs.report([{"name": "run_s", "unit": "s", "better": "lower"}], runs)
    assert lines == [
        "base: 3/3 correct, 0 failed seed-runs",
        "change: 3/3 correct, 0 failed seed-runs",
        "run_s (s, lower is better): base 2.1 [2.05, 2.15], change 1.9 [1.85, 1.95] (-9.5%), "
        "won 3/3, base IQR 0.1, gain holds"]


def test_src_line_counts_of_both_trees(tmp_path):
    # every .py file under src/, nested packages too, and nothing else
    for side, lines in (("base", 3), ("change", 1)):
        pkg = tmp_path / side / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "a.py").write_text("x = 1\n" * lines)
        (pkg / "notes.txt").write_text("not code\n")
    (tmp_path / "base" / "src" / "pkg" / "sub").mkdir()
    (tmp_path / "base" / "src" / "pkg" / "sub" / "b.py").write_text("y = 2\nz = 3\n")
    (tmp_path / "change" / "tools.py").write_text("outside src\n")
    trees = {side: tmp_path / side for side in ("base", "change")}
    assert pairs.src_lines(trees) == "src/ lines: base 5, change 1 (-4)"


def test_main_prints_the_line_counts_of_the_exported_trees(tmp_path, monkeypatch, capsys):
    # the base tree is counted while its export exists, before the report
    def export(rev, dest):
        (dest / "src").mkdir(parents=True)
        (dest / "src" / "m.py").write_text("a = 1\nb = 2\n")
        return dest

    names = [m["name"] for m in json.loads((pairs.ROOT / "BENCHMARK.json").read_text())[
        "end_to_end"]]
    result = {"correct": True, "failed": 0, "metrics": {name: {"value": 1.0} for name in names}}
    monkeypatch.setattr(pairs, "export", export)
    monkeypatch.setattr(pairs, "bench", lambda tree, workload, seed, seconds: result)
    pairs.main(["--base", "HEAD", "--workload", "w", "--pairs", "1"])
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("src/ lines: base 2, change ")


def _results(value):
    names = [m["name"] for m in json.loads((pairs.ROOT / "BENCHMARK.json").read_text())[
        "end_to_end"]]
    return {"correct": True, "failed": 0, "metrics": {name: {"value": value} for name in names}}


def test_a_failed_run_drops_its_pair_and_the_rest_are_summarised(monkeypatch, capsys):
    # pair 2 (seed 2) runs the change first, and it fails; pairs 1 and 3 complete
    def export(rev, dest):
        (dest / "src").mkdir(parents=True)
        return dest

    def bench(tree, workload, seed, seconds):
        if seed == 2 and tree == pairs.ROOT:
            raise pairs.RunFailed("perfbench exited 1: Traceback")
        return _results(float(seed))

    monkeypatch.setattr(pairs, "export", export)
    monkeypatch.setattr(pairs, "bench", bench)
    assert pairs.main(["--base", "HEAD", "--workload", "w", "--pairs", "3"]) == 1
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert out[1] == "complete pairs: 2 of 3"
    assert out[2] == "base: 2/2 correct, 0 failed seed-runs"
    assert "won 0/2" in out[4]
    assert out[-2] == "pair 2 (seed 2), change side, failed: perfbench exited 1: Traceback"
    assert json.loads(out[-1])["run_s"] == {"base": [1.0, 3.0], "change": [1.0, 3.0]}
    assert captured.err.splitlines()[1] == out[-2]


def test_no_complete_pair_prints_the_count_and_the_failures(monkeypatch, capsys):
    monkeypatch.setattr(pairs, "bench", lambda *args: {"correct": False, "failed": 2})
    monkeypatch.setattr(pairs, "export", lambda rev, dest: dest)
    monkeypatch.setattr(pairs, "src_lines", lambda trees: "src/ lines")
    assert pairs.main(["--base", "HEAD", "--workload", "w", "--pairs", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["src/ lines", "complete pairs: 0 of 2",
                       "pair 1 (seed 1), base side, failed: not correct: 2 failed seed-runs",
                       "pair 2 (seed 2), change side, failed: not correct: 2 failed seed-runs"]


def test_checked_needs_a_correct_run_with_every_metric():
    result = _results(1.0)
    assert pairs.checked(result, ["run_s"]) is result
    del result["metrics"]["run_s"]
    with pytest.raises(pairs.RunFailed, match="no value of run_s"):
        pairs.checked(result, ["setup_s", "run_s"])
    with pytest.raises(pairs.RunFailed, match="not correct"):
        pairs.checked({**_results(1.0), "correct": False}, ["run_s"])


@pytest.mark.parametrize("script, message", [
    ("import sys; print('partial'); sys.exit(3)", "perfbench exited 3"),
    ("print('no json here')", "printed no result object"),
])
def test_bench_turns_a_broken_run_into_run_failed(tmp_path, script, message):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(script + "\n")
    with pytest.raises(pairs.RunFailed, match=message):
        pairs.bench(tmp_path, "w", 1, 1)


def test_report_gives_the_unscaled_medians_next_to_the_scaled_ones():
    # every run of both sides gives run_s unscaled; no run gives setup_s
    def result(v, raw):
        return {"correct": True, "failed": 0, "unscaled": {"run_s": raw},
                "metrics": {"run_s": {"value": v}, "setup_s": {"value": v}}}

    runs = {"base": [result(v, raw) for v, raw in ((2.0, 3.0), (2.2, 3.4), (2.1, 3.2))],
            "change": [result(v, raw) for v, raw in ((1.8, 3.3), (1.9, 3.5), (2.0, 3.4))]}
    metrics = [{"name": "run_s", "unit": "s", "better": "lower"},
               {"name": "setup_s", "unit": "s", "better": "lower"}]
    lines = pairs.report(metrics, runs)
    assert lines[2] == (
        "run_s (s, lower is better): base 2.1 [2.05, 2.15], change 1.9 [1.85, 1.95] (-9.5%), "
        "won 3/3, base IQR 0.1, gain holds; unscaled base 3.2, change 3.4 (+6.2%)")
    assert lines[3].endswith("gain holds")
    assert pairs.unscaled(runs, "setup_s") is None
    del runs["change"][1]["unscaled"]["run_s"]
    assert pairs.unscaled(runs, "run_s") is None


@pytest.mark.parametrize("info, raw", [
    ('{"env": {}, "unscaled": {"run_s": 1.5}}', {"run_s": 1.5}),
    ('{"env": {}}', {}),
    ("perfbench info", {}),
])
def test_bench_reads_the_unscaled_block_of_the_info_line(tmp_path, info, raw):
    result = {"correct": True, "failed": 0, "metrics": {"run_s": {"value": 1.0}}}
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        f"print({info!r})\nprint({json.dumps(result)!r})\n")
    assert pairs.bench(tmp_path, "w", 1, 1) == {**result, "unscaled": raw}


def test_main_prints_the_unscaled_values_of_every_pair(monkeypatch, capsys):
    def export(rev, dest):
        (dest / "src").mkdir(parents=True)
        return dest

    def bench(tree, workload, seed, seconds):
        return {**_results(float(seed)), "unscaled": {"run_s": 10.0 * seed}}

    monkeypatch.setattr(pairs, "export", export)
    monkeypatch.setattr(pairs, "bench", bench)
    assert pairs.main(["--base", "HEAD", "--workload", "w", "--pairs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert json.loads(out[-1])["unscaled"] == {"run_s": {"base": [10.0, 20.0],
                                                         "change": [10.0, 20.0]}}
    assert any(line.startswith("run_s ") and line.endswith("unscaled base 15, change 15 (+0.0%)")
               for line in out)
