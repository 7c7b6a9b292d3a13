"""Alternating base/change pairs of the benchmark, summarised per metric.

    python3 tools/pairs.py --base HEAD~1 --workload ring8-vrsgp --pairs 10 --seconds 20

The base revision (and the change revision, if `--change` names one; else
this checkout's working tree) is exported with `git archive` into a
temporary directory.  Pair i runs `perfbench/run.py --workload W --seed
S+i --seconds N --trace 0` once in each tree, the base first in even pairs
and the change first in odd ones.  Only the last two lines of each run's
standard output are read: perfbench's result object, and the info line
before it for its `unscaled` block, the times before perfbench's
speed-probe scaling.  A run that exits
non-zero, is not `correct` or lacks a metric fails its pair: the pair and
side are named, the remaining pairs still run, the summary covers the
complete pairs only, and the script exits 1.

The summary's first line gives the lines of the Python files under each
tree's `src/`, the next how many pairs are complete.  For every
end-to-end metric of BENCHMARK.json it gives each side's median and
quartiles, how many pairs the change won (ties count for neither side),
the base's interquartile range, and whether a gain holds: the change won
at least nine tenths of the pairs, and its median is better than the
base's by more than the base's interquartile range.  A metric that
every run also gives unscaled gets each side's unscaled median and its
change too: the scaling can move the two readings of one set of pairs
apart.  A last line gives every pair's values, as one JSON object, the
unscaled ones under "unscaled".
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    """(first quartile, median, third quartile), by linear interpolation
    between the sorted values (`statistics.quantiles`, inclusive method)."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(base, change, better):
    """One metric's summary over pairs: base[i] and change[i] are pair i's
    values, and `better` is "higher" or "lower"."""
    if len(base) != len(change) or not base:
        raise ValueError(f"{len(base)} base values against {len(change)} change values")
    sign = 1.0 if better == "higher" else -1.0
    b, c = quartiles(base), quartiles(change)
    wins = sum(sign * (y - x) > 0 for x, y in zip(base, change))
    gain, iqr = sign * (c[1] - b[1]), b[2] - b[0]
    return {"base": b, "change": c, "wins": wins, "pairs": len(base), "iqr": iqr,
            "gain": gain, "holds": wins >= 0.9 * len(base) and gain > iqr}


def export(rev, dest):
    """The files of revision `rev` of this repository, written under `dest`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return Path(dest)


def src_lines(trees):
    """The summary line of the lines of the Python files under `src/` in
    each of the {"base": path, "change": path} trees."""
    count = {side: sum(len(path.read_text().splitlines()) for path in (tree / "src").rglob("*.py"))
             for side, tree in trees.items()}
    return (f"src/ lines: base {count['base']}, change {count['change']} "
            f"({count['change'] - count['base']:+d})")


class RunFailed(Exception):
    """A perfbench run that gives no usable result object."""


def bench(tree, workload, seed, seconds):
    """perfbench's result object of one run in `tree`, with the info line's
    `unscaled` block under "unscaled" ({} if that line has none)."""
    proc = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
                           "0"], capture_output=True, text=True)
    if proc.returncode:
        raise RunFailed(f"perfbench exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RunFailed(f"perfbench printed no result object: {proc.stdout.strip()!r}") from None
    try:
        result["unscaled"] = json.loads(lines[-2])["unscaled"]
    except (IndexError, ValueError, KeyError, TypeError):
        result["unscaled"] = {}
    return result


def unscaled(runs, name):
    """The unscaled values of metric `name` of every run of each side, or
    None unless every run has one."""
    values = {side: [r.get("unscaled", {}).get(name) for r in results]
              for side, results in runs.items()}
    return None if any(v is None for vs in values.values() for v in vs) else values


def checked(result, names):
    """The result object, if it is `correct` and has a value of every metric
    in `names`; else RunFailed."""
    if not result.get("correct"):
        raise RunFailed(f"not correct: {result.get('failed')} failed seed-runs")
    missing = [n for n in names if "value" not in result.get("metrics", {}).get(n, {})]
    if missing:
        raise RunFailed(f"no value of {', '.join(missing)}")
    return result


def report(metrics, runs):
    """The summary lines of the `runs` {"base": [...], "change": [...]} of
    perfbench result objects, for the BENCHMARK.json `metrics` entries."""
    lines = []
    for side, results in runs.items():
        lines.append(f"{side}: {sum(r['correct'] for r in results)}/{len(results)} correct, "
                     f"{sum(r['failed'] for r in results)} failed seed-runs")
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results]
                  for side, results in runs.items()}
        s = summarize(values["base"], values["change"], metric["better"])
        (b1, bm, b3), (c1, cm, c3) = s["base"], s["change"]
        line = (f"{name} ({metric['unit']}, {metric['better']} is better): base {bm:.6g} "
                f"[{b1:.6g}, {b3:.6g}], change {cm:.6g} [{c1:.6g}, {c3:.6g}] ({percent(bm, cm)}), "
                f"won {s['wins']}/{s['pairs']}, base IQR {s['iqr']:.3g}, "
                f"gain {'holds' if s['holds'] else 'does not hold'}")
        raw = unscaled(runs, name)
        if raw:
            ub, uc = (statistics.median(raw[side]) for side in ("base", "change"))
            line += f"; unscaled base {ub:.6g}, change {uc:.6g} ({percent(ub, uc)})"
        lines.append(line)
    return lines


def percent(base, change):
    """The change from `base` to `change` in percent, "n/a" from 0."""
    return f"{100 * (change - base) / base:+.1f}%" if base else "n/a"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--change", default=None,
                        help="git revision of the change side (default: this working tree)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="pair i runs at seed + i")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = [m["name"] for m in metrics]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": export(args.base, Path(tmp) / "base"),
                 "change": ROOT if args.change is None else export(args.change,
                                                                   Path(tmp) / "change")}
        lines, runs = src_lines(trees), {"base": [], "change": []}
        for i in range(args.pairs):
            pair, seed = {}, args.seed + i
            for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                try:
                    pair[side] = checked(bench(trees[side], args.workload, seed, args.seconds),
                                         names)
                except RunFailed as exc:
                    failures.append(f"pair {i + 1} (seed {seed}), {side} side, failed: {exc}")
                    break
            else:
                for side, result in pair.items():
                    runs[side].append(result)
            print(failures[-1] if len(pair) < 2 else f"pair {i + 1}/{args.pairs} done",
                  file=sys.stderr)
    complete = len(runs["base"])
    print("\n".join([lines, f"complete pairs: {complete} of {args.pairs}",
                     *(report(metrics, runs) if complete else []), *failures]))
    values = {m["name"]: {side: [r["metrics"][m["name"]]["value"] for r in results]
                          for side, results in runs.items()} for m in metrics}
    raw = {name: unscaled(runs, name) for name in names}
    print(json.dumps({**values, "unscaled": {name: v for name, v in raw.items() if v}}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
