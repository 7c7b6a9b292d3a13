"""An in-process A/B of `engine.run`: two trees' pushdp in one process.

    python3 tools/ab.py --base HEAD~1 --workload ring8-vrsgp --alternations 30

The base revision (and the change revision, if `--change` names one; else
this checkout's working tree) is exported with `git archive`, as
`tools/pairs.py` does, and each tree's `src/pushdp` is imported as a
package of its own.  Both sides load the workload's config from this
checkout's `perfbench/workloads.py`, and run one invocation's seeds (its
`timed_seeds` at `--seed`) once, untimed, to warm up.  Alternation i then
times each side's `engine.run` over those seeds, the base first in even
alternations and the change first in odd ones.  BLAS gets one thread, as
in perfbench.

The output gives each side's median node-rounds a second (n * T * seeds
over the summed `engine.run` time), the median over alternations of the
change's time over the base's (the paired median ratio, below 1 when the
change is faster), how many alternations the change won, and whether the
two sides' records, summaries and partitions were identical in the
warm-up; the tool exits 1 when they were not.  A run on
one process sees the same CPU state on both sides, so it resolves smaller
differences than alternating processes do; the figures are not the
benchmark's, which times whole `pushdp run` invocations.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

from pairs import export  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_package(tree: Path, name: str):
    """The pushdp package under `tree`/src, imported as the package `name`
    with its submodules (relative imports resolve inside it), in place of
    any package loaded under that name before."""
    for module in [m for m in sys.modules if m.split(".")[0] == name]:
        del sys.modules[module]
    root = tree / "src" / "pushdp"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("config", "engine"):
        importlib.import_module(f"{name}.{module}")
    return package


def alternate(packages: dict, config_path: Path, seeds: list, alternations: int) -> dict:
    """Time `engine.run` over `seeds` on the {"base": package, "change":
    package} sides in turn, after one untimed pass each: {"base": [s, ...],
    "change": [s, ...], "identical": bool, "node_rounds": int}, with the
    summed seconds of alternation i at index i, and the node-rounds of an
    alternation's seeds."""
    configs = {side: pkg.config.load_config(str(config_path)) for side, pkg in packages.items()}
    node_rounds = configs["base"].n * configs["base"].T * len(seeds)
    warm = {}
    for side, pkg in packages.items():
        results = [pkg.engine.run(configs[side], seed) for seed in seeds]
        warm[side] = [([r.as_dict() for r in res.records], res.summary, res.partition)
                      for res in results]
    times = {side: [] for side in packages}
    for i in range(alternations):
        for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
            run, config = packages[side].engine.run, configs[side]
            start = time.perf_counter()
            for seed in seeds:
                run(config, seed)
            times[side].append(time.perf_counter() - start)
    return {**times, "identical": warm["base"] == warm["change"], "node_rounds": node_rounds}


def summary_lines(times: dict) -> list:
    """The summary lines of `alternate`'s output."""
    base, change, node_rounds = times["base"], times["change"], times["node_rounds"]
    ratios = [c / b for b, c in zip(base, change)]
    lines = [f"{side}: median {statistics.median(node_rounds / s for s in times[side]):.6g} "
             f"node-rounds/s" for side in ("base", "change")]
    lines.append(f"paired median ratio (change time / base time): {statistics.median(ratios):.4f}, "
                 f"change won {sum(r < 1.0 for r in ratios)}/{len(ratios)}")
    lines.append(f"records, summaries and partitions identical: "
                 f"{'yes' if times['identical'] else 'NO'}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--change", default=None,
                        help="git revision of the change side (default: this working tree)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="the workload seed of the invocation")
    parser.add_argument("--alternations", type=int, default=30)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = "1"  # before the trees import numpy
    workload = WORKLOADS[args.workload]
    seeds = workload.timed_seeds(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": export(args.base, Path(tmp) / "base"),
                 "change": ROOT if args.change is None else export(args.change,
                                                                   Path(tmp) / "change")}
        packages = {side: load_package(tree, f"pushdp_{side}") for side, tree in trees.items()}
        config_path = Path(tmp) / "workload.ini"
        config_path.write_text(workload.config_text)
        times = alternate(packages, config_path, seeds, args.alternations)
    print("\n".join(summary_lines(times)))
    return 0 if times["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
