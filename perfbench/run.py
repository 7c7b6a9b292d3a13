"""End-to-end benchmark of `pushdp run`, with an optional traced per-layer split.

    python3 perfbench/run.py --workload ring8-vrsgp --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout: pushdp is imported from the
checkout's `src/`.  The run writes its generated config files and the
`pushdp run` outputs under `.perfbench_work/` in the checkout and removes
them before it exits.

After an untimed reference invocation on fixed seeds, the benchmark repeats
one `pushdp run` invocation, made from the workload seed, for `--seconds`
seconds, all through `pushdp.cli.main` in this process.  Every seed-run's
records and output files are checked (finite records, strict JSON,
bit-identical records for a seed run twice).  Reported times are scaled to
a fixed machine speed by the probe in probe.py.  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": <seed-runs>, "failed": <seed-runs>, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured with only
the round marker installed.  With `--trace 1` invocations alternate between
untraced and traced, and the metrics are the per-layer ones (from the traced
invocations) plus the tracing overhead (traced against untraced).  The line
before it holds the environment and the sample counts.  Exit code 0 means
the run completed; a failed output check is reported through `correct` and
`failed`, not through the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import numbers
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

from layers import (LAYER_FUNCTIONS, HarnessError, Hooks, LayerTracer, RoundMarker,
                    marker_cost_ns)
from probe import REFERENCE_S, SpeedProbe
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
# All work runs on the main thread: BLAS gets one thread, so the process
# stays within the two cores of the reference box and BLAS thread hand-off
# adds no noise to the timings.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_INVOCATIONS = 2
PROBE_EVERY_S = 0.25


# --------------------------------------------------------------- checks


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def _records_fault(records):
    for rec in records:
        for key, value in rec.items():
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                return f"record t={rec.get('t')}: {key} = {value!r} is not a finite number"
    return None


def _files_fault(out_dir, seed, records):
    """Strict-JSON check of one seed's output files; the metrics file must
    hold exactly the records that engine.run returned."""
    try:
        lines = (out_dir / f"seed_{seed}_metrics.jsonl").read_text().splitlines()
        if [_strict_json(line) for line in lines] != records:
            return "metrics file differs from the returned records"
        for kind in ("summary", "partition"):
            _strict_json((out_dir / f"seed_{seed}_{kind}.json").read_text())
    except (OSError, ValueError) as exc:
        return f"output files: {exc}"
    return None


def check_invocation(out_dir, seeds, runs, digests, faults):
    """One fault string or None per planned seed-run.

    `digests` maps a seed to the digest of its first records, across
    invocations, so every repeat of a seed must be bit-identical to it.
    """
    results = []
    last_records = {}
    for i, seed in enumerate(seeds):
        run = runs[i] if i < len(runs) else None
        if run is None or run["result"] is None:
            results.append(f"seed {seed}: " + (run["error"] if run else "not run"))
            continue
        records = [r.as_dict() for r in run["result"].records]
        fault = _records_fault(records)
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        if fault is None and digests.setdefault(seed, digest) != digest:
            fault = "records differ from an earlier run of the same seed"
        last_records[seed] = records
        results.append(f"seed {seed}: {fault}" if fault else None)
    for seed, records in last_records.items():
        fault = _files_fault(out_dir, seed, records)
        if fault:
            results = [r or f"seed {seed}: {fault}" if s == seed else r
                       for s, r in zip(seeds, results)]
    try:
        _strict_json((out_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        results = [r or f"manifest: {exc}" for r in results]
    faults.extend(r for r in results if r)
    return results


# ----------------------------------------------------------- measuring


def round_timings(run, scaled):
    """(setup_s, per-round seconds) of one seed-run, free of probe time.

    Scaled, the set-up time uses the probes of the set-up window, and each
    round the probes just before and after it.
    """
    starts, ends = run["starts"], run["ends"]
    if len(starts) != run["T"]:
        raise HarnessError(
            f"round marker engine.beta_at was called {len(starts)} times in a run "
            f"of T={run['T']} rounds; the benchmark must pick a new marker"
        )
    loop_end = run["loop_end"][0] if run["loop_end"] else run["exit"]
    setup = ends[0] - run["entry"] - run["setup_probe_s"]
    rounds = [end - start for start, end in zip(starts, ends[1:] + [loop_end])]
    if not scaled:
        return setup, rounds
    at, probes, i = run["round_probe_at"], run["round_probes"], 0
    for t in range(len(rounds)):
        while i + 1 < len(at) and at[i + 1] <= t:
            i += 1
        rounds[t] *= REFERENCE_S / statistics.fmean(probes[i:i + 2])
    return setup * _scale(run["setup_probes"]), rounds


class Invocation:
    """One `pushdp run` call: its seed-runs, their faults, its wall time
    less probe time, and the speed scale of that wall time, from all the
    probes run during it."""

    def __init__(self, seeds, runs, faults, wall_s):
        self.seeds = seeds
        self.good = [r for r, f in zip(runs, faults) if f is None]
        self.failed = sum(f is not None for f in faults)
        self.run_s = wall_s - sum(run["probe_s"] for run in runs)
        self.scale = _scale([p for run in runs for p in run["setup_probes"] + run["round_probes"]])
        for run in runs:  # keep what the metrics need, not the whole result
            result = run.pop("result")
            if result is not None:
                run["final_train_loss"] = result.summary["final_train_loss"]
                run["in_regime"] = bool(result.summary["theory"]["in_regime"])


def _scale(probes):
    return REFERENCE_S / statistics.median(probes) if probes else None


def invoke(cli, marker, config_path, out_dir, seeds, digests, faults):
    first = len(marker.runs)
    argv = ["run", "--config", str(config_path), "--seeds", ",".join(map(str, seeds)),
            "--out", str(out_dir), "--force"]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        cli.main(argv)
        wall_s = perf_counter() - t0
    runs = marker.runs[first:]
    results = check_invocation(out_dir, seeds, runs, digests, faults)
    shutil.rmtree(out_dir, ignore_errors=True)
    return Invocation(seeds, runs, results, wall_s)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timings(invocations, scaled):
    """The end-to-end time metrics over the good seed-runs of `invocations`.

    Scaled, an invocation's wall time is the sum of its seed-runs' scaled
    set-up and round times plus the rest of it, scaled by all its probes.
    """
    setups, rounds, node_rounds, run_s = [], [], 0, []
    for inv in invocations:
        engine_scaled = engine_raw = 0.0
        for run in inv.good:
            setup, per_round = round_timings(run, scaled)
            setups.append(setup)
            rounds.extend(per_round)
            node_rounds += run["n"] * run["T"]
            if scaled:
                raw_setup, raw_rounds = round_timings(run, scaled=False)
                engine_scaled += setup + sum(per_round)
                engine_raw += raw_setup + sum(raw_rounds)
        run_s.append(engine_scaled + (inv.run_s - engine_raw) * inv.scale
                     if scaled else inv.run_s)
    loop_s = sum(rounds)
    return {
        "setup_s": statistics.median(setups),
        "round_ms_p50": statistics.median(rounds) * 1e3,
        "node_rounds_per_s": node_rounds / loop_s,
        "run_s": statistics.median(run_s),
    }, {"setup_samples": len(setups), "round_samples": len(rounds), "loop_s": loop_s}


def end_to_end_metrics(invocations, reference_losses):
    if not any(inv.good for inv in invocations) or not reference_losses:
        return {}, {}
    scaled, counts = timings(invocations, scaled=True)
    raw, raw_counts = timings(invocations, scaled=False)
    units = {"setup_s": "s", "round_ms_p50": "ms", "node_rounds_per_s": "1/s", "run_s": "s"}
    metrics = {name: _metric(value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["final_train_loss"] = _metric(statistics.fmean(reference_losses), "loss")
    cost_ns = marker_cost_ns()
    samples = {**counts, "unscaled": raw, "marker_ns_per_call": cost_ns,
               "marker_overhead_frac":
                   cost_ns * 1e-9 * raw_counts["round_samples"] / raw_counts["loop_s"]}
    return metrics, samples


def per_layer_metrics(untraced, traced, absent, attempted, failed):
    runs = [run for inv in traced for run in inv.good]
    if not runs or not any(inv.good for inv in untraced):
        return {}, {}
    per_run = len(runs)
    node_rounds = sum(run["n"] * run["T"] for run in runs)
    rounds = sum(run["T"] for run in runs)
    calls = {name: sum(inv.tracer.calls.get(name, 0) for inv in traced)
             for name in (f"{m}.{f}" for m, f in LAYER_FUNCTIONS)}
    metrics = {}
    for module_name, attr in LAYER_FUNCTIONS:
        name = f"{module_name}.{attr}"
        self_s = sum(inv.tracer.self_s.get(name, 0.0) * inv.scale for inv in traced) / per_run
        if name in ("engine.run", "cli.cmd_run"):
            metrics[f"{module_name}.self_s"] = _metric(self_s, "s/run")
            continue
        metrics[f"{name}.calls"] = _metric(calls[name] / per_run, "calls/run")
        metrics[f"{name}.s"] = _metric(self_s, "s/run")
    untraced_rounds = [t for inv in untraced for run in inv.good
                       for t in round_timings(run, scaled=True)[1]]
    untraced_run_s = statistics.median(inv.run_s * inv.scale for inv in untraced)
    traced_run_s = statistics.median(inv.run_s * inv.scale for inv in traced)
    metrics.update({
        "rng.streams_per_node_round": _metric(calls["rng.stream"] / node_rounds, "1/node-round"),
        "models.evals_per_node_round": _metric(
            calls["models.loss_and_grad"] / node_rounds, "1/node-round"),
        "pushsum.consensus_error.calls_per_round": _metric(
            calls["pushsum.consensus_error"] / rounds, "1/round"),
        "theory.in_regime": _metric(statistics.fmean(run["in_regime"] for run in runs), "frac"),
        "engine.round_ms_p95": _metric(
            statistics.quantiles(untraced_rounds, n=20)[-1] * 1e3, "ms"),
        "trace.overhead_frac": _metric(traced_run_s / untraced_run_s - 1.0, "ratio"),
        "failed_run_frac": _metric(failed / attempted, "ratio"),
    })
    samples = {"traced_runs": per_run, "p95_round_samples": len(untraced_rounds),
               "untraced_run_s": untraced_run_s, "traced_run_s": traced_run_s,
               "absent": absent}
    return metrics, samples


# ---------------------------------------------------------- environment


def _git_rev():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pushdp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _process_threads():
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def environment(numpy, args):
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "process_threads": _process_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_rev": _git_rev(),
        "src_sha256": _src_sha256(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, cli, workdir):
    workload = WORKLOADS[args.workload]
    config_path = workdir / f"{workload.name}.ini"
    config_path.write_text(workload.config_text)
    out_dir = workdir / "out"
    seeds = workload.timed_seeds(args.seed)

    marker_hooks = Hooks()
    marker = RoundMarker(SpeedProbe(), probe_every_s=PROBE_EVERY_S)
    marker.install(marker_hooks)
    untraced, traced, faults, digests = [], [], [], {}
    absent = set(marker_hooks.absent)
    try:
        # untimed warm-up, and the source of the quality guard
        reference = invoke(cli, marker, config_path, out_dir, list(workload.reference_seeds),
                           digests, faults)
        deadline = time.monotonic() + args.seconds
        while len(untraced) + len(traced) < MIN_INVOCATIONS or time.monotonic() < deadline:
            tracer = LayerTracer() if args.trace and len(untraced) > len(traced) else None
            tracer_hooks = Hooks()
            if tracer:
                tracer.install(tracer_hooks)
                absent.update(tracer_hooks.absent)
            marker.on_probe = tracer.exclude if tracer else None
            try:
                inv = invoke(cli, marker, config_path, out_dir, seeds, digests, faults)
            finally:
                tracer_hooks.remove()
            inv.tracer = tracer
            (traced if tracer else untraced).append(inv)
    finally:
        marker_hooks.remove()

    invocations = [reference] + untraced + traced
    attempted = sum(len(inv.seeds) for inv in invocations)
    failed = sum(inv.failed for inv in invocations)
    if any(inv.scale is None for inv in untraced + traced):
        raise HarnessError("an invocation ran no speed probe")
    if args.trace:
        metrics, samples = per_layer_metrics(untraced, traced, sorted(absent), attempted, failed)
    else:
        losses = [run["final_train_loss"] for run in reference.good]
        metrics, samples = end_to_end_metrics(untraced, losses)
    samples.update(invocations=len(invocations), faults=faults[:10],
                   speed_scale=[round(inv.scale, 4) for inv in untraced + traced],
                   loadavg_end=os.getloadavg())
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}, samples


def expected_metric_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "pushdp" / "cli.py").is_file():
        print(f"perfbench: no pushdp sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import numpy
    from pushdp import cli

    if Path(cli.__file__).resolve().parent != (src / "pushdp").resolve():
        print(f"perfbench: imported pushdp from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    env = environment(numpy, args)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, samples = measure(args, cli, workdir)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    expected = expected_metric_names(args.trace)
    if result["metrics"] and sorted(result["metrics"]) != sorted(expected):
        print(f"perfbench: metrics {sorted(result['metrics'])} do not match "
              f"BENCHMARK.json {sorted(expected)}", file=sys.stderr)
        return 3
    print(json.dumps({"env": env, **samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
