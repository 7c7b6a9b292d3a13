"""Timing hooks installed around pushdp's own functions from outside.

Two kinds of hook, both installed by replacing module attributes and both
removed again by `Hooks.remove`:

* The round marker (`RoundMarker`) is always on.  It stamps the clock when
  `engine.run` is entered and left, when `engine.beta_at` is called (exactly
  once at the top of every round) and when `engine._summarize` is called
  (once, right after the last round).  From those stamps come the set-up
  time, every round's wall time and the round-loop time, with no other
  hook in the way.  It also runs the speed probe (probe.py).

* The layer tracer (`LayerTracer`) is on only in traced invocations.  It
  wraps the public functions that `engine` and `cli` call, one layer per
  pushdp module, and keeps a call count and a self time for each: the
  wrapper's wall time minus the wall time of wrapped calls made inside it.

A hook replaces the function in its own module and in the `engine` and
`cli` namespaces when those hold the same object.  So every call from the
engine, the cli and the layer's own module is counted, while a call that
another layer makes through a name it imported itself (as `theory` does
with `models.loss_and_grad`) stays in that caller's self time.

A function that no longer exists is reported as absent and gets no hook,
so the benchmark keeps running while the program's layers change shape.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

# (module, function) pairs the tracer wraps, in the order they are reported.
LAYER_FUNCTIONS = (
    ("cli", "cmd_run"),
    ("config", "load_config"),
    ("engine", "run"),
    ("engine", "build_dataset"),
    ("rng", "stream"),
    ("models", "loss_and_grad"),
    ("models", "sample_batch"),
    ("models", "accuracy"),
    ("fusion", "clip"),
    ("fusion", "perturb"),
    ("fusion", "fuse"),
    ("pushsum", "local_half_step"),
    ("pushsum", "mix_round"),
    ("pushsum", "consensus_error"),
    ("topology", "build_mixing_matrix"),
    ("topology", "topology_at"),
    ("topology", "max_out_degree"),
    ("topology", "window_diameter"),
    ("topology", "propagation_params"),
    ("theory", "estimate_theory_params"),
    ("theory", "convergence_bound"),
    ("privacy", "calibrate_sigma"),
    ("privacy", "epsilon_spent"),
    ("privacy", "delta_bound"),
)

# Namespaces besides a function's own module whose imported names are hooked.
CALLER_MODULES = ("engine", "cli")

# Names, each hooked in that module's namespace only, called during set-up:
# before such a call the speed probe may run, so that a long set-up is
# scaled by probes taken during it.  theory.loss_and_grad is the per-sample
# probing inside estimate_theory_params.
SETUP_PROBE_POINTS = (("engine", "build_dataset"), ("engine", "max_out_degree"),
                      ("engine", "window_diameter"), ("engine", "estimate_theory_params"),
                      ("engine", "build_mixing_matrix"), ("theory", "loss_and_grad"))


class HarnessError(Exception):
    """The benchmark can no longer measure the program."""


def _module(name):
    return importlib.import_module(f"pushdp.{name}")


def _unwrap(fn):
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


class Hooks:
    """Installed replacements, removable in reverse order."""

    def __init__(self):
        self._saved = []
        self.absent = []

    def replace(self, module_name, attr, make_wrapper, callers=True):
        """Wrap `pushdp.<module_name>.<attr>`, and with `callers` also the
        same function wherever engine and cli see it.

        A namespace that already holds a wrapper of the same function gets
        its wrapper wrapped in turn.  Returns False, and records the name as
        absent, when it does not exist.
        """
        home = _module(module_name)
        base = _unwrap(getattr(home, attr, None))
        if base is None:
            self.absent.append(f"{module_name}.{attr}")
            return False
        targets = {home, *(_module(m) for m in CALLER_MODULES)} if callers else {home}
        for target in targets:
            current = getattr(target, attr, None)
            if current is not None and _unwrap(current) is base:
                self._saved.append((target, attr, current))
                setattr(target, attr, functools.wraps(current)(make_wrapper(current)))
        return True

    def remove(self):
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)


class RoundMarker:
    """Clock stamps of every `engine.run` call and its round boundaries.

    It also runs `probe`, a function that times a fixed kernel and returns
    the duration: when a run is entered, before the set-up steps in
    SETUP_PROBE_POINTS once `probe_every_s` seconds have passed, at the
    first round, and between later rounds once `probe_every_s` seconds have
    passed.  The probe's time is stamped out of every reported time.
    `on_probe`, when set, is told each probe's duration.
    """

    def __init__(self, probe, probe_every_s):
        self.runs = []  # one dict per engine.run call
        self.on_probe = None
        self._current = None
        self._probe = probe
        self._probe_every_s = probe_every_s
        self._next_probe = 0.0

    def install(self, hooks):
        required = hooks.replace("engine", "run", self._wrap_run) and hooks.replace(
            "engine", "beta_at", self._wrap_round
        )
        if not required:
            raise HarnessError(
                "the round marker needs engine.run and engine.beta_at; "
                "the benchmark must pick a new marker"
            )
        # without it the round loop is taken to end when engine.run returns
        hooks.replace("engine", "_summarize", self._wrap_loop_end)
        for module_name, attr in SETUP_PROBE_POINTS:
            hooks.replace(module_name, attr, self._wrap_setup_step, callers=False)

    def _run_probe(self, rec, *phases):
        seconds = self._probe()
        rec["probe_s"] += seconds
        for phase in phases:
            rec[phase].append(seconds)
        if self.on_probe is not None:
            self.on_probe(seconds)
        self._next_probe = perf_counter() + self._probe_every_s
        return seconds

    def _wrap_run(self, fn):
        def run(config, master_seed=None, *args, **kwargs):
            rec = {"n": config.n, "T": config.T,
                   "ends": [], "starts": [], "loop_end": [],  # clock stamps
                   "setup_probes": [], "round_probes": [], "round_probe_at": [],
                   "setup_probe_s": 0.0, "probe_s": 0.0, "result": None, "error": None}
            self.runs.append(rec)
            self._run_probe(rec, "setup_probes")
            self._current = rec
            rec["entry"] = perf_counter()
            try:
                rec["result"] = fn(config, master_seed, *args, **kwargs)
                return rec["result"]
            except Exception as exc:  # recorded, then re-raised to the cli
                rec["error"] = repr(exc)
                raise
            finally:
                rec["exit"] = perf_counter()
                self._current = None

        return run

    def _wrap_setup_step(self, fn):
        def stepped(*args, **kwargs):
            rec = self._current
            if rec is not None and not rec["starts"] and perf_counter() >= self._next_probe:
                rec["setup_probe_s"] += self._run_probe(rec, "setup_probes")
            return fn(*args, **kwargs)

        return stepped

    def _wrap_round(self, fn):
        def stamped(*args, **kwargs):
            rec = self._current
            if rec is not None:
                now = perf_counter()
                rec["ends"].append(now)  # end of set-up or of the previous round
                if not rec["starts"] or now >= self._next_probe:
                    # the first-round probe closes the set-up window and opens the loop
                    phases = ("round_probes",) if rec["starts"] else ("setup_probes", "round_probes")
                    rec["round_probe_at"].append(len(rec["starts"]))
                    self._run_probe(rec, *phases)
                    now = perf_counter()
                rec["starts"].append(now)
            return fn(*args, **kwargs)

        return stamped

    def _wrap_loop_end(self, fn):
        def stamped(*args, **kwargs):
            if self._current is not None:
                self._current["loop_end"].append(perf_counter())
            return fn(*args, **kwargs)

        return stamped


def marker_cost_ns(repeats=5, calls=20000):
    """Added cost of one round-marker stamp in ns, probe not due: the best
    of `repeats` timings of `calls` calls to a stamped no-op, less the bare
    no-op."""

    def noop(*args):
        return None

    marker = RoundMarker(noop, probe_every_s=0.0)
    marker._next_probe = float("inf")
    stamped = marker._wrap_round(noop)

    def best(fn):
        times = []
        for _ in range(repeats):
            marker._current = {"ends": [], "starts": [0.0]}
            t0 = perf_counter()
            for t in range(calls):
                fn(None, None, t)
            times.append(perf_counter() - t0)
        return min(times)

    return max(best(stamped) - best(noop), 0.0) / calls * 1e9


class LayerTracer:
    """Call counts and self times of the functions in LAYER_FUNCTIONS."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self._child_s = [0.0]  # wall time of wrapped callees, per open span

    def exclude(self, seconds):
        """Take `seconds` spent in untraced work out of the open span."""
        self._child_s[-1] += seconds

    def install(self, hooks):
        for module_name, attr in LAYER_FUNCTIONS:
            hooks.replace(module_name, attr, self._wrapper(f"{module_name}.{attr}"))

    def _wrapper(self, name):
        calls, self_s, child_s = self.calls, self.self_s, self._child_s

        def make(fn):
            def traced(*args, **kwargs):
                child_s.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    self_s[name] += dt - child_s.pop()
                    child_s[-1] += dt
                    calls[name] += 1

            return traced

        return make
