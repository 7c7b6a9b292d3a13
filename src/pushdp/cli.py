"""Command-line front door: run experiments, run oracle suites, and invoke
the closed-form calculators standalone.

    pushdp run --config cfg.ini --seeds 1,2,3 --out results [--force]
    pushdp verify {noise-factor,consensus,gradients,schedules,connectivity,streams,all}
    pushdp calc {sigma,tau,minT,bound,regime} [flags]

PUSHDP_OUT sets the default output directory for `run`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, fields

from . import engine, rng as rngmod
from .config import field_types, load_config
from .errors import PushdpError
from .fusion import REPORTED_TAU, noise_factor, select_tau
from .privacy import LrSchedule, NoiseSchedule, PrivacyBudget, calibrate_sigma
from .theory import TheoryParams, convergence_bound, corollary_regime, min_iterations, optimal_p
from .verify import run_suite, SUITES


def _sanitize(obj):
    """Make a summary JSON-standard: non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


@contextlib.contextmanager
def _atomic_open(path):
    """Open a temp file next to `path` for writing and move it onto `path`
    once the block completes, so `path` never holds a partial file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_json(path, payload):
    with _atomic_open(path) as fh:
        json.dump(_sanitize(payload), fh, indent=2)
        fh.write("\n")


def _seed_list(text: str) -> list:
    """argparse type of --seeds: a non-empty comma list of non-negative integers."""
    parts = [s.strip() for s in text.split(",") if s.strip()]
    if not parts or not all(p.isdecimal() for p in parts):
        raise argparse.ArgumentTypeError(
            f"expected a comma list of non-negative integers, got {text!r}"
        )
    return [int(p) for p in parts]


def cmd_run(args) -> int:
    try:
        config = load_config(args.config)
    except PushdpError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    seeds = args.seeds or [config.run.master_seed]
    out_dir = args.out or os.environ.get("PUSHDP_OUT") or "runs"
    os.makedirs(out_dir, exist_ok=True)

    planned = {"manifest": os.path.join(out_dir, "manifest.json")}
    for seed in seeds:
        planned[f"metrics_{seed}"] = os.path.join(out_dir, f"seed_{seed}_metrics.jsonl")
        planned[f"summary_{seed}"] = os.path.join(out_dir, f"seed_{seed}_summary.json")
        planned[f"partition_{seed}"] = os.path.join(out_dir, f"seed_{seed}_partition.json")
    if not args.force:
        for path in planned.values():
            if os.path.exists(path):
                print(f"would overwrite {path}; pass --force to allow", file=sys.stderr)
                return 1

    for seed in seeds:
        try:
            result = engine.run(config, master_seed=seed)
        except PushdpError as exc:
            print(f"run failed (seed {seed}): {exc}", file=sys.stderr)
            return 1
        with _atomic_open(planned[f"metrics_{seed}"]) as fh:
            for record in result.records:
                fh.write(json.dumps(_sanitize(record.as_dict()), allow_nan=False))
                fh.write("\n")
        _write_json(planned[f"summary_{seed}"], result.summary)
        _write_json(planned[f"partition_{seed}"], result.partition)
        print(f"seed {seed}: wrote {planned[f'metrics_{seed}']}")
    _write_json(
        planned["manifest"],
        {"config": os.path.abspath(args.config), "out_dir": os.path.abspath(out_dir),
         "seeds": seeds, "stream_version": rngmod.STREAM_VERSION, "files": planned},
    )
    return 0


def cmd_verify(args) -> int:
    kwargs = {}
    if args.suite == "noise-factor" and args.trials:
        kwargs["trials"] = args.trials
    results = run_suite(args.suite, **kwargs)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


# calc's own defaults, choices and spellings for the flags generated from
# the NoiseSchedule, PrivacyBudget and TheoryParams fields, keyed by field
# name (no name is shared by two of those classes).  A flag not named here
# is --<field> with the field's default.
CALC_FLAGS = {
    "form": {"default": "stepwise", "choices": ["power", "stepwise"]},
    "T": {"default": 1000},
    "s": {"default": 0.2},
    "tau": {"default": 5},
    "epsilon": {"default": 2.0},
    "delta": {"default": 1e-5},
    "sampling_ratio": {"flag": "--ratio", "default": 0.5, "help": "sampling ratio"},
    "a": {"flag": "--a-const"},
    "m": {"flag": "--m-const"},
    "x0_norm": {"flag": "--x0-norm"},
}


def _flag(name: str) -> str:
    return CALC_FLAGS.get(name, {}).get("flag", f"--{name}")


def _add_fields(parser, cls, skip=(), **extra):
    """One flag per field of cls not in skip, typed by the field's
    annotation; CALC_FLAGS, then extra[name], set its argparse keywords."""
    types = field_types(cls)
    for f in fields(cls):
        if f.name not in skip:
            kwargs = {"type": types[f.name], "default": f.default,
                      **CALC_FLAGS.get(f.name, {}), **extra.get(f.name, {})}
            kwargs.pop("flag", None)
            parser.add_argument(_flag(f.name), **kwargs)


def _from_args(args, cls):
    """cls built from the flags _add_fields made for it."""
    return cls(**{f.name: getattr(args, _flag(f.name)[2:].replace("-", "_")) for f in fields(cls)})


def _calculate(args) -> dict:
    if args.sub == "sigma":
        budget = _from_args(args, PrivacyBudget)
        return {
            "inputs": {**asdict(budget), "G": args.g, "T": args.T,
                       "form": args.form, "s": args.s, "tau": args.tau},
            "sigma": calibrate_sigma(budget, args.g, _from_args(args, NoiseSchedule)),
        }
    if args.sub == "tau":
        tau = select_tau(args.theta, args.tol)
        return {
            "inputs": {"theta": args.theta, "tol": args.tol},
            "tau": tau,
            "h_at_tau": noise_factor(args.theta, tau),
            "paper_reported": REPORTED_TAU.get(args.theta),
        }
    theory = _from_args(args, TheoryParams)
    if args.sub == "minT":
        floor = min_iterations(theory, args.n, args.p, args.K)
        return {
            "inputs": {"n": args.n, "p": args.p, "K": args.K, "L": args.L,
                       "C": args.C, "q": args.q},
            "terms": floor.terms,
            "floor": floor.floor,
            "optimal_p_for_s": optimal_p(args.s) if args.s is not None else None,
        }
    budgets = [_from_args(args, PrivacyBudget)] * args.n
    if args.sub == "bound":
        breakdown = convergence_bound(
            theory, args.n, _from_args(args, NoiseSchedule), LrSchedule(eta=args.eta, xi=args.xi),
            budgets, args.g, noise_factor(args.theta, args.fusion_tau or args.tau),
            args.upsilon, args.rho,
        )
        return {"inputs": {"n": args.n, "T": args.T, "eta": args.eta, "xi": args.xi,
                           "upsilon": args.upsilon, "rho": args.rho},
                **breakdown.as_dict()}
    h = args.h if args.h is not None else noise_factor(args.theta, args.tau)
    result = corollary_regime(args.p, args.n, args.T, args.s, budgets, args.g, h, theory,
                              a1=args.a1, a2=args.a2, a3=args.a3)
    return {
        "inputs": {"p": args.p, "n": args.n, "T": args.T, "s": args.s},
        "regime": result.label,
        "value": result.value,
        "H": result.H,
        "nu": result.nu,
        "budget_term": result.budget_term,
    }


def cmd_calc(args) -> int:
    try:
        out = _calculate(args)
    except ValueError as exc:  # a calculator's own input check
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(_sanitize(out), indent=2))
    return 0


def _node_count(text: str) -> int:
    """argparse type of calc's --n: an integer >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 node, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pushdp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config over seeds")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seeds", type=_seed_list, default=None,
                       help="comma list, default: config master_seed")
    p_run.add_argument("--out", default=None, help="output dir (default $PUSHDP_OUT or ./runs)")
    p_run.add_argument("--force", action="store_true", help="allow overwriting existing outputs")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run an oracle suite")
    p_ver.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_ver.add_argument("--trials", type=int, default=None, help="noise-factor Monte-Carlo trials")
    p_ver.set_defaults(func=cmd_verify)

    p_calc = sub.add_parser("calc", help="standalone theory calculators")
    calc_sub = p_calc.add_subparsers(dest="sub", required=True)

    p_sigma = calc_sub.add_parser("sigma", help="noise calibration")

    p_tau = calc_sub.add_parser("tau", help="interval selection")
    p_tau.add_argument("--theta", type=float, required=True)
    p_tau.add_argument("--tol", type=float, default=0.01)

    p_mint = calc_sub.add_parser("minT", help="iteration floor")
    p_mint.add_argument("--p", type=float, required=True)
    p_mint.add_argument("--K", type=float, default=1.0)
    p_mint.add_argument("--s", type=float, default=None)

    p_bound = calc_sub.add_parser("bound", help="convergence-bound breakdown")
    p_bound.add_argument("--eta", type=float, required=True)
    p_bound.add_argument("--xi", type=float, default=0.5)
    p_bound.add_argument("--theta", type=float, default=0.0)
    p_bound.add_argument("--fusion-tau", type=int, default=None, dest="fusion_tau")
    p_bound.add_argument("--upsilon", type=float, default=0.0)
    p_bound.add_argument("--rho", type=float, default=0.0)

    p_reg = calc_sub.add_parser("regime", help="regime-dependent refined bound")
    p_reg.add_argument("--p", type=float, required=True)
    p_reg.add_argument("--h", type=float, default=None)
    p_reg.add_argument("--theta", type=float, default=0.5)
    p_reg.add_argument("--a3", type=float, default=5.0)

    for p in (p_sigma, p_bound):
        _add_fields(p, NoiseSchedule)
    _add_fields(p_reg, NoiseSchedule, skip=("form", "K"), s={"required": True})
    for p in (p_sigma, p_bound, p_reg):
        _add_fields(p, PrivacyBudget)
        p.add_argument("--g", type=float, default=0.1, help="clip threshold")
    for p in (p_mint, p_bound, p_reg):
        p.add_argument("--n", type=_node_count, required=True)
        _add_fields(p, TheoryParams)

    p_calc.set_defaults(func=cmd_calc)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PushdpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
