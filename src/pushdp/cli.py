"""Command-line front door: run experiments, run oracle suites, and invoke
the closed-form calculators standalone.

    pushdp run --config cfg.ini --seeds 1,2,3 --out results [--force]
    pushdp verify {noise-factor,consensus,gradients,schedules,connectivity,all}
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

from . import engine
from .config import load_config
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
    """argparse type of --seeds: a comma list of non-negative integers."""
    parts = [s.strip() for s in text.split(",") if s.strip()]
    if not all(p.isdecimal() for p in parts):
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
    seeds = args.seeds or [config.master_seed]
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
         "seeds": seeds, "files": planned},
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


def _schedule_from_args(args, T=None) -> NoiseSchedule:
    return NoiseSchedule(
        form=args.form,
        T=T if T is not None else args.T,
        s=args.s,
        tau=args.tau,
        K=args.K,
        a1=args.a1,
        a2=args.a2,
    )


def _budget_from_args(args) -> PrivacyBudget:
    return PrivacyBudget(
        epsilon=args.epsilon,
        delta=args.delta,
        sampling_ratio=args.ratio,
        c1=args.c1,
        c2=args.c2,
    )


def _theory_from_args(args) -> TheoryParams:
    return TheoryParams(
        L=args.L, a=args.a_const, m=args.m_const, C=args.C, q=args.q,
        lam=1.0 - args.q, F0=args.F0, d=args.d, x0_norm=args.x0_norm,
    )


def cmd_calc(args) -> int:
    out = {}
    if args.sub == "sigma":
        budget = _budget_from_args(args)
        schedule = _schedule_from_args(args)
        sigma = calibrate_sigma(budget, args.g, schedule)
        out = {
            "inputs": {
                "epsilon": args.epsilon, "delta": args.delta, "sampling_ratio": args.ratio,
                "c1": args.c1, "c2": args.c2, "G": args.g, "T": args.T,
                "form": args.form, "s": args.s, "tau": args.tau,
            },
            "sigma": sigma,
        }
    elif args.sub == "tau":
        tau = select_tau(args.theta, args.tol)
        out = {
            "inputs": {"theta": args.theta, "tol": args.tol},
            "tau": tau,
            "h_at_tau": noise_factor(args.theta, tau),
            "paper_reported": REPORTED_TAU.get(args.theta),
        }
    elif args.sub == "minT":
        theory = _theory_from_args(args)
        floor = min_iterations(theory, args.n, args.p, args.K)
        out = {
            "inputs": {"n": args.n, "p": args.p, "K": args.K, "L": args.L,
                       "C": args.C, "q": args.q},
            "terms": floor.terms,
            "floor": floor.floor,
            "optimal_p_for_s": optimal_p(args.s) if args.s is not None else None,
        }
    elif args.sub == "bound":
        theory = _theory_from_args(args)
        schedule = _schedule_from_args(args)
        cfg = argparse.Namespace(
            n=args.n,
            noise=schedule,
            lr=LrSchedule(eta_base=args.eta, xi=args.xi),
            budgets=[_budget_from_args(args)] * args.n,
            clip=argparse.Namespace(g0=args.g),
            fusion=argparse.Namespace(theta=args.theta, tau=args.fusion_tau or args.tau),
        )
        breakdown = convergence_bound(theory, cfg, args.upsilon, args.rho)
        out = {"inputs": {"n": args.n, "T": args.T, "eta": args.eta, "xi": args.xi,
                          "upsilon": args.upsilon, "rho": args.rho},
               **breakdown.as_dict()}
    elif args.sub == "regime":
        theory = _theory_from_args(args)
        result = corollary_regime(
            args.p, args.n, args.T, args.s,
            [_budget_from_args(args)] * args.n,
            args.g, args.h if args.h is not None else noise_factor(args.theta, args.tau),
            theory, a1=args.a1, a2=args.a2, a3=args.a3,
        )
        out = {
            "inputs": {"p": args.p, "n": args.n, "T": args.T, "s": args.s},
            "regime": result.label,
            "value": result.value,
            "H": result.H,
            "nu": result.nu,
            "budget_term": result.budget_term,
        }
    print(json.dumps(_sanitize(out), indent=2))
    return 0


def _add_schedule_flags(p):
    p.add_argument("--form", default="stepwise", choices=["power", "stepwise"])
    p.add_argument("--s", type=float, default=0.2)
    p.add_argument("--tau", type=int, default=5)
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--a1", type=float, default=1.0)
    p.add_argument("--a2", type=float, default=10.0)
    p.add_argument("--T", type=int, default=1000)


def _add_budget_flags(p):
    p.add_argument("--epsilon", type=float, default=2.0)
    p.add_argument("--delta", type=float, default=1e-5)
    p.add_argument("--ratio", type=float, default=0.5, help="sampling ratio")
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=1.0)
    p.add_argument("--g", type=float, default=0.1, help="clip threshold")


def _add_theory_flags(p):
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--a-const", type=float, default=0.0, dest="a_const")
    p.add_argument("--m-const", type=float, default=0.0, dest="m_const")
    p.add_argument("--F0", type=float, default=0.0)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--x0-norm", type=float, default=0.0, dest="x0_norm")


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
    _add_schedule_flags(p_sigma)
    _add_budget_flags(p_sigma)

    p_tau = calc_sub.add_parser("tau", help="interval selection")
    p_tau.add_argument("--theta", type=float, required=True)
    p_tau.add_argument("--tol", type=float, default=0.01)

    p_mint = calc_sub.add_parser("minT", help="iteration floor")
    p_mint.add_argument("--n", type=int, required=True)
    p_mint.add_argument("--p", type=float, required=True)
    p_mint.add_argument("--K", type=float, default=1.0)
    p_mint.add_argument("--s", type=float, default=None)
    _add_theory_flags(p_mint)

    p_bound = calc_sub.add_parser("bound", help="convergence-bound breakdown")
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--eta", type=float, required=True)
    p_bound.add_argument("--xi", type=float, default=0.5)
    p_bound.add_argument("--theta", type=float, default=0.0)
    p_bound.add_argument("--fusion-tau", type=int, default=None, dest="fusion_tau")
    p_bound.add_argument("--upsilon", type=float, default=0.0)
    p_bound.add_argument("--rho", type=float, default=0.0)
    _add_schedule_flags(p_bound)
    _add_budget_flags(p_bound)
    _add_theory_flags(p_bound)

    p_reg = calc_sub.add_parser("regime", help="regime-dependent refined bound")
    p_reg.add_argument("--p", type=float, required=True)
    p_reg.add_argument("--n", type=int, required=True)
    p_reg.add_argument("--T", type=int, default=1000)
    p_reg.add_argument("--s", type=float, required=True)
    p_reg.add_argument("--h", type=float, default=None)
    p_reg.add_argument("--theta", type=float, default=0.5)
    p_reg.add_argument("--tau", type=int, default=5)
    p_reg.add_argument("--a1", type=float, default=1.0)
    p_reg.add_argument("--a2", type=float, default=10.0)
    p_reg.add_argument("--a3", type=float, default=5.0)
    _add_budget_flags(p_reg)
    _add_theory_flags(p_reg)

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
