"""Command-line surface.

Commands:
    verify-cholesky [--cases N --seed S]
    run --config FILE [--seed S --out FILE --engine vector|scalar]
    emit-transcripts --config FILE --out FILE [--kinds direct,simulated]
    filter-demo --budget B --spends a,b,c

Exit codes: 0 pass, 1 test failure, 2 usage, config or file error (a
missing ``--out`` directory is reported before any arm runs).
"""

from __future__ import annotations

import argparse
import os
import sys

from .budget import filter_new, remaining_sq, try_spend
from .curator import KINDS
from .errors import ConfigError, GdpSimError
from .harness import (
    _CANONICAL_TOL,
    _FACTOR_TOL,
    _NOISE_TOL,
    emit_transcripts,
    load_config,
    report_table,
    run_experiment,
    verify_cholesky,
    with_seed,
)


def _cmd_verify_cholesky(args) -> int:
    rep = verify_cholesky(seed=args.seed, cases=args.cases)
    print(f"cases: {rep.cases} (exhaustion: {rep.exhaustion_cases})")
    print(f"max |LL^T - (I - mm^T)|: {rep.max_factor_deviation:.3e} "
          f"(tolerance {_FACTOR_TOL:.1e})")
    print(f"max |U_streaming - U_dense|: {rep.max_streaming_deviation:.3e} "
          f"(tolerance {_NOISE_TOL:.1e})")
    print(f"max |L - oracle|: {rep.max_canonical_deviation:.3e} "
          f"(tolerance {_CANONICAL_TOL:.1e}); "
          f"canonical-form failures: {rep.canonical_failures}")
    print("PASS" if rep.passed else "FAIL")
    return 0 if rep.passed else 1


def _check_out_dir(path) -> None:
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise FileNotFoundError(f"--out: no such directory: {folder}")


def _cmd_run(args) -> int:
    if args.out:
        _check_out_dir(args.out)
    config = load_config(args.config)
    if args.seed is not None:
        config = with_seed(config, args.seed)
    report = run_experiment(config, engine=args.engine)
    payload = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        table_path = args.out + ".tsv"
        with open(table_path, "w") as fh:
            fh.write(report_table(report.results))
        print(f"report: {args.out}")
        print(f"table:  {table_path}")
    else:
        print(payload)
    print(f"checksum: {report.checksum}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_emit_transcripts(args) -> int:
    _check_out_dir(args.out)
    config = load_config(args.config)
    if args.seed is not None:
        config = with_seed(config, args.seed)
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    if not kinds or not set(kinds) <= set(KINDS) or len(set(kinds)) < len(kinds):
        raise ConfigError(f"--kinds must name one or more of {', '.join(KINDS)}, "
                          f"each once; got {args.kinds!r}")
    emit_transcripts(config, args.out, kinds=kinds)
    print(f"transcripts: {args.out}")
    return 0


def _cmd_filter_demo(args) -> int:
    spends = [s for s in args.spends.split(",") if s.strip() != ""]
    state = filter_new(float(args.budget))
    print(f"budget^2 = {state.budget_sq!r}")
    for text in spends:
        mu = float(text)
        accepted, state = try_spend(state, mu)
        verdict = "accepted" if accepted else "refused"
        print(f"spend {mu!r}: {verdict} "
              f"(spent^2 = {state.spent_sq!r}, remaining^2 = {remaining_sq(state)!r})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdpsim",
        description="Adaptive Gaussian-DP composition: filter, curator, "
                    "simulator, and Monte-Carlo equivalence harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-cholesky", help="random-suite factor verification")
    p.add_argument("--cases", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_cholesky)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override master_seed")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--engine", choices=("vector", "scalar"), default="vector")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("emit-transcripts", help="write per-round transcript records")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--kinds", default=",".join(KINDS))
    p.set_defaults(func=_cmd_emit_transcripts)

    p = sub.add_parser("filter-demo", help="walk spends through the budget filter")
    p.add_argument("--budget", required=True)
    p.add_argument("--spends", required=True, help="comma-separated spend list")
    p.set_defaults(func=_cmd_filter_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GdpSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
