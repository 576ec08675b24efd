"""Command-line front end: run / grid-search / sweep / partition."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .harness import (SWEEP_AXES, ConfigError, build_federation,
                      grid_search_lr, parse_config, run_experiment, sweep,
                      validate_config)


def _add_config_arg(parser):
    parser.add_argument("--config", required=True, help="experiment config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedme",
        description="Desk-scale personalized federated learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment (repeats included)")
    _add_config_arg(run_p)
    run_p.add_argument("--out", default=None, help="artifact output directory")
    run_p.add_argument("--seed", type=int, default=None, help="master seed override")

    grid_p = sub.add_parser("grid-search", help="learning-rate grid search")
    _add_config_arg(grid_p)
    grid_p.add_argument("--grid", default=None,
                        help="comma-separated learning rates (default: the "
                             "8-point 1e-3..10^0.5 grid)")

    sweep_p = sub.add_parser("sweep", help="sweep one experiment axis")
    _add_config_arg(sweep_p)
    sweep_p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated axis values")
    sweep_p.add_argument("--out", default=None)

    part_p = sub.add_parser("partition", help="inspect the client partition")
    _add_config_arg(part_p)
    part_p.add_argument("--report", action="store_true",
                        help="emit per-client label histograms as CSV")

    return parser


def _cmd_run(args) -> None:
    config = parse_config(args.config)
    if args.seed is not None:
        config = validate_config(replace(config, seed=args.seed))
    report = run_experiment(config, args.out)
    print(report)
    print(f"runtime {report.runtime_s:.1f}s", file=sys.stderr)


def _cmd_grid_search(args) -> None:
    config = parse_config(args.config)
    grid = None
    if args.grid is not None:
        try:
            grid = [float(v) for v in args.grid.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--grid: cannot parse {args.grid!r}") from exc
    best_lr, table = grid_search_lr(config, grid)
    print("lr,val_acc")
    for lr, acc in table:
        print(f"{lr:.6g},{acc:.6g}")
    print(f"best lr: {best_lr:.6g}")


def _cmd_sweep(args) -> None:
    config = parse_config(args.config)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    table = sweep(config, args.axis, values, out_dir=args.out)
    print(f"{args.axis},algorithm,mean,std,mean_pre_ft,std_pre_ft")
    for (value, alg), report in table.items():
        print(f"{value},{alg},{report.mean:.6g},{report.std:.6g},"
              f"{report.mean_pre_ft:.6g},{report.std_pre_ft:.6g}")


def _cmd_partition(args) -> None:
    config = parse_config(args.config)
    shards, pool = build_federation(config, config.seed)
    if args.report:
        classes = range(config.num_classes)
        print("client,n_train,n_val,n_test," +
              ",".join(f"class_{c}" for c in classes))
        for i, shard in enumerate(shards):
            hist = np.bincount(shard.labels, minlength=config.num_classes)
            print(f"{i},{shard.train.n},{shard.validation.n},"
                  f"{shard.test.n}," + ",".join(str(h) for h in hist))
    else:
        sizes = [shard.n for shard in shards]
        print(f"{len(shards)} clients, sizes min={min(sizes)} max={max(sizes)}, "
              f"unlabeled pool {len(pool)} rows")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "grid-search": _cmd_grid_search,
                "sweep": _cmd_sweep, "partition": _cmd_partition}
    try:
        handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
