"""Command line front end: ``grainflow run`` and ``grainflow stats``."""

from __future__ import annotations

import argparse
import glob
import os
import sys

from .runner import BACKENDS, ConfigError, make_config, parse_config, run
from .stats import read_stats_csv


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="grainflow",
        description="Front-tracking grain growth simulation")
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("run", help="run one experiment from a config file")
    r.add_argument("--config", required=True, help="key=value config file")
    r.add_argument("--parts", type=int, help="number of workers")
    r.add_argument("--increments", type=int)
    r.add_argument("--seed", type=int)
    r.add_argument("--backend", choices=BACKENDS,
                   help="inproc: worker threads in this process; "
                        "mpi: one rank per MPI process (needs mpi4py)")
    r.add_argument("--out", help="output directory")

    s = sub.add_parser("stats", help="summarize a finished run directory")
    s.add_argument("--in", dest="in_dir", required=True)
    return p


def _cmd_run(args) -> int:
    cfg = make_config(parse_config(args.config),
                      n_parts=args.parts, increments=args.increments,
                      seed=args.seed, backend=args.backend, out=args.out)
    run(cfg)
    return 0


def _cmd_stats(args) -> int:
    path = os.path.join(args.in_dir, "stats.csv")
    if not os.path.exists(path):
        raise ConfigError(f"no stats.csv under {args.in_dir}")
    recs = read_stats_csv(path)
    first, last = recs[0], recs[-1]
    eroms = [r.erom for r in recs]
    print(f"rows: {len(recs)}  (t = {first.t:g} .. {last.t:g} s)")
    print(f"grains: {first.grains} -> {last.grains}")
    print(f"mean size: {first.mean_size_mm:.6g} -> {last.mean_size_mm:.6g} mm")
    print(f"erom: mean {sum(eroms) / len(eroms):.4g}, max {max(eroms):.4g}")
    print("final elements: "
          + " ".join(f"p{i}={c}" for i, c in enumerate(last.elements)))
    timings = os.path.join(args.in_dir, "timings.csv")
    if os.path.exists(timings):
        with open(timings) as f:
            walls = [float(line.split(",")[1]) for line in f.readlines()[1:]]
        if walls:
            print(f"wall: {sum(walls):.3f} s over {len(walls)} increments")
    snaps = sorted(glob.glob(os.path.join(args.in_dir, "snapshot_*.vtk")))
    print(f"snapshots: {len(snaps)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.cmd == "run":
            return _cmd_run(args)
        return _cmd_stats(args)
    except (ConfigError, OSError) as exc:
        print(f"grainflow: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
