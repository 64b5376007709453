"""Command line entry point: regenerate the paper's figures as text.

Usage::

    python -m repro.experiments                # every figure, fast preset
    python -m repro.experiments --full         # paper-scale workloads
    python -m repro.experiments fig11 fig14    # a subset
    python -m repro.experiments fig11 --workers 8
                                               # fan word simulations
                                               # across 8 processes

Process fan-out lives here, at the CLI layer: the figure modules take a
plain ``max_workers`` argument and stay importable without spawning
anything. Word *simulations* fan out to a process pool;
the reconstructions then run batched in this process through one merged
engine block (``reconstruct_many``) regardless of worker count, so
results are identical for any ``--workers`` value.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.harness import format_result
from repro.experiments.registry import EXPERIMENTS, run_experiment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the RF-IDraw paper's figures as text tables.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help=f"experiment ids to run (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale workloads (slow); default is a fast preset",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan word simulations across N worker processes "
             "(experiments without a batch stage ignore this)",
    )
    args = parser.parse_args(argv)

    wanted = args.experiments or list(EXPERIMENTS)
    unknown = [eid for eid in wanted if eid not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment ids: {', '.join(unknown)}")

    for experiment_id in wanted:
        started = time.time()
        result = run_experiment(
            experiment_id,
            fast=not args.full,
            max_workers=args.workers,
        )
        print(format_result(result))
        print(f"[{time.time() - started:.1f}s]")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
