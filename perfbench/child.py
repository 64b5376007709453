"""One fresh interpreter of a benchmark run: build inputs, or measure a part.

``run.py`` starts this script once to build (or find cached) inputs and
then once per part of the run, so that every part pays its own set-up
in a fresh process: no process cache (``default_lexicon``, the
simulator's ``lru_cache``s, warm numpy) can hide ``setup_s``. Each
invocation prints one JSON line on stdout.

    python3 perfbench/child.py prepare WORKLOAD SEED SIZE OUT
    python3 perfbench/child.py measure WORKLOAD INPUTS SECONDS TRACE PART [--tiny]
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: one thread per process keeps
# timings steady on small machines.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import asyncio  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402


def prepare(args) -> dict:
    inputs = workloads.prepare(args.workload, args.seed, args.size)
    out = Path(args.out)
    tmp = out.with_suffix(".tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(inputs, handle, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.replace(out)
    return {"inputs": str(out)}


class Record:
    """What one part measured, in the JSON form ``run.py`` merges."""

    def __init__(self, setup_s: float) -> None:
        self.setup_s = setup_s
        self.passes: list[dict] = []
        self.errors_mm: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.words = 0
        self.words_correct = 0
        self.problems: list[str] = []

    def add_pass(self, reports: int, wall_s: float, traced: bool, point_lags: list,
                 word_lags: list, unit: str) -> None:
        """One timed run of one ``unit`` of work (the fleet stream, a gesture)."""
        self.passes.append({
            "unit": unit, "reports": reports, "wall_s": wall_s, "traced": traced,
            "point_lags_ms": point_lags, "word_lags_ms": word_lags,
        })

    def as_dict(self, tracer: tracing.Tracer | None) -> dict:
        return {
            "setup_s": self.setup_s,
            "peak_rss_mb": workloads.peak_rss_mb(),
            "passes": self.passes,
            "errors_mm": self.errors_mm,
            "attempted": self.attempted,
            "failed": self.failed,
            "words": self.words,
            "words_correct": self.words_correct,
            "problems": self.problems,
            "layers": tracer.raw() if tracer is not None else None,
        }


def _count_manager(tracer: tracing.Tracer, done) -> None:
    tracer.counters["manager.events"] += len(done.points) + len(done.finals)
    tracer.counters["manager.evictions"] += done.stats.evicted_sessions
    tracer.counters["manager.stragglers"] += done.stats.stragglers


def _count_serve(tracer: tracing.Tracer, done, reports) -> None:
    """Bursts and bytes the service moved, recomputed outside the timed pass.

    With one shard every report goes to shard 0, which ships a burst per
    ``BURST`` reports plus the remainder at drain.
    """
    from multiprocessing.reduction import ForkingPickler

    for seq, lo in enumerate(range(0, len(reports), workloads.BURST)):
        burst = ("burst", seq, reports[lo:lo + workloads.BURST])
        tracer.counters["serve.bursts"] += 1
        tracer.counters["serve.burst_bytes"] += len(ForkingPickler.dumps(burst))
    tracer.counters["serve.events"] += len(done.events)
    tracer.counters["manager.evictions"] += done.stats.evicted_sessions
    tracer.counters["manager.stragglers"] += done.stats.stragglers
    for event in done.events:
        tracer.counters["serve.event_bytes"] += len(ForkingPickler.dumps(event))


def _score_fleet(record: Record, done, inputs: dict, traced: bool) -> None:
    record.attempted += len(inputs["truth"])
    record.failed += done.failed
    problems, point_lags, word_lags = workloads.check_fleet_pass(done, inputs)
    record.add_pass(done.reports, done.wall_s, traced, point_lags, word_lags, "fleet")
    record.problems.extend(problems)
    if not record.errors_mm:
        record.errors_mm = workloads.fleet_errors_mm(done.results, inputs)


def _keep_going(record: Record, share: float) -> bool:
    """Another pass fits in this part's share of the run (at least two
    passes: run.py keeps the faster half)."""
    walls = [p["wall_s"] for p in record.passes]
    if len(walls) < 2:
        return True
    return sum(walls) + walls[-1] <= share


def measure_fleet(args, start: float):
    context = workloads.setup(args.workload, args.tiny)
    record = Record(time.perf_counter() - start)
    inputs = _load(args.inputs)
    tracer = tracing.Tracer() if args.trace else None
    while _keep_going(record, args.seconds):
        traced = tracer is not None and len(record.passes) % 2 == 1
        if traced:
            with tracer.layers():
                done = workloads.fleet_pass(context["system"], inputs["stream"])
            _count_manager(tracer, done)
        else:
            done = workloads.fleet_pass(context["system"], inputs["stream"])
        _score_fleet(record, done, inputs, traced)
    return record, tracer


async def _measure_serve(args, start: float):
    from repro.serve import ShardError

    context = workloads.setup(args.workload, args.tiny)
    service = await workloads.start_service(context["system"])
    record = Record(time.perf_counter() - start)
    inputs = _load(args.inputs)
    reports = inputs["stream"]
    tracer = tracing.Tracer() if args.trace else None
    while _keep_going(record, args.seconds):
        if service is None:
            service = await workloads.start_service(context["system"])
        traced = tracer is not None and len(record.passes) % 2 == 1
        try:
            if traced:
                # Wrap after the worker forked, so it runs untraced code.
                with tracer.layers():
                    done = await workloads.serve_pass(service, reports)
                _count_serve(tracer, done, reports)
            else:
                done = await workloads.serve_pass(service, reports)
        except ShardError as error:
            await service.stop()
            record.problems.append(f"shard error: {error}")
            record.attempted += len(inputs["truth"])
            record.failed += len(inputs["truth"])
            break
        service = None
        _score_fleet(record, done, inputs, traced)
    if service is not None:
        await service.stop()
    return record, tracer


def measure_words(args, start: float):
    """The part's gestures ``WORDS_PASSES`` times; with ``--trace 1``, once more traced.

    Every pass after the first gets a fresh recogniser, so each starts
    with an empty template cache and repeats the same work.
    """
    from repro.lexicon import LexiconRecognizer

    context = workloads.setup(args.workload, args.tiny)
    record = Record(time.perf_counter() - start)
    gestures = _load(args.inputs)["gestures"][args.part::args.parts]
    tracer = tracing.Tracer() if args.trace else None
    passes = workloads.WORDS_PASSES + (tracer is not None)
    for repeat in range(passes):
        traced = tracer is not None and repeat == passes - 1
        recognizer = context["recognizer"] if repeat == 0 else LexiconRecognizer(
            context["lexicon"]
        )
        with tracer.layers() if traced else contextlib.nullcontext():
            runs, stats = workloads.words_pass(context["system"], recognizer, gestures)
        for gesture, run in zip(gestures, runs):
            record.add_pass(run.reports, run.wall_s, traced, run.point_lags_ms,
                            [] if run.word_lag_ms is None else [run.word_lag_ms], run.epc)
            record.attempted += 1
            record.failed += run.failed
            if run.word_lag_ms is None:
                record.problems.append(
                    f"gesture {gesture['word']!r} did not finalize with a recognition"
                )
            if repeat == 0:
                record.errors_mm.extend(run.errors_mm)
                record.words += 1
                record.words_correct += run.correct
        record.failed += stats.failed_sessions + stats.recognition_errors
        if traced:
            tracer.counters["manager.events"] += sum(
                len(run.point_lags_ms) + (run.word_lag_ms is not None) for run in runs
            )
            tracer.counters["manager.evictions"] += stats.evicted_sessions
            tracer.counters["manager.stragglers"] += stats.stragglers
            tracer.counters["lexicon.words"] += len(runs)
            tracer.counters["lexicon.words_correct"] += sum(run.correct for run in runs)
    return record, tracer


def _load(path: str) -> dict:
    with open(path, "rb") as handle:
        return pickle.load(handle)


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__)
    modes = parser.add_subparsers(dest="mode", required=True)
    prep = modes.add_parser("prepare")
    prep.add_argument("workload")
    prep.add_argument("seed", type=int)
    prep.add_argument("size", type=int)
    prep.add_argument("out")
    meas = modes.add_parser("measure")
    meas.add_argument("workload")
    meas.add_argument("inputs")
    meas.add_argument("seconds", type=float, help="this part's share of the run")
    meas.add_argument("trace", type=int)
    meas.add_argument("part", help="K/N: this is part K of N")
    meas.add_argument("--trace-out", default=None)
    meas.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "prepare":
        print(json.dumps(prepare(args)))
        return 0
    args.part, args.parts = (int(value) for value in args.part.split("/"))
    if args.workload == "words":
        record, tracer = measure_words(args, start)
    elif args.workload == "fleet-serve":
        record, tracer = asyncio.run(_measure_serve(args, start))
    else:
        record, tracer = measure_fleet(args, start)
    print(json.dumps(record.as_dict(tracer), default=float))
    if tracer is not None and args.trace_out:
        tracer.write(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
