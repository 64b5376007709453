"""Layer spans for the traced benchmark run.

The program itself carries no tracing: :class:`Tracer` wraps, from the
benchmark's side, the public entry points of each layer of ``repro`` for
the duration of one traced pass (:meth:`Tracer.layers`), then restores
them. Each wrapped call records a span ``(name, start, end, parent)`` in
memory; :meth:`Tracer.write` dumps them as JSON lines afterwards.

A span's self time is its duration minus the durations of its direct
child spans. The ``bench`` span covers a whole pass, so its self time is
the benchmark's own driving code, and the self times of all spans add up
to the traced wall time exactly.

Counters ride along at the same boundaries (samples emitted, candidates
returned, rows stepped, template cache misses, DTW templates abandoned),
so ratios are measured where the work happens.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict

#: Layer of a span: the part of its name before the first dot.
LAYERS = ("resampler", "positioning", "engine", "session", "manager", "lexicon", "serve", "bench")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """In-memory spans plus per-boundary counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    # -- spans ------------------------------------------------------------
    def _open(self, name: str) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))  # completed by _close
        self._stack.append(index)
        return index, parent

    def _close(self, name: str, index: int, parent: int, start: float) -> None:
        self._stack.pop()
        self.spans[index] = (name, start, time.perf_counter(), parent)

    def _inside(self, name: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][0] == name

    def wrap(self, function, name: str, count=None, part_of: str | None = None):
        """``function`` recording a span per call.

        ``count(args, result, before)`` updates counters after the call;
        ``count.before(args)``, when present, snapshots state before it.
        A call made directly inside a ``part_of`` span belongs to that span:
        it records no span of its own and counts nothing.
        """
        before = getattr(count, "before", None)
        tracer = self

        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                index, parent = tracer._open(name)
                start = time.perf_counter()
                try:
                    return await function(*args, **kwargs)
                finally:
                    tracer._close(name, index, parent, start)

            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if part_of is not None and tracer._inside(part_of):
                return function(*args, **kwargs)
            token = before(args) if before is not None else None
            index, parent = tracer._open(name)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(name, index, parent, start)
            if count is not None:
                count(tracer.counters, args, result, token)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        index, parent = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, index, parent, start)

    @contextlib.contextmanager
    def layers(self):
        """Wrap every layer's entry points for one pass, inside a ``bench`` span."""
        patches = _layer_patches()
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
        for owner, attr, name, count in patches:
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, count, _PART_OF.get(name)))
        try:
            with self.span("bench.pass"):
                yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    # -- output -----------------------------------------------------------
    def write(self, path) -> None:
        """Spans as JSON lines: ``{"id", "name", "start", "end", "parent"}``."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")

    def span_cost_s(self, calls: int = 20_000) -> float:
        """What one span adds to a call: a wrapped no-op against a bare one."""
        def noop():
            return None

        probe = Tracer()
        wrapped = probe.wrap(noop, "bench.noop")
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        return max(time.perf_counter() - start - bare, 0.0) / calls

    def raw(self) -> dict:
        """Mergeable per-layer sums and per-call samples of this tracer."""
        import numpy as np

        names = [span[0] for span in self.spans]
        starts = np.array([span[1] for span in self.spans])
        ends = np.array([span[2] for span in self.spans])
        parents = np.array([span[3] for span in self.spans], dtype=np.int64)
        duration = ends - starts
        has_parent = parents >= 0
        children = np.bincount(
            parents[has_parent], weights=duration[has_parent], minlength=len(names)
        )
        own = duration - children
        sums: dict[str, float] = defaultdict(float)
        samples: dict[str, list] = defaultdict(list)
        layers = [_layer(name) for name in names]
        for index, name in enumerate(names):
            layer = layers[index]
            parent = parents[index]
            sums[f"{name}.calls"] += 1
            sums[f"{name}.ms"] += duration[index] * 1e3
            sums[f"{layer}.self_ms"] += own[index] * 1e3
            if parent < 0 or layers[parent] != layer:
                sums[f"{layer}.total_ms"] += duration[index] * 1e3
                sums[f"{layer}.spans"] += 1
            if name == "positioning.candidates":
                samples["positioning.call_ms"].append(duration[index] * 1e3)
            elif name in ("engine.step", "engine.step_many"):
                samples["engine.step_us"].append(duration[index] * 1e6)
        sums.update(self.counters)
        sums["trace.span_cost_ms"] = len(names) * self.span_cost_s() * 1e3
        return {"sums": dict(sums), "samples": dict(samples)}


# ----------------------------------------------------------------------
# What is wrapped, and what is counted there
# ----------------------------------------------------------------------
def _counter(before=None):
    def decorate(count):
        count.before = before
        return count
    return decorate


@_counter(before=lambda args: args[0].dropped_reports)
def _count_resampler(counters, args, result, dropped_before):
    counters["resampler.samples"] += len(result)
    counters["resampler.dropped"] += args[0].dropped_reports - dropped_before


def _count_positioning(counters, args, result, _):
    counters["positioning.candidates"] += len(result)


def _count_step(counters, args, result, _):
    state = args[1]
    counters["engine.step_rows"] += 1
    counters["engine.active"] += state.active_count
    counters["engine.candidates"] += state.candidate_count


def _count_step_many(counters, args, result, _):
    items = args[1]
    counters["engine.step_rows"] += len(items)
    for state, _delta in items:
        counters["engine.active"] += state.active_count
        counters["engine.candidates"] += state.candidate_count


def _count_shortlist(counters, args, result, _):
    counters["lexicon.shortlist_total"] += len(result)


@_counter(before=lambda args: args[0].cached_templates)
def _count_template(counters, args, result, cached_before):
    counters["lexicon.template_misses"] += args[0].cached_templates - cached_before


def _count_dtw(counters, args, result, _):
    import numpy as np

    finite = int(np.isfinite(result).sum())
    counters["lexicon.dtw_evals"] += finite
    counters["lexicon.dtw_templates"] += len(result)


#: ``step_many`` hands a one-item batch to ``step``; that step is the
#: step_many call, not a second call.
_PART_OF = {"engine.step": "engine.step_many"}


def _layer_patches() -> list:
    """``(owner, attribute, span name, counter)`` for every wrapped entry point."""
    import repro.lexicon.recognizer as recognizer_module
    from repro.core.engine import BatchedTracer
    from repro.core.positioning import MultiResolutionPositioner
    from repro.lexicon.index import LexiconIndex
    from repro.lexicon.recognizer import LexiconRecognizer
    from repro.serve.service import TrackingService
    from repro.stream.manager import SessionManager
    from repro.stream.resampler import StreamResampler
    from repro.stream.session import TrackingSession

    return [
        (StreamResampler, "ingest", "resampler.ingest", _count_resampler),
        (MultiResolutionPositioner, "candidates", "positioning.candidates", _count_positioning),
        (BatchedTracer, "begin", "engine.begin", None),
        (BatchedTracer, "step", "engine.step", _count_step),
        (BatchedTracer, "step_many", "engine.step_many", _count_step_many),
        (BatchedTracer, "finish", "engine.finish", None),
        (TrackingSession, "finalize", "session.finalize", None),
        (SessionManager, "ingest", "manager.ingest", None),
        (SessionManager, "ingest_burst", "manager.ingest_burst", None),
        (SessionManager, "finalize", "manager.finalize", None),
        (SessionManager, "finalize_all", "manager.finalize_all", None),
        (LexiconRecognizer, "recognize", "lexicon.recognize", None),
        (LexiconRecognizer, "template", "lexicon.template", _count_template),
        (LexiconIndex, "shortlist", "lexicon.shortlist", _count_shortlist),
        (recognizer_module, "dtw_distance_many", "lexicon.dtw", _count_dtw),
        (TrackingService, "ingest", "serve.ingest", None),
        (TrackingService, "drain", "serve.drain", None),
    ]


# ----------------------------------------------------------------------
# Merged raw data -> per-layer metrics and table
# ----------------------------------------------------------------------
def merge_raw(raws: list) -> dict:
    sums: dict[str, float] = defaultdict(float)
    samples: dict[str, list] = defaultdict(list)
    for raw in raws:
        for key, value in raw["sums"].items():
            sums[key] += value
        for key, values in raw["samples"].items():
            samples[key].extend(values)
    return {"sums": sums, "samples": samples}


def _median(values) -> float:
    import statistics

    return float(statistics.median(values)) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(raw: dict, overhead_frac: float) -> dict:
    """Every per-layer metric, as ``{name: (value, unit)}``."""
    s = defaultdict(float, raw["sums"])
    samples = raw["samples"]
    step_calls = s["engine.step.calls"] + s["engine.step_many.calls"]
    template_calls = s["lexicon.template.calls"]
    wall_ms = s["bench.pass.ms"]
    layer_self = sum(s[f"{layer}.self_ms"] for layer in LAYERS if layer != "bench")
    return {
        "resampler.calls": (s["resampler.ingest.calls"], "count"),
        "resampler.ms": (s["resampler.total_ms"], "ms"),
        "resampler.samples": (s["resampler.samples"], "count"),
        "resampler.dropped": (s["resampler.dropped"], "count"),
        "positioning.calls": (s["positioning.candidates.calls"], "count"),
        "positioning.ms": (s["positioning.total_ms"], "ms"),
        "positioning.p50_ms": (_median(samples.get("positioning.call_ms", [])), "ms"),
        "positioning.candidates": (s["positioning.candidates"], "count"),
        "engine.step_calls": (step_calls, "count"),
        "engine.step_rows": (s["engine.step_rows"], "count"),
        "engine.rows_per_call": (_ratio(s["engine.step_rows"], step_calls), "count"),
        "engine.step_ms": (s["engine.step.ms"] + s["engine.step_many.ms"], "ms"),
        "engine.step_p50_us": (_median(samples.get("engine.step_us", [])), "us"),
        "engine.active_frac": (_ratio(s["engine.active"], s["engine.candidates"]), "fraction"),
        "engine.begin_ms": (s["engine.begin.ms"], "ms"),
        "engine.finish_ms": (s["engine.finish.ms"], "ms"),
        "session.finalize_calls": (s["session.finalize.calls"], "count"),
        "session.finalize_ms": (s["session.finalize.ms"], "ms"),
        "manager.ms": (s["manager.total_ms"], "ms"),
        "manager.self_ms": (s["manager.self_ms"], "ms"),
        "manager.events": (s["manager.events"], "count"),
        "manager.evictions": (s["manager.evictions"], "count"),
        "manager.stragglers": (s["manager.stragglers"], "count"),
        "lexicon.recognize_ms": (s["lexicon.recognize.ms"], "ms"),
        "lexicon.shortlist_ms": (s["lexicon.shortlist.ms"], "ms"),
        "lexicon.shortlist_size": (
            _ratio(s["lexicon.shortlist_total"], s["lexicon.shortlist.calls"]), "count"
        ),
        "lexicon.template_calls": (template_calls, "count"),
        "lexicon.template_misses": (s["lexicon.template_misses"], "count"),
        "lexicon.template_hit_ratio": (
            _ratio(template_calls - s["lexicon.template_misses"], template_calls), "fraction"
        ),
        "lexicon.template_ms": (s["lexicon.template.ms"], "ms"),
        "lexicon.dtw_calls": (s["lexicon.dtw.calls"], "count"),
        "lexicon.dtw_ms": (s["lexicon.dtw.ms"], "ms"),
        "lexicon.dtw_evals": (s["lexicon.dtw_evals"], "count"),
        "lexicon.abandon_frac": (
            _ratio(s["lexicon.dtw_templates"] - s["lexicon.dtw_evals"], s["lexicon.dtw_templates"]),
            "fraction",
        ),
        "lexicon.word_acc": (_ratio(s["lexicon.words_correct"], s["lexicon.words"]), "fraction"),
        "serve.ingest_wait_ms": (s["serve.ingest.ms"], "ms"),
        "serve.drain_ms": (s["serve.drain.ms"], "ms"),
        "serve.events": (s["serve.events"], "count"),
        "serve.bursts": (s["serve.bursts"], "count"),
        "serve.burst_bytes": (s["serve.burst_bytes"], "bytes"),
        "serve.event_bytes": (s["serve.event_bytes"], "bytes"),
        "trace.wall_ms": (wall_ms, "ms"),
        "trace.layers_self_ms": (layer_self, "ms"),
        "trace.bench_self_ms": (s["bench.self_ms"], "ms"),
        "trace.overhead_frac": (overhead_frac, "fraction"),
    }


def layer_table(raw: dict, overhead_frac: float) -> str:
    """Per layer: spans, inclusive time, self time and share of traced wall."""
    s = defaultdict(float, raw["sums"])
    wall = s["bench.pass.ms"]
    lines = [f"{'layer':12s} {'spans':>9s} {'total ms':>11s} {'self ms':>11s} {'self share':>10s}"]
    for layer in LAYERS:
        lines.append(
            f"{layer:12s} {int(s[f'{layer}.spans']):9d} {s[f'{layer}.total_ms']:11.1f} "
            f"{s[f'{layer}.self_ms']:11.1f} {_ratio(s[f'{layer}.self_ms'], wall):10.1%}"
        )
    layer_self = sum(s[f"{layer}.self_ms"] for layer in LAYERS if layer != "bench")
    unattributed = _ratio(wall - layer_self, wall)
    span_cost = _ratio(s["trace.span_cost_ms"], wall)
    within = unattributed <= max(overhead_frac, span_cost)
    lines.append(
        f"traced wall {wall:.1f} ms; layer self times sum to {layer_self:.1f} ms; "
        f"unattributed {unattributed:.1%} vs tracing overhead {overhead_frac:.1%} measured "
        f"(traced vs untraced reports/s), {span_cost:.1%} from span count x span cost "
        f"({'within' if within else 'exceeds'})"
    )
    return "\n".join(lines)
