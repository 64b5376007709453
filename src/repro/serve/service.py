"""The sharded async tracking service: asyncio front, process shards.

:class:`TrackingService` scales the single-process
:class:`~repro.stream.manager.SessionManager` across CPU cores without
touching its semantics: reports are routed by
:func:`~repro.serve.sharding.shard_for` (CRC-32 of the EPC) to one of
``shards`` worker processes, each running its own manager with the
*same* :class:`~repro.stream.config.SessionConfig` and advancing its
warm tags through merged
:meth:`~repro.core.engine.BatchedTracer.step_many` solves
(:meth:`SessionManager.ingest_burst`). Because an EPC's whole lifetime
lives on one shard, every per-tag trajectory, result and event sequence
is bit-identical to a single manager fed the same stream — sharding
changes *where* work runs, never *what* it computes.

The asyncio front provides:

* **bounded ingest with backpressure** — reports buffer per shard and
  ship in bursts; at most ``max_pending_bursts`` unacknowledged bursts
  may be in flight per shard, so ``await service.ingest(...)`` slows to
  the speed of the slowest shard instead of ballooning pipe buffers;
* **a merged lifecycle event stream** — :meth:`TrackingService.events`
  yields every shard's ``STARTED``/``POINT``/``FINALIZED``/``EVICTED``
  events (detached form) as one async iterator. Per EPC the order is
  exactly the single-manager order; across EPCs events interleave in
  shard-arrival order (the documented difference from a sequential
  replay, where cross-EPC order follows report order). The stream is
  itself bounded: a consumer that stops reading eventually blocks the
  shard readers — consume until the iterator ends (it ends at drain);
* **clean drain** — :meth:`TrackingService.drain` flushes buffers,
  waits out in-flight bursts, finalizes every shard and returns the
  merged ``{epc: result}`` map, summed :class:`ManagerStats` and
  per-EPC failure texts.

The synchronous helpers :func:`serve_reports` / :func:`replay_log` wire
feeder + consumer + drain for callers that just want the sharded
equivalent of ``SessionManager.replay``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import threading
from dataclasses import dataclass, field

from repro.io.logs import LogReadStats, iter_phase_logs
from repro.serve.sharding import shard_for
from repro.serve.worker import run_shard
from repro.stream.config import SessionConfig
from repro.stream.manager import ManagerStats, SessionEvent

__all__ = [
    "ShardError",
    "ServiceResult",
    "ServiceReplay",
    "TrackingService",
    "serve_reports",
    "replay_log",
]

_SENTINEL = object()


class ShardError(RuntimeError):
    """A shard worker crashed or vanished mid-stream."""


@dataclass(frozen=True)
class ServiceResult:
    """What :meth:`TrackingService.drain` returns.

    Attributes:
        results: merged ``{epc_hex: ReconstructionResult}`` across
            shards (EPC ownership is disjoint, so this is a plain
            union).
        stats: the shards' :class:`ManagerStats` summed via
            :meth:`ManagerStats.merge`, plus any coordinator-side
            skipped log lines.
        failures: ``{epc_hex: rendered_error}`` for sessions whose
            finalize failed (ghost EPCs and the like).
    """

    results: dict
    stats: ManagerStats
    failures: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ServiceReplay:
    """A finished synchronous run: drain output plus collected events."""

    results: dict
    stats: ManagerStats
    failures: dict = field(default_factory=dict)
    events: list = field(default_factory=list)


def _mp_context():
    """Prefer ``fork`` (copy-on-write system, no pickling) when offered."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


class TrackingService:
    """Shard a report stream across worker processes, asynchronously.

    Usage::

        service = TrackingService(system, shards=4, config=config)
        await service.start()
        consumer = asyncio.create_task(render(service.events()))
        async for report in reader:
            await service.ingest(report)        # backpressured
        outcome = await service.drain()          # ends events() too
        await consumer
        await service.stop()

    or as an async context manager (``stop`` runs on exit)::

        async with TrackingService(system, shards=4) as service:
            ...

    Args:
        system: the shared tracking pipeline, shipped to every shard.
        shards: worker process count (≥ 1).
        config: session/eviction policy applied identically per shard.
            Note per-shard semantics of manager-level limits: a
            ``max_sessions`` cap is per shard, and ``idle_timeout``
            frontiers advance per shard sub-stream.
        burst_size: reports buffered per shard before a burst ships.
        max_pending_bursts: unacknowledged bursts allowed in flight per
            shard — the ingest backpressure window.
        event_queue_size: merged event stream bound — slow consumers
            eventually pause the shard readers rather than buffer
            without limit.
        emit_points: ship per-sample ``POINT`` events from the workers;
            disable when only lifecycle edges and final results matter
            (far less pickle traffic).
        recognizer_factory: optional zero-arg callable (e.g.
            ``repro.lexicon.RecognizerFactory``) shipped to every
            shard; each worker builds its own recogniser from it and
            classifies trajectories at finalize. Recognitions ride the
            FINALIZED events; classification counters merge into the
            drained :class:`ManagerStats`.

    Workers start with ``fork`` where the platform offers it.
    """

    def __init__(
        self,
        system,
        shards: int = 1,
        config: SessionConfig | None = None,
        *,
        burst_size: int = 256,
        max_pending_bursts: int = 4,
        event_queue_size: int = 4096,
        emit_points: bool = True,
        recognizer_factory=None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if burst_size < 1:
            raise ValueError("burst_size must be at least 1")
        if max_pending_bursts < 1:
            raise ValueError("max_pending_bursts must be at least 1")
        self.system = system
        self.shards = shards
        self.config = config if config is not None else SessionConfig()
        self.burst_size = burst_size
        self.max_pending_bursts = max_pending_bursts
        self.event_queue_size = event_queue_size
        self.emit_points = emit_points
        self.recognizer_factory = recognizer_factory
        self._ctx = _mp_context()
        self._started = False
        self._stopped = False
        self._error: ShardError | None = None
        self._ingested = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "TrackingService":
        """Spawn the shard workers and their pipe readers."""
        if self._started:
            return self
        self._loop = asyncio.get_running_loop()
        self._events: asyncio.Queue = asyncio.Queue(self.event_queue_size)
        self._buffers: list[list] = [[] for _ in range(self.shards)]
        self._sems = [
            asyncio.Semaphore(self.max_pending_bursts)
            for _ in range(self.shards)
        ]
        self._send_locks = [asyncio.Lock() for _ in range(self.shards)]
        self._drained = [self._loop.create_future() for _ in range(self.shards)]
        self._seq = 0
        self._conns = []
        self._procs = []
        self._readers = []
        for shard in range(self.shards):
            parent, child = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=run_shard,
                args=(child, self.system, self.config, shard,
                      self.emit_points, self.recognizer_factory),
                daemon=True,
                name=f"repro-serve-shard-{shard}",
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
            reader = threading.Thread(
                target=self._reader,
                args=(shard, parent),
                daemon=True,
                name=f"repro-serve-reader-{shard}",
            )
            reader.start()
            self._readers.append(reader)
        self._started = True
        return self

    async def __aenter__(self) -> "TrackingService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def stop(self) -> None:
        """Tear the workers down (idempotent; safe after drain)."""
        if not self._started or self._stopped:
            self._stopped = True
            return
        self._stopped = True
        for shard, proc in enumerate(self._procs):
            if proc.is_alive() and not self._drained[shard].done():
                try:
                    await self._send(shard, ("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for proc in self._procs:
            await self._loop.run_in_executor(None, proc.join, 5.0)
            if proc.is_alive():
                proc.terminate()
                await self._loop.run_in_executor(None, proc.join, 5.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        # Unblock any events() consumer still waiting.
        self._push_sentinel()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    async def ingest(self, report) -> None:
        """Route one report to its shard (ships when a burst fills)."""
        self._require_running()
        self._ingested += 1
        shard = shard_for(report.epc_hex, self.shards)
        buffer = self._buffers[shard]
        buffer.append(report)
        if len(buffer) >= self.burst_size:
            await self._flush_shard(shard)

    async def ingest_many(self, reports) -> int:
        """Route an iterable of reports; returns how many were taken."""
        count = 0
        for report in reports:
            await self.ingest(report)
            count += 1
        return count

    async def flush(self) -> None:
        """Ship every partially filled burst buffer now."""
        for shard in range(self.shards):
            await self._flush_shard(shard)

    async def _flush_shard(self, shard: int) -> None:
        buffer = self._buffers[shard]
        if not buffer:
            return
        self._buffers[shard] = []
        self._raise_if_failed()
        await self._sems[shard].acquire()  # backpressure window
        self._raise_if_failed()
        seq = self._seq
        self._seq += 1
        await self._send(shard, ("burst", seq, buffer))

    async def _send(self, shard: int, message) -> None:
        # Pipe sends can block on a full OS buffer; keep them off the
        # event loop, one at a time per shard.
        async with self._send_locks[shard]:
            await self._loop.run_in_executor(
                None, self._conns[shard].send, message
            )

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    async def events(self):
        """The merged lifecycle event stream; ends when drain completes.

        Yields detached :class:`SessionEvent` instances. Per EPC the
        sequence equals the single-manager sequence; cross-EPC
        interleaving follows shard arrival order.
        """
        while True:
            event = await self._events.get()
            if event is _SENTINEL:
                return
            yield event

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    async def drain(self) -> ServiceResult:
        """Flush, finalize every shard, and merge what they tracked.

        After the returned future resolves, :meth:`events` iterators
        finish (the finalize-time events are delivered first) and the
        workers have exited.
        """
        self._require_running()
        await self.flush()
        # Wait out every in-flight burst: when all window permits can
        # be held at once, every burst has been acknowledged.
        for shard in range(self.shards):
            for _ in range(self.max_pending_bursts):
                await self._sems[shard].acquire()
            self._raise_if_failed()
            await self._send(shard, ("drain",))
        payloads = await asyncio.gather(*self._drained)
        results: dict = {}
        failures: dict = {}
        stats: ManagerStats | None = None
        for _, shard_results, shard_stats, shard_failures in sorted(
            payloads, key=lambda payload: payload[0]
        ):
            results.update(shard_results)
            failures.update(shard_failures)
            stats = shard_stats if stats is None else stats.merge(shard_stats)
        self._push_sentinel()
        for proc in self._procs:
            await self._loop.run_in_executor(None, proc.join, 5.0)
        return ServiceResult(results=results, stats=stats, failures=failures)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _require_running(self) -> None:
        if not self._started:
            raise RuntimeError("TrackingService.start() has not run")
        if self._stopped:
            raise RuntimeError("TrackingService is stopped")
        self._raise_if_failed()

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise self._error

    def _push_sentinel(self) -> None:
        if getattr(self, "_events", None) is None:
            return
        try:
            self._events.put_nowait(_SENTINEL)
        except asyncio.QueueFull:
            # A stalled consumer's queue is full of real events; drop
            # the oldest to make room for the terminator.
            try:
                self._events.get_nowait()
            except asyncio.QueueEmpty:
                pass
            self._events.put_nowait(_SENTINEL)

    def _fail(self, error: ShardError) -> None:
        """Record a shard failure and unwedge every waiter (loop thread)."""
        if self._error is None:
            self._error = error
        for sem in self._sems:
            for _ in range(self.max_pending_bursts + 1):
                sem.release()
        for future in self._drained:
            if not future.done():
                future.set_exception(error)
        self._push_sentinel()

    def _deliver(self, event: SessionEvent) -> bool:
        """Reader-thread → loop handoff for one event (blocking put)."""
        try:
            asyncio.run_coroutine_threadsafe(
                self._events.put(event), self._loop
            ).result()
            return True
        except RuntimeError:
            return False  # loop already closed; run is over

    def _reader(self, shard: int, conn) -> None:
        """Per-shard pipe reader thread: pump replies into the loop."""
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                if not self._drained[shard].done():
                    self._call_soon(
                        self._fail,
                        ShardError(
                            f"shard {shard} exited without draining"
                        ),
                    )
                return
            kind = message[0]
            if kind == "events":
                _, seq, events = message
                for event in events:
                    if not self._deliver(event):
                        return
                if seq is not None:
                    self._call_soon(self._sems[shard].release)
            elif kind == "drained":
                _, _, results, stats, failures = message
                self._call_soon(
                    self._resolve_drained,
                    shard,
                    (shard, results, stats, failures),
                )
                return
            elif kind == "error":
                _, _, tb = message
                self._call_soon(
                    self._fail, ShardError(f"shard {shard} crashed:\n{tb}")
                )
                return

    def _call_soon(self, callback, *args) -> None:
        try:
            self._loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:
            pass  # loop closed mid-teardown

    def _resolve_drained(self, shard: int, payload) -> None:
        future = self._drained[shard]
        if not future.done():
            future.set_result(payload)


# ----------------------------------------------------------------------
# Synchronous façades
# ----------------------------------------------------------------------
def serve_reports(
    system,
    reports,
    shards: int = 1,
    config: SessionConfig | None = None,
    *,
    collect_events: bool = True,
    **service_kwargs,
) -> ServiceReplay:
    """Run a report iterable through a sharded service, synchronously.

    The blocking counterpart of driving :class:`TrackingService` by
    hand: feeds the iterable (lazily — a generator streams in bounded
    memory), consumes the merged event stream, drains, and tears down.

    Args:
        system / shards / config: as :class:`TrackingService`.
        reports: any iterable of :class:`PhaseReport`, in stream order.
        collect_events: keep the merged event stream in the returned
            :attr:`ServiceReplay.events` list (set ``False`` — or
            construct with ``emit_points=False`` — for long runs where
            only results matter).
        **service_kwargs: forwarded to :class:`TrackingService`.
    """

    async def main() -> ServiceReplay:
        events: list = []
        async with TrackingService(
            system, shards=shards, config=config, **service_kwargs
        ) as service:

            async def consume() -> None:
                async for event in service.events():
                    if collect_events:
                        events.append(event)

            consumer = asyncio.ensure_future(consume())
            try:
                await service.ingest_many(reports)
                outcome = await service.drain()
            except BaseException:
                consumer.cancel()
                raise
            await consumer
        return ServiceReplay(
            results=outcome.results,
            stats=outcome.stats,
            failures=outcome.failures,
            events=events,
        )

    return asyncio.run(main())


def replay_log(
    system,
    paths,
    shards: int = 1,
    config: SessionConfig | None = None,
    *,
    strict: bool = True,
    collect_events: bool = True,
    **service_kwargs,
) -> ServiceReplay:
    """Replay recorded JSONL phase log(s) through a sharded service.

    The sharded counterpart of :meth:`SessionManager.replay`: accepts
    one log path or several (merged time-ordered via
    :func:`repro.io.logs.iter_phase_logs` — the multi-reader fan-in),
    streams lazily, and returns the merged results/stats/events.
    ``strict=False`` skips malformed lines and counts them in the
    returned stats, matching the single-manager replay contract.
    """
    if isinstance(paths, (str, bytes)) or hasattr(paths, "__fspath__"):
        paths = [paths]
    log_stats = LogReadStats()
    reports = iter_phase_logs(paths, strict=strict, stats=log_stats)
    replay = serve_reports(
        system,
        reports,
        shards=shards,
        config=config,
        collect_events=collect_events,
        **service_kwargs,
    )
    if log_stats.skipped_lines:
        replay = dataclasses.replace(
            replay,
            stats=dataclasses.replace(
                replay.stats,
                skipped_log_lines=replay.stats.skipped_log_lines
                + log_stats.skipped_lines,
            ),
        )
    return replay
