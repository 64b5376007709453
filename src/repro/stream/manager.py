"""Multi-tag session management: route reports by EPC, emit lifecycle events.

The paper's multi-user story (section 2: every tag carries a unique EPC,
so many users can share one virtual touch screen) becomes first-class
here: a :class:`SessionManager` owns one
:class:`~repro.stream.session.TrackingSession` per tag, routes each
incoming :class:`~repro.rfid.reader.PhaseReport` to its tag's session,
and surfaces the session lifecycle as events/callbacks::

    manager = SessionManager(system)
    manager.on_session_started = lambda e: print("tag", e.epc_hex)
    manager.on_point = lambda e: ui.draw(e.point.position)
    for report in reader_loop():
        manager.ingest(report)
    results = manager.finalize_all()   # {epc_hex: ReconstructionResult}

:meth:`SessionManager.replay` drives a recorded JSONL phase log through
the manager by streaming the *file* lazily
(:func:`repro.io.logs.iter_phase_log`) with bounded per-report work —
the offline test harness for the streaming stack and the migration path
for existing recorded sessions. (The sessions themselves still
accumulate per-antenna and per-step history and the raw reports for
``finalize()``; a ``retain_results`` cap makes each session release
those buffers the moment it finalizes and sheds the oldest finalized
sessions entirely, so even an unbounded replay holds bounded memory.)

For always-on deployments the manager also bounds its own state: an
``idle_timeout`` auto-finalizes (``EVICTED`` + ``FINALIZED`` events) any
tag that stops replying — judged by report time, so replays of recorded
logs evict at the same points a live run would — and an optional
``max_sessions`` cap evicts the longest-idle open session to make room
for a newly seen EPC. Reports for an evicted tag are counted as
stragglers, like reports for an explicitly finalized one.
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable

import numpy as np

from repro.core.pipeline import ReconstructionResult, RFIDrawSystem
from repro.stream.config import SessionConfig
from repro.rfid.reader import PhaseReport
from repro.stream.session import (
    TrackingSession,
    TrajectoryPoint,
    step_sessions,
)

__all__ = [
    "ManagerStats",
    "ReplayResult",
    "SessionEventType",
    "SessionEvent",
    "SessionStarted",
    "PointEmitted",
    "SessionFinalized",
    "SessionEvicted",
    "SessionManager",
]


class SessionEventType(enum.Enum):
    """What happened to a per-tag session."""

    STARTED = "started"
    POINT = "point"
    FINALIZED = "finalized"
    EVICTED = "evicted"


@dataclass(frozen=True)
class SessionEvent:
    """One lifecycle event of one tag's session.

    Every event the manager fires is one of the four frozen subclasses
    below — :class:`SessionStarted`, :class:`PointEmitted`,
    :class:`SessionFinalized`, :class:`SessionEvicted` — so consumers
    may dispatch on ``isinstance``; each subclass also carries its
    lifecycle edge as the class constant :attr:`type`. The same union
    flows through ``SessionManager`` callbacks,
    :meth:`SessionManager.replay`, and the sharded
    :class:`repro.serve.TrackingService`'s merged event stream
    (there in :meth:`detached` form, since sessions live in the worker
    process).

    Attributes:
        type: which lifecycle edge fired (a class constant of each
            subclass, not a field).
        epc_hex: the tag.
        session: the session the event belongs to (``None`` on events
            shipped across a process boundary — see :meth:`detached`).
        point: the emitted point (``POINT`` events only).
        result: the final reconstruction (``FINALIZED`` and ``EVICTED``
            events; ``None`` on an ``EVICTED`` event whose finalize
            failed — the error is then in ``SessionManager.failures``).
        recognition: the classified word for the finalized trajectory
            (``FINALIZED`` events of a manager constructed with a
            ``recognizer``) — a
            :class:`repro.lexicon.recognizer.RecognitionResult`.
    """

    type: ClassVar[SessionEventType]

    epc_hex: str
    session: TrackingSession | None
    point: TrajectoryPoint | None = None
    result: ReconstructionResult | None = None
    recognition: object | None = None

    def detached(self) -> "SessionEvent":
        """A copy without the live session reference.

        The wire form: points, results and recognitions pickle cleanly
        across a process boundary, the session object (resampler
        buffers, trace state, a reference to the whole system) does not
        belong on one.
        """
        return dataclasses.replace(self, session=None)


class SessionStarted(SessionEvent):
    """A newly seen EPC opened a session."""

    type = SessionEventType.STARTED


class PointEmitted(SessionEvent):
    """A session emitted one live :class:`TrajectoryPoint`."""

    type = SessionEventType.POINT


class SessionFinalized(SessionEvent):
    """A session closed with a :class:`ReconstructionResult`."""

    type = SessionEventType.FINALIZED


class SessionEvicted(SessionEvent):
    """The eviction policy closed a session (after its ``FINALIZED``
    event when the finalize succeeded; ``result=None`` when it failed)."""

    type = SessionEventType.EVICTED


@dataclass(frozen=True)
class ManagerStats:
    """One structured snapshot of a manager's health counters.

    Until this existed the counters lived in scattered attributes
    (``stragglers`` here, ``dropped_reports`` per session's resampler,
    skip counts nowhere) — :meth:`SessionManager.stats` gathers them so
    monitoring, the replay driver and the fault testbed read one value.

    Counter totals include sessions already shed under a
    ``retain_results`` cap (the manager accumulates their tallies before
    dropping them), so a bounded manager still reports unbounded-stream
    truth.

    Attributes:
        open_sessions: sessions still ingesting.
        finalized_sessions: sessions closed with a result (shed included).
        failed_sessions: sessions whose finalize failed (ghost EPCs).
        evicted_sessions: sessions closed by the eviction policy, ever
            (unlike ``evicted_epcs``, never truncated by the cap).
        shed_sessions: closed sessions dropped under ``retain_results``.
        stragglers: reports for already-closed tags, dropped.
        ingested_reports: every report handed to :meth:`ingest`.
        dropped_reports: reports the resamplers discarded under the
            ``"drop"`` policy (stale arrivals + non-finite phases).
        dropped_nonfinite: the non-finite subset of ``dropped_reports``.
        skipped_foreign_reports: reports EPC-filtered by pinned sessions.
        skipped_log_lines: malformed JSONL lines skipped by
            non-strict :meth:`replay` calls.
        injected: external fault counters attached via
            :meth:`SessionManager.note_injected` (the testbed's
            fault-injection tallies); empty for live streams.
        classified: finalized trajectories the manager's ``recognizer``
            classified successfully.
        recognition_errors: finalized trajectories whose recognition
            raised (the result itself is unaffected).
        dtw_evals: total completed DTW template evaluations across all
            classifications (early-abandoned templates excluded).
        shortlist_hist: ``{str(shortlist_size): count}`` histogram of
            per-classification shortlist sizes — see
            :meth:`shortlist_percentiles`. A dict keyed by stringified
            size so it merges and serialises like :attr:`injected`.
    """

    open_sessions: int
    finalized_sessions: int
    failed_sessions: int
    evicted_sessions: int
    shed_sessions: int
    stragglers: int
    ingested_reports: int
    dropped_reports: int
    dropped_nonfinite: int
    skipped_foreign_reports: int
    skipped_log_lines: int
    injected: dict[str, int] = field(default_factory=dict)
    classified: int = 0
    recognition_errors: int = 0
    dtw_evals: int = 0
    shortlist_hist: dict[str, int] = field(default_factory=dict)

    #: Dict-valued counters that merge per key over the union of keys.
    _DICT_COUNTERS = ("injected", "shortlist_hist")

    def as_dict(self) -> dict:
        """Plain-dict form (JSON-ready, e.g. for score tables)."""
        return dataclasses.asdict(self)

    def shortlist_percentiles(
        self, percentiles: tuple[int, ...] = (50, 90, 99)
    ) -> dict[str, float]:
        """Shortlist-size percentiles from :attr:`shortlist_hist`.

        Returns ``{"p50": ..., ...}``; empty when nothing was
        classified. Exact percentiles of the recorded distribution —
        the histogram keeps every distinct size, it merely stores them
        sparsely.
        """
        if not self.shortlist_hist:
            return {}
        sizes = np.array(sorted(int(k) for k in self.shortlist_hist))
        counts = np.array(
            [self.shortlist_hist[str(s)] for s in sizes], dtype=float
        )
        cumulative = np.cumsum(counts) / counts.sum()
        return {
            f"p{q}": float(sizes[int(np.searchsorted(cumulative, q / 100.0))])
            for q in percentiles
        }

    def merge(self, other: "ManagerStats") -> "ManagerStats":
        """Sum two snapshots counter by counter.

        Built for sharded aggregation
        (:class:`repro.serve.TrackingService` merges one snapshot per
        worker): every integer counter adds, and the :attr:`injected`
        fault tallies add *per key over the union of keys* — a fault
        type recorded by only one shard must survive the merge instead
        of being silently dropped.
        """
        if not isinstance(other, ManagerStats):
            return NotImplemented
        counters = {}
        for spec in dataclasses.fields(ManagerStats):
            if spec.name in self._DICT_COUNTERS:
                continue
            counters[spec.name] = getattr(self, spec.name) + getattr(
                other, spec.name
            )
        for name in self._DICT_COUNTERS:
            merged = dict(getattr(self, name))
            for key, value in getattr(other, name).items():
                merged[key] = merged.get(key, 0) + value
            counters[name] = merged
        return ManagerStats(**counters)

    __add__ = merge


class ReplayResult(dict):
    """:meth:`SessionManager.replay`'s return value.

    Still the plain ``{epc_hex: ReconstructionResult}`` mapping it
    always was (every existing caller keeps working), plus the
    end-of-replay :class:`ManagerStats` snapshot as :attr:`stats` — so
    a replay reports how dirty its log was alongside what it answered.
    """

    def __init__(self, results: dict, stats: ManagerStats) -> None:
        super().__init__(results)
        self.stats = stats


class SessionManager:
    """Routes a merged multi-tag report stream to per-tag sessions.

    Every tag's session is a
    :class:`~repro.stream.session.TrackingSession` built from the one
    :attr:`config`.

    Args:
        system: the pipeline facade shared by every session (one
            deployment/positioner/tracer serves all tags).
        config: the session policy every tag's session runs with, plus
            the manager's own eviction and retention policy (see
            :class:`~repro.stream.config.SessionConfig`; ``None`` means
            ``SessionConfig()``):

            * ``idle_timeout`` is keyed on *report* time (not wall
              clock, so recorded replays behave like live streams): a
              tag whose last report is more than this many seconds
              behind the newest report seen by the manager is
              auto-finalized — its ``FINALIZED`` event fires, then an
              ``EVICTED`` event. A day-long merged stream therefore
              holds bounded open-session state no matter how many tags
              come and go. ``None`` keeps sessions open until finalized
              explicitly.
            * ``max_sessions`` caps concurrently *open* sessions; when a
              new EPC would exceed it, the open session with the oldest
              last report is evicted first.
            * ``retain_results`` caps *closed* session history. ``None``
              keeps every session forever — fine for a gesture,
              unbounded on a day-long stream. With a cap, each session
              releases its resampler/trace/report buffers the moment
              it finalizes (:meth:`TrackingSession.release`; its
              result and points stay readable), and once more than
              ``retain_results`` closed sessions accumulate the oldest
              are shed from the manager entirely — ghost sessions whose
              eviction finalize failed included, along with their
              :attr:`failures`/:attr:`evicted_epcs` bookkeeping, so the
              manager's state stays bounded no matter how many tags (or
              noise EPCs) a stream carries. Shed results must have been
              consumed through the ``FINALIZED`` event or the
              :meth:`replay` return value (which taps that event);
              :meth:`finalize_all` only covers sessions still held. A
              shed tag that starts replying again begins a *fresh*
              session (a new gesture) rather than counting as a
              straggler.
        recognizer: optional word recogniser (a ``WordRecognizer`` or
            a ``LexiconRecognizer``); every successful finalize calls its
            ``recognize`` on the trajectory and attaches the result to
            the ``FINALIZED`` event.

    Attributes:
        on_session_started / on_point / on_session_finalized /
        on_session_evicted: optional callbacks, each receiving a
            :class:`SessionEvent`.
        evicted_epcs: EPCs auto-finalized by the eviction policy, in
            eviction order. A report arriving for an evicted tag counts
            as a straggler (see :meth:`ingest`) — even if its eviction
            finalize failed, so one dead ghost cannot make every later
            report retry a doomed finalize.
    """

    def __init__(
        self,
        system: RFIDrawSystem,
        config: SessionConfig | None = None,
        recognizer=None,
    ) -> None:
        self.system = system
        self.config = config if config is not None else SessionConfig()
        # Optional word recogniser (e.g. ``WordRecognizer`` or
        # ``repro.lexicon.LexiconRecognizer``): every successful
        # finalize classifies the trajectory, attaches the
        # ``RecognitionResult`` to the FINALIZED event and tallies the
        # work in stats(). Recognition failures never fail the
        # finalize — the trajectory is the product, the word a bonus.
        self.recognizer = recognizer
        self.recognitions: dict[str, object] = {}
        self.classified = 0
        self.recognition_errors = 0
        self.dtw_evals = 0
        self.shortlist_hist: dict[str, int] = {}
        # Closed EPCs (finalized, or ghost-evicted with a failed
        # finalize) in close order — the shed queue when a
        # retain_results cap is set.
        self._closed_order: deque[str] = deque()
        self.sessions: dict[str, TrackingSession] = {}
        self.failures: dict[str, Exception] = {}
        self.stragglers = 0
        self.ingested_reports = 0
        self.skipped_log_lines = 0
        self.injected_counters: dict[str, int] = {}
        self.last_report_time: dict[str, float] = {}
        # (idle-clock reading, epc), one entry per tag with a clock. The
        # idle sweep pops only entries older than the cutoff: a tag that
        # reported since goes back in with its newer clock, a closed one
        # is dropped. So the sweep costs O(evicted) per report, not
        # O(open sessions), and only a tag's first report pays a push.
        self._idle_heap: list[tuple[float, str]] = []
        self.evicted_epcs: list[str] = []
        self.evicted_count = 0
        # Accumulated tallies of sessions shed under retain_results, so
        # stats() stays truthful after their sessions are gone.
        self._shed_finalized = 0
        self._shed_failed = 0
        self._shed_dropped = 0
        self._shed_nonfinite = 0
        self._shed_foreign = 0
        self._closed: set[str] = set()
        # Insertion-ordered registry of sessions believed open, purged
        # lazily; evictions fire in this (session-open) order.
        self._open: dict[str, None] = {}
        self._frontier = float("-inf")
        self.on_session_started: Callable[[SessionEvent], None] | None = None
        self.on_point: Callable[[SessionEvent], None] | None = None
        self.on_session_finalized: Callable[[SessionEvent], None] | None = None
        self.on_session_evicted: Callable[[SessionEvent], None] | None = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.sessions)

    def epcs(self) -> list[str]:
        """EPCs with a session, in first-seen order."""
        return list(self.sessions)

    def session_for(self, epc_hex: str) -> TrackingSession:
        """The session of a tag, creating (and announcing) it if new."""
        session = self.sessions.get(epc_hex)
        if session is None:
            session = TrackingSession(
                self.system, epc_hex=epc_hex, config=self.config
            )
            self.sessions[epc_hex] = session
            self._open[epc_hex] = None
            self._fire(
                self.on_session_started, SessionStarted(epc_hex, session)
            )
        return session

    def ingest(self, report: PhaseReport) -> list[SessionEvent]:
        """Route one report; return the events it produced.

        A straggler report for a tag whose session was already finalized
        or evicted (the tag keeps replying after its gesture was closed
        out) is dropped and counted in :attr:`stragglers` rather than
        crashing the shared reader loop.

        With an eviction policy configured, each report first advances
        the report-time frontier and sweeps idle sessions; any
        ``EVICTED`` events that fires (possibly for *other* tags than
        the report's, and for the report's own tag if it returns after
        idling out) are included in the returned list ahead of the
        report's own ``POINT`` events.
        """
        events: list[SessionEvent] = []
        pending: dict[str, list] = {}
        self._route(report, events, pending)
        self._flush(pending, events)
        return events

    def ingest_burst(self, reports: Iterable[PhaseReport]) -> list[SessionEvent]:
        """Route a burst of reports, advancing all tags in merged engine calls.

        Semantically :meth:`ingest` in a loop — same routing, straggler
        accounting, frontier sweep and eviction per report, and
        **bit-identical per-tag points and results** — but the tracer
        work is batched: the timeline samples each report unlocks are
        collected per session, then advanced by
        :func:`repro.stream.session.step_sessions` in aligned rounds
        where every warm session's next sample joins a single
        ``(Σtags·C, 2)`` :meth:`repro.core.engine.BatchedTracer.step_many`
        solve (grouped by :attr:`repro.core.engine.TraceState.merge_key`).
        With many concurrently warm tags this amortizes
        the per-step numpy dispatch across the whole fleet — the hot
        loop of the sharded :class:`repro.serve.TrackingService`.

        Ordering contract: per tag, ``POINT`` events keep exactly the
        order :meth:`ingest` would emit; *across* tags the burst emits
        eviction events at their routing positions first, then points
        in round-robin (sample-round) order rather than report order.
        A session evicted mid-burst has its collected samples stepped
        (and their ``POINT`` events fired) before its
        ``FINALIZED``/``EVICTED`` events fire, so no point is lost or
        reordered against its own lifecycle. Every collected sample is
        stepped before the ``on_point`` callbacks of its batch fire, so
        a callback that raises loses those events for the caller but
        never leaves a session behind its resampler: the caller may
        catch the error and keep feeding reports, and every tag's
        points and result stay what :meth:`ingest` would give.

        Returns:
            The produced events (``EVICTED`` + ``POINT``; ``STARTED``
            and ``FINALIZED`` fire through their callbacks, as in
            :meth:`ingest`).
        """
        events: list[SessionEvent] = []
        pending: dict[str, list] = {}
        try:
            for report in reports:
                self._route(report, events, pending)
        finally:
            # Advance whatever was collected even if routing raised
            # (strict out-of-order policy): a sample the resampler
            # emitted must reach the tracer or the session would be
            # permanently out of sync — mirroring how the sequential
            # path fully applies every report before the failing one.
            self._flush(pending, events)
        return events

    def _route(
        self,
        report: PhaseReport,
        events: list[SessionEvent],
        pending: dict[str, list],
    ) -> None:
        """Route one report; queue the samples it unlocks in ``pending``.

        Advances the report-time frontier (sweeping idle sessions),
        makes room under ``max_sessions`` for a new EPC, drops and
        counts stragglers and keeps each tag's idle clock. Every
        eviction first steps the evicted tag's queued samples
        (:meth:`_flush`), so its history is complete before finalize.
        """
        self.ingested_reports += 1
        idle_timeout = self.config.idle_timeout
        if idle_timeout is not None and report.time > self._frontier:
            # Only an advancing frontier can make a session newly stale,
            # so the sweep is skipped for same-or-older timestamps.
            self._frontier = report.time
            cutoff = self._frontier - idle_timeout
            heap = self._idle_heap
            stale: set[str] = set()
            while heap and heap[0][0] < cutoff:
                _, epc = heapq.heappop(heap)
                clock = self.last_report_time.get(epc)
                if clock is None or not self._is_open(epc):
                    continue
                if clock < cutoff:
                    stale.add(epc)
                else:
                    heapq.heappush(heap, (clock, epc))
            if stale:
                for epc in [e for e in self._open if e in stale]:
                    self._flush({epc: pending.pop(epc, [])}, events)
                    events.append(self.evict(epc))
        epc = report.epc_hex
        session = self.sessions.get(epc)
        if session is None:
            max_sessions = self.config.max_sessions
            while max_sessions is not None:
                open_epcs = self.open_epcs()
                if len(open_epcs) < max_sessions:
                    break
                oldest = min(
                    open_epcs,
                    key=lambda e: self.last_report_time.get(e, float("-inf")),
                )
                self._flush({oldest: pending.pop(oldest, [])}, events)
                events.append(self.evict(oldest))
            session = self.session_for(epc)
        if epc in self._closed or session.result is not None:
            self.stragglers += 1
            return
        # max(): reports from different antennas may interleave slightly
        # non-monotonically (legal per-antenna), and a tag's idle clock
        # must never move backwards because of it.
        previous = self.last_report_time.get(epc)
        if previous is None or report.time > previous:
            self.last_report_time[epc] = report.time
            # A NaN clock never ages out (NaN < cutoff is false, and no
            # later time exceeds it), and in the heap it would break the
            # ordering every sweep relies on.
            if (
                previous is None
                and idle_timeout is not None
                and not math.isnan(report.time)
            ):
                heapq.heappush(self._idle_heap, (report.time, epc))
        samples = session._prepare(report)
        if samples:
            pending.setdefault(epc, []).extend(samples)

    def _flush(
        self, pending: dict[str, list], events: list[SessionEvent]
    ) -> None:
        """Step every queued sample, then fire ``on_point`` for each.

        The one way the manager advances its sessions: all queues of
        ``pending`` go through :func:`repro.stream.session.step_sessions`
        together (merged rounds, bit-identical to stepping each tag
        alone) and ``pending`` is emptied. The callbacks fire only after
        that, in the returned order, so a raising callback cannot leave
        a session behind its resampler.
        """
        queues = [(self.sessions[epc], samples) for epc, samples in pending.items()]
        pending.clear()
        for session, point in step_sessions(queues):
            event = PointEmitted(session.epc_hex, session, point=point)
            self._fire(self.on_point, event)
            events.append(event)

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def open_epcs(self) -> list[str]:
        """EPCs whose sessions are still open (not finalized or evicted).

        Walks the open-session registry, lazily dropping sessions that
        were closed out of band (e.g. ``session.finalize()`` called
        directly) — amortized cost proportional to the *open* session
        count, not every EPC the stream ever carried.
        """
        open_list = []
        for epc in list(self._open):
            if self._is_open(epc):
                open_list.append(epc)
            else:
                del self._open[epc]
        return open_list

    def _is_open(self, epc: str) -> bool:
        """Whether ``epc`` has a session that is neither finalized nor
        evicted (one finalized out of band included)."""
        return (
            epc in self._open
            and epc not in self._closed
            and self.sessions[epc].result is None
        )

    def evict(self, epc_hex: str) -> SessionEvent:
        """Force-evict one tag: finalize its session and close it for good.

        Fires the ``FINALIZED`` event (when finalize succeeds) followed
        by the ``EVICTED`` event. A finalize failure (e.g. a ghost EPC
        that never warmed up) is recorded in :attr:`failures` instead of
        propagating — eviction runs inside the shared ingest loop, which
        must survive any single tag — and the session stays closed
        either way, so later reports for it count as stragglers.
        """
        session = self.sessions[epc_hex]
        self._closed.add(epc_hex)
        self._open.pop(epc_hex, None)
        self.evicted_epcs.append(epc_hex)
        self.evicted_count += 1
        result = None
        try:
            result = self.finalize(epc_hex)
        except Exception as error:
            self.failures[epc_hex] = error
            if self.config.retain_results is not None:
                # The ghost is closed for good (its reports will count
                # as stragglers), so it joins the shed queue like a
                # finalized session — one dead EPC per noise burst must
                # not grow the manager forever.
                self._closed_order.append(epc_hex)
                self._shed_closed()
        event = SessionEvicted(epc_hex, session, result=result)
        self._fire(self.on_session_evicted, event)
        return event

    def extend(self, reports: Iterable[PhaseReport]) -> list[SessionEvent]:
        """Route an iterable of reports; return all produced events."""
        events: list[SessionEvent] = []
        for report in reports:
            events.extend(self.ingest(report))
        return events

    def finalize(self, epc_hex: str) -> ReconstructionResult:
        """Finalize one tag's session and fire its lifecycle event.

        A session whose earlier finalize failed (ghost EPC) may succeed
        once more reports arrive; success clears its stale
        :attr:`failures` entry. With a ``retain_results`` cap, the
        session's tracking buffers are released after the event fires
        and the oldest finalized sessions beyond the cap are shed.
        """
        session = self.sessions[epc_hex]
        already = session.result is not None
        result = session.finalize()
        self.failures.pop(epc_hex, None)
        self._open.pop(epc_hex, None)
        if not already:
            recognition = None
            if self.recognizer is not None:
                recognition = self._recognize(epc_hex, result)
            self._fire(
                self.on_session_finalized,
                SessionFinalized(
                    epc_hex, session, result=result, recognition=recognition
                ),
            )
            if self.config.retain_results is not None:
                session.release()
                # Membership check (O(cap), the deque never exceeds it):
                # a ghost that joined the queue at eviction and later
                # finalizes for real must not occupy two slots.
                if epc_hex not in self._closed_order:
                    self._closed_order.append(epc_hex)
                self._shed_closed()
        return result

    def _recognize(self, epc_hex: str, result: ReconstructionResult):
        """Classify a finalized trajectory; tally the work, never raise."""
        try:
            recognition = self.recognizer.recognize(result.trajectory)
        except Exception:
            self.recognition_errors += 1
            return None
        self.classified += 1
        self.dtw_evals += recognition.dtw_evals
        key = str(recognition.shortlist_size)
        self.shortlist_hist[key] = self.shortlist_hist.get(key, 0) + 1
        self.recognitions[epc_hex] = recognition
        return recognition

    def _shed_closed(self) -> None:
        """Drop the oldest closed sessions beyond the retention cap."""
        cap = self.config.retain_results
        while len(self._closed_order) > cap:
            epc = self._closed_order.popleft()
            self.recognitions.pop(epc, None)
            session = self.sessions.pop(epc, None)
            if session is not None:
                # Fold the shed session's tallies into the accumulated
                # totals so stats() keeps reporting the whole stream.
                if session.result is not None:
                    self._shed_finalized += 1
                self._shed_dropped += session.dropped_reports
                self._shed_nonfinite += session.dropped_nonfinite
                self._shed_foreign += session.skipped_foreign_reports
            if epc in self.failures:
                self._shed_failed += 1
            self.last_report_time.pop(epc, None)
            self.failures.pop(epc, None)
            self._open.pop(epc, None)
            self._closed.discard(epc)
        # The eviction audit trail is bounded the same way: keep only
        # as much history as the retention cap allows.
        while len(self.evicted_epcs) > cap:
            self.evicted_epcs.pop(0)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def note_injected(self, counters: dict[str, int]) -> None:
        """Attach external fault-injection counters to :meth:`stats`.

        The fault layer perturbs the stream *before* the manager sees
        it, so the manager cannot count injections itself; the testbed
        runner records the injector tallies here so one snapshot carries
        both what was injected and how the stack absorbed it. Repeated
        calls accumulate per key.
        """
        for key, value in counters.items():
            self.injected_counters[key] = (
                self.injected_counters.get(key, 0) + int(value)
            )

    def stats(self) -> ManagerStats:
        """The current :class:`ManagerStats` snapshot."""
        finalized = self._shed_finalized
        dropped = self._shed_dropped
        nonfinite = self._shed_nonfinite
        foreign = self._shed_foreign
        open_sessions = 0
        for epc, session in self.sessions.items():
            if session.result is not None:
                finalized += 1
            elif epc not in self._closed and epc not in self.failures:
                # Still ingesting. Closed-but-resultless sessions (a
                # ghost whose finalize failed) are counted by
                # failed_sessions, not here.
                open_sessions += 1
            dropped += session.dropped_reports
            nonfinite += session.dropped_nonfinite
            foreign += session.skipped_foreign_reports
        return ManagerStats(
            open_sessions=open_sessions,
            finalized_sessions=finalized,
            failed_sessions=len(self.failures) + self._shed_failed,
            evicted_sessions=self.evicted_count,
            shed_sessions=self._shed_finalized + self._shed_failed,
            stragglers=self.stragglers,
            ingested_reports=self.ingested_reports,
            dropped_reports=dropped,
            dropped_nonfinite=nonfinite,
            skipped_foreign_reports=foreign,
            skipped_log_lines=self.skipped_log_lines,
            injected=dict(self.injected_counters),
            classified=self.classified,
            recognition_errors=self.recognition_errors,
            dtw_evals=self.dtw_evals,
            shortlist_hist=dict(self.shortlist_hist),
        )

    def finalize_all(
        self, raise_errors: bool = False
    ) -> dict[str, ReconstructionResult]:
        """Finalize every session; ``{epc_hex: result}`` in seen order.

        A session that cannot finalize — typically a ghost EPC from a
        misread burst, whose handful of reports never warm up — must not
        cost the other users their trajectories: by default its error is
        recorded in :attr:`failures` (keyed by EPC) and the remaining
        sessions still finalize. Pass ``raise_errors=True`` to propagate
        the first failure instead.

        Under a ``retain_results`` cap only the sessions the manager
        still holds are finalized and returned — results of sessions
        shed earlier must have been consumed through their
        ``FINALIZED`` events (or :meth:`replay`, which taps them).
        Shedding mid-call cannot lose a result that was not already
        delivered through its event.
        """
        results: dict[str, ReconstructionResult] = {}
        for epc in list(self.sessions):
            if epc not in self.sessions:
                continue  # shed by retain_results while finalizing others
            try:
                results[epc] = self.finalize(epc)
            except Exception as error:
                if raise_errors:
                    raise
                self.failures[epc] = error
        return results

    # ------------------------------------------------------------------
    def replay(
        self, path, finalize: bool = True, strict: bool = True
    ) -> ReplayResult:
        """Stream a recorded JSONL phase log through the manager.

        Reads the log lazily (:func:`repro.io.logs.iter_phase_log`) —
        constant memory for the file itself and bounded work per report.
        The per-tag sessions do retain tracking history and the raw
        reports until finalized; set ``retain_results`` in the config to
        release them at finalize and bound the closed-session history
        on long logs.

        Args:
            path: the JSONL phase log.
            finalize: finalize every session at end-of-log and return
                the results; pass ``False`` to keep sessions open (e.g.
                to replay several log segments back to back).
            strict: raise on a malformed log line (default). With
                ``strict=False`` malformed/truncated lines are skipped
                and counted into the stats snapshot's
                ``skipped_log_lines`` — a half-written recording from a
                crashed capture replays what it can.

        Returns:
            A :class:`ReplayResult`: the ``{epc_hex:
            ReconstructionResult}`` mapping (empty when
            ``finalize=False``) with the end-of-replay
            :class:`ManagerStats` snapshot attached as ``.stats``.
            Complete even under a ``retain_results`` cap: sessions
            finalized mid-replay (an eviction policy closing gestures
            as the log advances) are captured through their
            ``FINALIZED`` events at the moment they close, before
            shedding can drop them — only the *sessions* are shed, the
            returned results are the caller's.
        """
        from repro.io.logs import LogReadStats, iter_phase_log

        collected: dict[str, ReconstructionResult] = {}
        user_callback = self.on_session_finalized
        read_stats = LogReadStats()

        def tap(event: SessionEvent) -> None:
            if finalize and event.result is not None:
                collected[event.epc_hex] = event.result
            if user_callback is not None:
                user_callback(event)

        self.on_session_finalized = tap
        try:
            for report in iter_phase_log(path, strict=strict, stats=read_stats):
                self.ingest(report)
            if finalize:
                collected.update(self.finalize_all())
        finally:
            self.on_session_finalized = user_callback
            self.skipped_log_lines += read_stats.skipped_lines
        return ReplayResult(collected if finalize else {}, self.stats())

    @staticmethod
    def _fire(
        callback: Callable[[SessionEvent], None] | None, event: SessionEvent
    ) -> None:
        if callback is not None:
            callback(event)
