"""The streaming engine: many concurrent sessions on one virtual timeline.

``StreamEngine`` is the software analogue of the paper's MPSoC runtime: a
set of concurrent media pipelines advanced in an interleaved schedule,
with cross-session sharing where streams carry identical work.  Sessions
are pure segment pipelines (:mod:`repro.runtime.session`), so the
schedule — any :class:`~repro.runtime.schedulers.Scheduler` policy —
affects only *when* work happens, never *what* is produced; N concurrent
sessions emit bitstreams identical to N sequential runs under every
scheduler (``tests/test_runtime_schedulers.py`` pins this).

Time is *virtual*: input frames arrive at each session's contracted
``rate_hz``, segments cost virtual seconds per the scheduler's cost model
(measured ops, or a full platform mapping for
:class:`~repro.runtime.schedulers.PlatformMapped`), and the report counts
deadline misses, per-session latency, and — when a platform prices the
segments — per-PE utilization.  Before the first segment runs, the RTOS
admission test (:func:`repro.mpsoc.rtos.admission_test`) can reject an
over-subscribed scenario configuration outright.

The engine also closes the loop back to the mapping models: every session
accumulates measured per-stage operation counts, and
:func:`measured_application` lifts those into an
:class:`~repro.core.application.ApplicationModel` so the existing
mapper/DSE stack can answer "which SoC sustains this many streams?" with
measured rather than analytic numbers (see
:func:`repro.mapping.evaluate.sustainable_streams`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import accumulate

from ..core.application import ApplicationModel
from ..core.metrics import render_table
from ..mpsoc.rtos import AdmissionReport, admission_test
from ..obs.clock import Clock, WallClock
from ..obs.tracer import NULL_TRACER, Tracer
from .cache import CacheStats, SegmentCache
from .profiles import stage_application
from .schedulers import Scheduler, SessionClock, make_scheduler
from .session import MediaSession

_EPS = 1e-12


class AdmissionError(RuntimeError):
    """Raised (in strict mode) when a scenario fails admission control."""

    def __init__(self, report: AdmissionReport) -> None:
        super().__init__(report.render())
        self.report = report


@dataclass
class SessionSummary:
    """Per-session scorecard in the engine report."""

    name: str
    kind: str
    segments: int
    frames: int
    bits: int
    computed: int
    from_cache: int
    rate_hz: float | None = None
    deadline_misses: int = 0
    deadlines: int = 0
    virtual_busy_s: float = 0.0
    mean_latency_s: float = 0.0
    max_latency_s: float = 0.0
    #: Transport scorecard (:meth:`repro.runtime.session.MediaSession.
    #: delivery_summary`), ``None`` for sessions without a pipe.
    delivery: dict | None = None

    @property
    def cache_share(self) -> float:
        return self.from_cache / self.segments if self.segments else 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def aggregate_delivery(summaries: "list[dict | None]") -> dict | None:
    """Fold per-session transport scorecards into one run-level record.

    The PSNR-under-loss figure is the damage-weighted mean of the
    per-session means (sessions that lost nothing contribute nothing).
    Returns ``None`` when no session carried a delivery pipe.
    """
    present = [s for s in summaries if s]
    if not present:
        return None
    totals = {
        key: sum(s[key] for s in present)
        for key in (
            "segments", "segments_intact", "packets_sent", "packets_lost",
            "packets_late", "packets_duplicate", "packets_recovered",
            "bytes_on_wire", "concealed_frames",
        )
    }
    totals["virtual_cost_s"] = sum(s["virtual_cost_s"] for s in present)
    sent = totals["packets_sent"]
    totals["loss_pct"] = (
        100.0 * totals["packets_lost"] / sent if sent else 0.0
    )
    weighted = [
        (s["psnr_under_loss_db"], s["segments"] - s["segments_intact"])
        for s in present
        if s["psnr_under_loss_db"] is not None
    ]
    weight = sum(w for _, w in weighted)
    totals["psnr_under_loss_db"] = (
        sum(p * w for p, w in weighted) / weight if weight else None
    )
    return totals


@dataclass
class EngineReport:
    """What one engine run did, and what it cost (wall and virtual)."""

    sessions: list[SessionSummary]
    cache: CacheStats
    elapsed_s: float
    steps: int
    stage_totals: dict[str, float] = field(default_factory=dict)
    scheduler: str = "roundrobin"
    virtual_makespan_s: float = 0.0
    pe_utilization: dict[int, float] = field(default_factory=dict)
    platform: str | None = None
    admission: AdmissionReport | None = None
    #: Run-level transport scorecard (:func:`aggregate_delivery`), ``None``
    #: when no session carried a delivery pipe.
    delivery: dict | None = None
    #: Per-segment distributions no other field carries, each a
    #: :func:`summarize` record: ``session.latency_s`` (completion
    #: latency), ``session.segment_cost_s`` (virtual service time) and
    #: ``deadline.slack_s`` (deadline minus finish, rated segments only).
    distributions: dict[str, dict] = field(default_factory=dict)

    @property
    def total_frames(self) -> int:
        return sum(s.frames for s in self.sessions)

    @property
    def total_bits(self) -> int:
        return sum(s.bits for s in self.sessions)

    @property
    def frames_per_second(self) -> float:
        return self.total_frames / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def total_deadline_misses(self) -> int:
        return sum(s.deadline_misses for s in self.sessions)

    @property
    def total_deadlines(self) -> int:
        return sum(s.deadlines for s in self.sessions)

    def to_dict(self) -> dict:
        """JSON-ready form (the ``--json`` CLI output)."""
        return {
            "scheduler": self.scheduler,
            "platform": self.platform,
            "steps": self.steps,
            "elapsed_s": self.elapsed_s,
            "virtual_makespan_s": self.virtual_makespan_s,
            "total_frames": self.total_frames,
            "total_bits": self.total_bits,
            "frames_per_second": self.frames_per_second,
            "total_deadline_misses": self.total_deadline_misses,
            "total_deadlines": self.total_deadlines,
            "sessions": [s.to_dict() for s in self.sessions],
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "lookups": self.cache.lookups,
                "evictions": self.cache.evictions,
                "hit_rate": self.cache.hit_rate,
                "ops_saved": dict(self.cache.ops_saved),
                "ops_saved_total": sum(self.cache.ops_saved.values()),
            },
            "delivery": self.delivery,
            "distributions": dict(self.distributions),
            "stage_totals": dict(self.stage_totals),
            "pe_utilization": {
                str(pe): u for pe, u in sorted(self.pe_utilization.items())
            },
            "admission": None if self.admission is None else {
                "policy": self.admission.policy,
                "admitted": self.admission.admitted,
                "utilization": self.admission.utilization,
                "bound": self.admission.bound,
                "tasks": [
                    {
                        "name": r.name,
                        "period_s": r.period,
                        "wcet_s": r.wcet,
                        "utilization": r.utilization,
                        "feasible": r.feasible,
                    }
                    for r in self.admission.rows
                ],
            },
        }

    def render(self) -> str:
        rows = [
            [
                s.name,
                s.kind,
                s.segments,
                s.frames,
                s.bits,
                s.computed,
                s.from_cache,
                f"{100.0 * s.cache_share:.0f}%",
                f"{s.rate_hz:g}" if s.rate_hz else "-",
                (f"{s.deadline_misses}/{s.deadlines}" if s.deadlines else "-"),
                f"{s.mean_latency_s * 1e3:.1f}",
            ]
            for s in self.sessions
        ]
        table = render_table(
            ["session", "kind", "segs", "frames", "bits", "encoded",
             "cached", "cache%", "rate", "miss", "lat(ms)"],
            rows,
            title=(
                f"{len(self.sessions)} sessions, "
                f"{self.total_frames} frames in {self.elapsed_s * 1e3:.0f} ms "
                f"({self.frames_per_second:.0f} frames/s)"
            ),
        )
        saved = sum(self.cache.ops_saved.values())
        lines = [
            table,
            f"cache: {self.cache.hits} hits / {self.cache.lookups} lookups "
            f"({100.0 * self.cache.hit_rate:.0f}%), "
            f"{self.cache.evictions} evictions, "
            f"~{saved:.3g} ops skipped",
            f"scheduler: {self.scheduler}, virtual makespan "
            f"{self.virtual_makespan_s * 1e3:.1f} ms, "
            f"{self.total_deadline_misses}/{self.total_deadlines} "
            f"deadlines missed",
        ]
        if self.delivery is not None:
            d = self.delivery
            quality = (
                f"PSNR under loss {d['psnr_under_loss_db']:.1f} dB"
                if d["psnr_under_loss_db"] is not None else "no damage scored"
            )
            lines.append(
                f"delivery: {d['packets_sent']} packets, "
                f"{d['packets_lost']} lost ({d['loss_pct']:.1f}%), "
                f"{d['packets_recovered']} FEC-recovered, "
                f"{d['packets_late']} late; "
                f"{d['segments_intact']}/{d['segments']} segments intact, "
                f"{d['concealed_frames']} frames concealed, {quality}"
            )
        if self.pe_utilization:
            util = ", ".join(
                f"pe{pe}={100.0 * u:.0f}%"
                for pe, u in sorted(self.pe_utilization.items())
            )
            lines.append(f"platform {self.platform}: {util}")
        if self.admission is not None and not self.admission.admitted:
            lines.append(self.admission.render())
        return "\n".join(lines)


class StreamEngine:
    """Virtual-time scheduler over media sessions with a shared cache.

    ``scheduler`` is a :class:`~repro.runtime.schedulers.Scheduler`
    instance or registry name (default: the legacy round-robin).
    ``admission`` is ``"off"`` (skip the start-up schedulability check),
    ``"warn"`` (run it, attach the report, keep going) or ``"strict"``
    (raise :class:`AdmissionError` when the rated sessions over-subscribe
    the scheduler's virtual service rate).

    ``trace`` is a :class:`repro.obs.Tracer`; the default
    :data:`repro.obs.NULL_TRACER` records nothing and costs nothing
    (``benchmarks/bench_obs_overhead.py`` holds that line).  With a
    :class:`repro.obs.TraceRecorder` the run emits nested
    session -> segment -> stage spans per session track, per-segment
    busy windows per PE track (platform scheduler), per-packet link
    spans for sessions with delivery pipes, and engine counter series —
    all in virtual seconds, so traces are deterministic.

    ``clock`` is the :class:`repro.obs.Clock` behind the report's
    wall-clock ``elapsed_s`` (inject :class:`repro.obs.ManualClock` for
    deterministic reports; everything else in the run is virtual time).
    """

    def __init__(
        self,
        sessions: list[MediaSession],
        cache: SegmentCache | None = None,
        use_cache: bool = True,
        scheduler: Scheduler | str | None = None,
        admission: str = "off",
        trace: Tracer | None = None,
        clock: Clock | None = None,
    ) -> None:
        if not sessions:
            raise ValueError("an engine needs at least one session")
        names = [s.name for s in sessions]
        if len(set(names)) != len(names):
            raise ValueError(f"session names must be unique, got {names}")
        if admission not in ("off", "warn", "strict"):
            raise ValueError(
                f"admission must be off/warn/strict, got {admission!r}"
            )
        self.sessions = list(sessions)
        self.scheduler = make_scheduler(scheduler)
        self.admission = admission
        self.trace = trace if trace is not None else NULL_TRACER
        self.clock = clock if clock is not None else WallClock()
        # A fresh cache has len() == 0 and would be falsy — test identity,
        # not truthiness, or a caller-supplied cache gets silently dropped.
        if not use_cache:
            self.cache = None
        else:
            self.cache = cache if cache is not None else SegmentCache()

    def admission_report(self, policy: str | None = None) -> AdmissionReport:
        """Schedulability of the rated sessions' declared workloads.

        Each rated session becomes a periodic task: one segment per
        period (``expected_segment_frames / rate_hz``) whose WCET is the
        session's declared estimate priced by the *scheduler's own* cost
        model (the generic virtual service rate, or a platform mapping
        of the estimated stage profile under
        :class:`~repro.runtime.schedulers.PlatformMapped`).  Unrated
        sessions are background work and don't count.
        The test policy follows the scheduler (exact EDF utilization for
        deadline-driven policies, conservative RM analysis otherwise)
        but it checks *declared estimates* — passing is a necessary
        condition, not a guarantee that a deadline-blind schedule meets
        every deadline.
        """
        if policy is None:
            policy = self.scheduler.admission_policy
        entries = []
        for session in self.sessions:
            if not session.rate_hz or session.rate_hz <= 0:
                continue
            wcet = self.scheduler.estimate_cost_s(session)
            if wcet is None:
                continue
            period = session.expected_segment_frames() / session.rate_hz
            entries.append((session.name, period, wcet))
        return admission_test(entries, policy=policy)

    def run(self) -> EngineReport:
        """Advance all sessions to completion under the scheduler.

        The virtual clock only moves forward: it jumps to the next input
        arrival when every unfinished session is waiting for frames, and
        advances by each segment's virtual cost as it runs.  Interleaving
        at segment granularity mirrors the frame-level interleaving a
        shared accelerator sees on a real MPSoC: no stream starves, and
        the cache observes segments in schedule order so a leading stream
        warms the cache for its followers.
        """
        admission = None
        if self.admission != "off":
            admission = self.admission_report()
            if self.admission == "strict" and not admission.admitted:
                raise AdmissionError(admission)

        started = self.clock.now()
        tracer = self.trace
        if tracer.enabled:
            self._bind_delivery_tracers(tracer)
        scheduler = self.scheduler
        clocks = [SessionClock(session=s) for s in self.sessions]
        scheduler.bind(clocks)
        now = 0.0
        steps = 0
        misses = 0
        unfinished = clocks
        while True:
            unfinished = [c for c in unfinished if not c.finished]
            if not unfinished:
                break
            ready = [c for c in unfinished if c.release() <= now + _EPS]
            if not ready:
                now = min(c.release() for c in unfinished)
                ready = [c for c in unfinished if c.release() <= now + _EPS]
            clock = scheduler.select(ready, now)
            session = clock.session
            hits_before = session.segments_from_cache
            deliveries_before = len(session.delivery_log)
            result = session.step(self.cache)
            if result is None:
                # Drained although ``finished`` still says otherwise:
                # the clock leaves the run instead of spinning the loop.
                unfinished.remove(clock)
                continue
            steps += 1
            from_cache = session.segments_from_cache > hits_before
            cost = scheduler.segment_cost(clock, result, from_cache)
            # The delivery stage is real work on the virtual clock too:
            # per-packet ipstack + interconnect costs from the pipe's model.
            delivery_cost = 0.0
            if len(session.delivery_log) > deliveries_before:
                delivery_cost = session.delivery_log[-1].virtual_cost_s
                cost += delivery_cost
            finish = now + cost
            session.record_timing(now, finish, from_cache=from_cache)
            misses += session.timings[-1].missed
            scheduler.charge(clock, cost)
            if tracer.enabled:
                self._trace_segment(
                    tracer, scheduler, session, result,
                    now, finish, from_cache, delivery_cost, misses,
                )
            now = finish
        if tracer.enabled:
            self._trace_sessions(tracer)
        elapsed = self.clock.now() - started

        totals: dict[str, float] = {}
        for session in self.sessions:
            for cls, count in session.stage_totals().items():
                totals[cls] = totals.get(cls, 0.0) + count
        pe_util: dict[int, float] = {}
        platform_name = None
        pe_busy = getattr(scheduler, "pe_busy", None)
        if pe_busy is not None and now > 0:
            pe_util = {pe: min(1.0, b / now) for pe, b in pe_busy.items()}
            platform_name = scheduler.platform.name
        by_name = {c.name: c for c in clocks}
        timings = [t for s in self.sessions for t in s.timings]
        delivery_summaries = [s.delivery_summary() for s in self.sessions]
        return EngineReport(
            sessions=[
                SessionSummary(
                    name=s.name,
                    kind=s.kind,
                    segments=len(s.segments),
                    frames=s.frames_done,
                    bits=s.total_bits,
                    computed=s.segments_computed,
                    from_cache=s.segments_from_cache,
                    rate_hz=s.rate_hz,
                    deadline_misses=s.deadline_misses,
                    deadlines=s.deadlines,
                    virtual_busy_s=by_name[s.name].busy_s,
                    mean_latency_s=s.mean_latency_s,
                    max_latency_s=s.max_latency_s,
                    delivery=summary,
                )
                for s, summary in zip(self.sessions, delivery_summaries)
            ],
            cache=self.cache.stats if self.cache is not None else CacheStats(),
            elapsed_s=elapsed,
            steps=steps,
            stage_totals=totals,
            scheduler=scheduler.name,
            virtual_makespan_s=now,
            pe_utilization=pe_util,
            platform=platform_name,
            admission=admission,
            delivery=aggregate_delivery(delivery_summaries),
            distributions={
                "deadline.slack_s": summarize([
                    t.deadline - t.finish
                    for t in timings
                    if not math.isinf(t.deadline)
                ]),
                "session.latency_s": summarize([t.latency for t in timings]),
                "session.segment_cost_s": summarize(
                    [t.finish - t.start for t in timings]
                ),
            },
        )

    # -- observability -----------------------------------------------------

    def _bind_delivery_tracers(self, tracer: Tracer) -> None:
        """Give every pipe without its own tracer the engine's, so
        ``StreamEngine(trace=...)`` alone yields per-packet net spans."""
        for session in self.sessions:
            pipe = session.delivery
            if pipe is not None and not pipe.tracer.enabled:
                pipe.tracer = tracer
                if pipe.trace_track is None:
                    pipe.trace_track = f"net/{session.name}"

    def _trace_segment(
        self,
        tracer: Tracer,
        scheduler: Scheduler,
        session: MediaSession,
        result,
        start: float,
        finish: float,
        from_cache: bool,
        delivery_cost: float,
        misses: int,
    ) -> None:
        """Emit one segment's spans: the segment window on the session
        track, proportional stage sub-spans (computed segments only — a
        cache hit did no stage work), a delivery tail span, and per-PE
        busy windows when the scheduler priced the segment on silicon.
        ``misses`` is the run's deadline-miss count so far."""
        index = len(session.segments) - 1
        track = session.name
        timing = session.timings[-1]
        tracer.span(
            track,
            f"segment[{index}]",
            start,
            finish,
            cat="segment",
            args={
                "frames": result.frames,
                "bits": result.bits,
                "from_cache": from_cache,
                "deadline_s": (
                    None if math.isinf(timing.deadline) else timing.deadline
                ),
                "missed": timing.missed,
            },
        )
        compute_end = finish - delivery_cost
        if not from_cache and result.stage_ops:
            # Stage boundaries from cumulative op shares: ``stage_ops``
            # measures work, not time, so within the segment each stage
            # gets its proportional slice of the computed window.
            stages = sorted(result.stage_ops.items())
            total = sum(ops for _, ops in stages)
            if total > 0:
                window = compute_end - start
                cursor = start
                ends = [
                    start + window * (cum / total)
                    for cum in accumulate(ops for _, ops in stages)
                ]
                ends[-1] = compute_end  # exact, despite float accumulation
                for (stage, ops), end in zip(stages, ends):
                    tracer.span(
                        track, stage, cursor, end,
                        cat="stage", args={"ops": ops},
                    )
                    cursor = end
        if delivery_cost > 0.0:
            tracer.span(
                track, "delivery", compute_end, finish,
                cat="stage", args={"virtual_cost_s": delivery_cost},
            )
        pe_busy = getattr(scheduler, "last_segment_busy", None)
        if pe_busy:
            for pe in sorted(pe_busy):
                tracer.span(
                    f"pe{pe}",
                    f"{session.name}[{index}]",
                    start,
                    start + pe_busy[pe],
                    cat="pe",
                    args={"kind": session.kind},
                )
        if self.cache is not None:
            tracer.counter(
                "engine", "cache_hits", finish, self.cache.stats.hits
            )
        tracer.counter("engine", "deadline_misses", finish, misses)

    def _trace_sessions(self, tracer: Tracer) -> None:
        """Emit each session's enclosing parent span (first segment start
        to last segment finish on its own track)."""
        for session in self.sessions:
            if not session.timings:
                continue
            tracer.span(
                session.name,
                session.name,
                session.timings[0].start,
                session.timings[-1].finish,
                cat="session",
                args={
                    "kind": session.kind,
                    "segments": len(session.segments),
                    "rate_hz": session.rate_hz,
                },
            )


#: Quantiles every :func:`summarize` record reports.
QUANTILES = (0.5, 0.9, 0.99)


def summarize(values: list[float]) -> dict:
    """Summary of one series: count, exact sum (``math.fsum``), min, max,
    mean and nearest-rank p50/p90/p99; ``{"count": 0}`` when empty."""
    if not values:
        return {"count": 0}
    ordered = sorted(values)
    n = len(ordered)
    total = math.fsum(ordered)
    return {
        "count": n,
        "sum": total,
        "min": ordered[0],
        "max": ordered[-1],
        "mean": total / n,
        **{
            f"p{round(q * 100)}": ordered[max(1, math.ceil(q * n)) - 1]
            for q in QUANTILES
        },
    }


def measured_application(
    session: MediaSession, rate_hz: float
) -> ApplicationModel:
    """Lift a finished session's measured op counts into a mappable model.

    The session's per-frame ``stage_ops`` become a chain of actors (in
    codec pipeline order) whose profiles carry *measured* counts — the
    runtime's answer to the analytic :class:`repro.video.taskgraph.
    VideoWorkload` numbers.  Feed the result to
    :class:`repro.core.MultimediaSystem` or the DSE stack like any other
    application.
    """
    per_frame = session.ops_per_frame()
    if not per_frame:
        raise ValueError(
            f"session {session.name!r} has no finished frames to profile"
        )
    return stage_application(
        f"{session.name}_measured", per_frame, rate_hz=rate_hz
    )
