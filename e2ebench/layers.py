"""Traced run: timing wrappers around each layer's public functions.

:func:`traced` patches the binding each caller actually resolves (a
class attribute, a module global another module imported by name, or a
registry entry), records one span per call and restores every original
on exit, whatever happens.  Spans stay in memory; :func:`layer_metrics`
folds one traced pass into the per-layer metrics.

A span's self time is its duration minus the time its child spans
cover, so the self times of all spans add up to the wall time the spans
cover, and never to more.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from contextlib import contextmanager

from repro.audio.encoder import AudioEncoder
from repro.audio.psychoacoustic import PsychoacousticModel
from repro.net.delivery import DeliveryPipe
from repro.runtime import scenarios as scenarios_module
from repro.runtime import schedulers as schedulers_module
from repro.runtime import session as session_module
from repro.runtime.engine import StreamEngine
from repro.runtime.scenarios import Scenario
from repro.runtime.schedulers import SCHEDULERS, Scheduler
from repro.runtime.session import MediaSession
from repro.video import decoder as decoder_module
from repro.video.decoder import VideoDecoder
from repro.video.encoder import VideoEncoder
from repro.video.motion import SEARCH_ALGORITHMS

ENGINE = "runtime.engine.run"


def _step_segment(args) -> str:
    session = args[0]
    return f"{session.name}#{len(session.segments)}"


def _cost_segment(args) -> str:
    session = args[1].session
    return f"{session.name}#{len(session.segments) - 1}"


def bindings() -> list[tuple]:
    """``(span, namespace, attribute, segment_of, count_of)`` per wrapper.

    ``segment_of(args)`` names the segment a call works on (other spans
    inherit their parent's); ``count_of(args)`` adds to the span's exact
    work count.
    """
    out = [
        ("runtime.scenarios.build", Scenario, "sessions", None, None),
        ("runtime.scenarios.precode", scenarios_module,
         "precoded_segments", None, None),
        (ENGINE, StreamEngine, "run", None, None),
        ("runtime.session.step", MediaSession, "step", _step_segment, None),
        ("runtime.cache.key", session_module, "segment_key", None,
         lambda args: len(args[2])),
        ("video.encode", VideoEncoder, "encode", None, None),
        ("video.decode", VideoDecoder, "decode", None, None),
        ("video.entropy_decode", decoder_module, "read_plane_vectors",
         None, None),
        ("audio.encode", AudioEncoder, "encode", None, None),
        ("audio.psychoacoustic", PsychoacousticModel, "analyze_batch",
         None, None),
        ("net.transport", DeliveryPipe, "transport", None, None),
        ("net.conceal_score", session_module, "score_video_delivery",
         None, None),
        ("net.conceal_score", session_module, "decode_with_concealment",
         None, None),
        ("mapping.segment_cost", schedulers_module, "segment_cost",
         None, None),
    ]
    for cls in dict.fromkeys((Scheduler, *SCHEDULERS.values())):
        if "select" in vars(cls):
            out.append(("runtime.schedulers.select", cls, "select", None,
                        lambda args: len(args[1])))
        if "segment_cost" in vars(cls):
            out.append(("runtime.schedulers.cost", cls, "segment_cost",
                        _cost_segment, None))
    for key in SEARCH_ALGORITHMS:
        out.append(("video.motion_search", SEARCH_ALGORITHMS, key,
                    None, None))
    return out


def _get(namespace, attribute):
    if isinstance(namespace, dict):
        return namespace[attribute]
    return vars(namespace)[attribute]


def _set(namespace, attribute, value) -> None:
    if isinstance(namespace, dict):
        namespace[attribute] = value
    else:
        setattr(namespace, attribute, value)


def installed() -> list[str]:
    """Span names whose wrapper is currently in place."""
    return [
        span for span, namespace, attribute, _, _ in bindings()
        if hasattr(_get(namespace, attribute), "__e2ebench_span__")
    ]


@dataclasses.dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    #: ``scenario/session#index`` of the segment this call works on.
    segment: str | None
    start: float
    end: float = 0.0
    #: Time covered by direct child spans.
    child_s: float = 0.0
    #: No enclosing span has the same name (so durations do not overlap).
    outer: bool = True
    #: Inside ``StreamEngine.run``.
    in_run: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class SpanRecorder:
    """In-memory spans and exact counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        #: Scenario being run, prefixed to segment ids.
        self.context = ""
        self._open: list[Span] = []
        self._depth: dict[str, int] = {}
        self._started = 0
        self._origin = time.perf_counter()

    def set_context(self, scenario: str) -> None:
        self.context = scenario

    def wrap(self, name, fn, segment_of=None, count_of=None):
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            if count_of is not None:
                self.counts[name] = self.counts.get(name, 0) + count_of(args)
            parent = self._open[-1] if self._open else None
            if segment_of is not None:
                segment = f"{self.context}/{segment_of(args)}"
            else:
                segment = parent.segment if parent else None
            depth = self._depth.get(name, 0)
            self._started += 1
            span = Span(
                id=self._started,
                name=name,
                parent=parent.id if parent else None,
                segment=segment,
                start=0.0,
                outer=depth == 0,
                in_run=name == ENGINE or self._depth.get(ENGINE, 0) > 0,
            )
            self._depth[name] = depth + 1
            self._open.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                self._depth[name] = depth
                if parent is not None:
                    parent.child_s += span.duration
                self.spans.append(span)

        traced_call.__e2ebench_span__ = name
        return traced_call

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "segment": s.segment,
                    "start_s": s.start - self._origin,
                    "end_s": s.end - self._origin, "self_s": s.self_s,
                }) + "\n")


@contextmanager
def traced(recorder: SpanRecorder):
    """Install every wrapper for the ``with`` block, then restore."""
    saved = []
    try:
        for name, namespace, attribute, segment_of, count_of in bindings():
            original = _get(namespace, attribute)
            saved.append((namespace, attribute, original))
            _set(namespace, attribute,
                 recorder.wrap(name, original, segment_of, count_of))
        yield recorder
    finally:
        for namespace, attribute, original in reversed(saved):
            _set(namespace, attribute, original)


#: Per-layer metric -> (unit, better).
METRICS = {
    "runtime.scenarios.build_s": ("s", "lower"),
    "runtime.scenarios.precode_s": ("s", "lower"),
    "runtime.engine.self_s": ("s", "lower"),
    "runtime.engine.steps": ("count", "lower"),
    "runtime.engine.self_us_per_step": ("us", "lower"),
    "runtime.schedulers.select_s": ("s", "lower"),
    "runtime.schedulers.ready_scanned": ("count", "lower"),
    "runtime.schedulers.cost_s": ("s", "lower"),
    "runtime.cache.key_s": ("s", "lower"),
    "runtime.cache.key_bytes": ("count", "lower"),
    "runtime.cache.lookups": ("count", "lower"),
    "runtime.cache.hit_ratio": ("ratio", "higher"),
    "runtime.cache.evictions": ("count", "lower"),
    "runtime.session.step_s": ("s", "lower"),
    "runtime.session.self_s": ("s", "lower"),
    "video.encode_s": ("s", "lower"),
    "video.motion_search_s": ("s", "lower"),
    "video.me_evaluations": ("count", "lower"),
    "video.decode_s": ("s", "lower"),
    "video.entropy_decode_s": ("s", "lower"),
    "audio.encode_s": ("s", "lower"),
    "audio.psychoacoustic_s": ("s", "lower"),
    "net.transport_s": ("s", "lower"),
    "net.conceal_score_s": ("s", "lower"),
    "net.packets_sent": ("count", "lower"),
    "net.packets_lost": ("count", "lower"),
    "net.packets_recovered": ("count", "higher"),
    "mapping.segment_cost_s": ("s", "lower"),
    "mapping.segment_cost_calls": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.unattributed_pct": ("%", "lower"),
}

#: Metrics that are exact counts: equal on every pass of one seed.
EXACT = (
    "runtime.engine.steps", "runtime.schedulers.ready_scanned",
    "runtime.cache.key_bytes", "runtime.cache.lookups",
    "runtime.cache.evictions", "video.me_evaluations",
    "net.packets_sent", "net.packets_lost", "net.packets_recovered",
    "mapping.segment_cost_calls",
)


def layer_metrics(recorder: SpanRecorder, result) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``trace.overhead_pct``,
    which needs untraced passes too, is added by the caller).

    Layer times are inclusive (outermost span of each name) and, except
    for the scenario build, count only calls made inside the engine run:
    the codec calls that pre-encode source clips belong to set-up.
    """
    inclusive: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in recorder.spans:
        self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.outer and (span.in_run or span.name.startswith(
                "runtime.scenarios.")):
            inclusive[span.name] = (
                inclusive.get(span.name, 0.0) + span.duration)
    reports = result.reports
    steps = sum(r.steps for r in reports)
    lookups = sum(r.cache.lookups for r in reports)
    deliveries = [r.delivery for r in reports if r.delivery is not None]
    engine_self = self_s.get(ENGINE, 0.0)
    covered = sum(self_s.values())

    def time_of(name):
        return inclusive.get(name, 0.0)

    def packets(key):
        return sum(d[key] for d in deliveries)

    return {
        "runtime.scenarios.build_s": time_of("runtime.scenarios.build"),
        "runtime.scenarios.precode_s": time_of("runtime.scenarios.precode"),
        "runtime.engine.self_s": engine_self,
        "runtime.engine.steps": steps,
        "runtime.engine.self_us_per_step":
            1e6 * engine_self / steps if steps else 0.0,
        "runtime.schedulers.select_s": time_of("runtime.schedulers.select"),
        "runtime.schedulers.ready_scanned":
            recorder.counts.get("runtime.schedulers.select", 0),
        "runtime.schedulers.cost_s": time_of("runtime.schedulers.cost"),
        "runtime.cache.key_s": time_of("runtime.cache.key"),
        "runtime.cache.key_bytes": recorder.counts.get("runtime.cache.key", 0),
        "runtime.cache.lookups": lookups,
        "runtime.cache.hit_ratio":
            sum(r.cache.hits for r in reports) / lookups if lookups else 0.0,
        "runtime.cache.evictions": sum(r.cache.evictions for r in reports),
        "runtime.session.step_s": time_of("runtime.session.step"),
        "runtime.session.self_s": self_s.get("runtime.session.step", 0.0),
        "video.encode_s": time_of("video.encode"),
        "video.motion_search_s": time_of("video.motion_search"),
        "video.me_evaluations": me_evaluations(result.sessions),
        "video.decode_s": time_of("video.decode"),
        "video.entropy_decode_s": time_of("video.entropy_decode"),
        "audio.encode_s": time_of("audio.encode"),
        "audio.psychoacoustic_s": time_of("audio.psychoacoustic"),
        "net.transport_s": time_of("net.transport"),
        "net.conceal_score_s": time_of("net.conceal_score"),
        "net.packets_sent": packets("packets_sent"),
        "net.packets_lost": packets("packets_lost"),
        "net.packets_recovered": packets("packets_recovered"),
        "mapping.segment_cost_s": time_of("mapping.segment_cost"),
        "mapping.segment_cost_calls": calls.get("mapping.segment_cost", 0),
        "trace.unattributed_pct": 100.0 * (result.wall_s - covered)
        / result.wall_s,
    }


def me_evaluations(scenario_sessions) -> int:
    """Motion-search candidates evaluated by segments the run computed
    (a cache hit replays a stored result and evaluates nothing)."""
    return sum(
        segment.me_evaluations
        for sessions in scenario_sessions
        for session in sessions
        for segment, timing in zip(session.segments, session.timings)
        if not timing.from_cache
    )
