"""repro.obs: observability for the virtual-time runtime.

The paper's working method is *measured visibility* — per-PE
utilization, stage asymmetry, deadline behaviour — and this package is
that method as code.  Three pieces:

* :mod:`~repro.obs.tracer` — nested spans (session -> segment -> stage,
  per-PE busy windows, per-packet link occupancy) on the engine's
  **virtual** timeline, with a zero-overhead no-op default
  (:data:`~repro.obs.tracer.NULL_TRACER`);
* :mod:`~repro.obs.export` — Chrome trace-event JSON (load it in
  Perfetto) and flat JSONL event logs;
* :mod:`~repro.obs.clock` — the injectable clock whose
  :meth:`~repro.obs.clock.WallClock.now` is the codebase's single
  blessed wall-clock read (the lint ``determinism`` rule enforces it).

Wire-up: ``StreamEngine(sessions, trace=TraceRecorder())`` records a
run; ``python -m repro.runtime.run <scenario> --trace-out trace.json``
does the same from the CLI.  The run's facts themselves — counts,
cache, delivery, per-PE utilization and the latency/slack
distributions — are typed fields of
:class:`~repro.runtime.engine.EngineReport`.  See
``docs/observability.md``.
"""

from .clock import Clock, ManualClock, WallClock
from .export import (
    chrome_trace_events,
    dumps_chrome_trace,
    iter_jsonl_events,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .tracer import (
    NULL_TRACER,
    CounterSample,
    Instant,
    Span,
    Tracer,
    TraceRecorder,
)

__all__ = [
    "Clock",
    "CounterSample",
    "Instant",
    "ManualClock",
    "NULL_TRACER",
    "Span",
    "TraceRecorder",
    "Tracer",
    "WallClock",
    "chrome_trace_events",
    "dumps_chrome_trace",
    "iter_jsonl_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
