"""Workloads, timed passes and the correctness check of the benchmark.

A *pass* runs every scenario of one workload once through
``repro.runtime.run.run_scenario`` (the function the CLI calls) and
keeps what the run produced: each session's output digest plus the
report fields that are deterministic for a fixed seed.  One *operation*
is one session's output in one pass; it fails when the pass raised or
when its digest or fields differ from the reference (the pinned values
for a pinned seed, else the first pass of the same process).

``repro`` must be importable before this module is imported: ``run.py``
and ``conftest.py`` put the checkout's ``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from repro.runtime.run import run_scenario
from repro.runtime.scenarios import REGISTRY

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Seed whose outputs are pinned in ``pins.json``.
PINNED_SEED = 0

#: Delivery counters compared per session and per run.
PACKET_FIELDS = ("packets_sent", "packets_lost", "packets_recovered",
                 "packets_late", "packets_duplicate")


@dataclasses.dataclass(frozen=True)
class Item:
    """One scenario run inside a workload pass."""

    scenario: str
    overrides: tuple = ()
    #: ``None`` runs the scenario's own default scheduler.
    scheduler: str | None = None


def workload_items(name: str) -> tuple[Item, ...]:
    """The scenario runs that make up workload ``name``."""
    if name == "fanout_hits":
        # 768 cameras on one feed: all cache hits but 2 encodes and the
        # analysis, so the engine loop, scheduler and cache keying work.
        return (Item("surveillance", (("cameras", 768), ("unique_feeds", 1),
                                      ("frames", 16)), "edf"),)
    if name == "unique_transcode":
        # Eight distinct clips: the cache only misses, the codecs work
        # and the platform scheduler prices every segment.
        return (Item("transcode_farm", (("workers", 8), ("clips", 8),
                                        ("frames", 32)), "platform"),)
    if name == "device_sweep":
        # The whole device catalogue at its defaults.
        return tuple(Item(scenario) for scenario in CATALOGUE)
    raise KeyError(f"unknown workload {name!r}; choose from {WORKLOADS}")


WORKLOADS = ("fanout_hits", "unique_transcode", "device_sweep")

#: The registered scenarios, read before :func:`_capturing` adds its copies.
CATALOGUE = tuple(REGISTRY.names())


class _Capture:
    """A scenario build that also keeps the sessions it returns, so the
    benchmark can digest their outputs after ``run_scenario``."""

    def __init__(self, build) -> None:
        self.build = build
        self.sessions = None

    def __call__(self, **params):
        self.sessions = self.build(**params)
        return self.sessions


def _capturing(scenario_name: str) -> tuple[str, _Capture]:
    """Name and capture of the registered copy of ``scenario_name``."""
    name = f"e2ebench:{scenario_name}"
    if name not in REGISTRY.names():
        original = REGISTRY.get(scenario_name)
        REGISTRY.add(dataclasses.replace(
            original, name=name, build=_Capture(original.build)))
    return name, REGISTRY.get(name).build


def build_s(items: tuple[Item, ...], seed: int) -> float:
    """Wall time of one ``Scenario.sessions`` call per item, summed."""
    total = 0.0
    for item in items:
        scenario = REGISTRY.get(item.scenario)
        gc.collect()
        started = time.perf_counter()
        scenario.sessions(seed=seed, **dict(item.overrides))
        total += time.perf_counter() - started
    return total


@dataclasses.dataclass
class PassResult:
    """What one pass produced and cost."""

    wall_s: float
    elapsed_s: float
    frames: int
    #: scenario -> observation (see :func:`observe`); ``None`` if it raised.
    observed: dict
    reports: list
    sessions: list


def run_pass(items: tuple[Item, ...], seed: int, hook=None) -> PassResult:
    """Run every item once; ``hook(scenario)`` is called before each."""
    reports, sessions, observed = [], [], {}
    wall = elapsed = 0.0
    frames = 0
    for item in items:
        name, capture = _capturing(item.scenario)
        if hook is not None:
            hook(item.scenario)
        started = time.perf_counter()
        try:
            report = run_scenario(
                name, dict(item.overrides, seed=seed),
                scheduler=item.scheduler, quiet=True,
            )
        except Exception:  # a failed pass is counted, not fatal
            report = None
            print(f"pass failed: {item.scenario} seed {seed}",
                  file=sys.stderr)
            traceback.print_exc()
        wall += time.perf_counter() - started
        made, capture.sessions = capture.sessions, None
        if report is None:
            observed[item.scenario] = None
            continue
        elapsed += report.elapsed_s
        frames += report.total_frames
        observed[item.scenario] = observe(report, made)
        reports.append(report)
        sessions.append(made)
    return PassResult(wall, elapsed, frames, observed, reports, sessions)


def _hash_value(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(f"[{len(value)}".encode())
        for element in value:
            _hash_value(h, element)
    else:
        h.update(repr(value).encode())
    h.update(b"\x00")


def session_digest(session) -> str:
    """Digest of everything a session produced, segment by segment."""
    h = hashlib.blake2b(digest_size=16)
    for seg in session.segments:
        h.update(seg.data)
        _hash_value(h, (seg.frames, seg.bits, seg.me_evaluations))
        _hash_value(h, sorted(seg.stage_ops.items()))
        for key in sorted(seg.extras):
            _hash_value(h, (key, seg.extras[key]))
    return h.hexdigest()


def observe(report, sessions) -> dict:
    """The deterministic part of one scenario run."""
    by_name = {s.name: s for s in report.sessions}
    per_session = {}
    for session in sessions:
        summary = by_name[session.name]
        fields = {
            "digest": session_digest(session),
            "deadline_misses": summary.deadline_misses,
            "deadlines": summary.deadlines,
        }
        if summary.delivery is not None:
            fields.update({k: summary.delivery[k] for k in PACKET_FIELDS})
        per_session[session.name] = fields
    run = {
        "steps": report.steps,
        "cache_hits": report.cache.hits,
        "cache_lookups": report.cache.lookups,
        "virtual_makespan_s": report.virtual_makespan_s,
    }
    if report.delivery is not None:
        run.update({k: report.delivery[k] for k in PACKET_FIELDS})
    return {"run": run, "sessions": per_session}


def check(observed: dict, reference: dict) -> tuple[int, list[str]]:
    """Operations attempted in one pass, and the failed ones by name.

    A scenario that raised, or whose run-level fields differ, fails all
    of its sessions; otherwise each session fails on its own mismatch.
    """
    attempted = 0
    failed = []
    for scenario, expected in reference.items():
        got = observed.get(scenario)
        if not expected:  # the reference raised: nothing to compare
            attempted += 1
            failed.append(scenario)
            continue
        attempted += len(expected["sessions"])
        failed.extend(
            f"{scenario}/{name}"
            for name, fields in expected["sessions"].items()
            if got is None or got["run"] != expected["run"]
            or got["sessions"].get(name) != fields
        )
    return attempted, failed


def load_pins(workload: str, seed: int) -> dict | None:
    """Pinned observations of ``workload`` at ``seed``, if any."""
    if seed != PINNED_SEED:
        return None
    return json.loads(PINS_PATH.read_text())[workload]


def write_pins() -> None:
    """Record every workload's observations at the pinned seed."""
    pins = {}
    for workload in WORKLOADS:
        result = run_pass(workload_items(workload), PINNED_SEED)
        if any(obs is None for obs in result.observed.values()):
            raise RuntimeError(f"{workload} raised; nothing pinned")
        pins[workload] = result.observed
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
