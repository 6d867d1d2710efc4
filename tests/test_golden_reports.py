"""Golden-report oracle: every scenario x scheduler, pinned by digest.

Each registered scenario runs at its small size under each of the four
schedulers with a :class:`repro.obs.ManualClock` (so ``elapsed_s`` is
pinned) and a :class:`repro.obs.TraceRecorder`.  The sha256 of the
canonical ``EngineReport.to_dict()`` JSON and of the Chrome-trace bytes
must match ``tests/golden_reports.json``: a refactor of the runtime that
changes any report field, schedule, segment or span shows up here.

Re-record (only for an intended behaviour change, and say so in the
change log) with::

    PYTHONPATH=src python tests/test_golden_reports.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.core import DEVICES
from repro.mpsoc import symmetric_multicore
from repro.obs import ManualClock, TraceRecorder, dumps_chrome_trace
from repro.runtime import SCHEDULERS, SegmentCache, StreamEngine, make_scheduler
from repro.runtime.scenarios import REGISTRY

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_reports.json")

#: Smallest viable parameterisation per registered scenario.
SMALL = {
    "quickstart": {"frames": 8},
    "videoconferencing": {"frames": 8},
    "set_top_box": {"frames": 8},
    "dvr": {"frames": 8},
    "surveillance": {"cameras": 2, "frames": 8},
    "video_wall": {"tiles": 2, "frames": 8},
    "transcode_farm": {"workers": 2, "clips": 1, "frames": 8},
    "portable_player": {},
    "podcast_farm": {"workers": 2, "episodes": 1},
    "conference_bridge": {"narrowband": 1, "wideband": 1},
    "wireless_surveillance": {"cameras": 2, "frames": 8},
    "lossy_wan_transcode": {"workers": 2, "clips": 1, "frames": 8},
}


def _platform_for(scenario):
    if scenario.device:
        return DEVICES[scenario.device].platform()
    return symmetric_multicore(4)


def run_digests(scenario_name: str, sched_name: str) -> dict[str, str]:
    """``{"report": sha256, "trace": sha256}`` of one traced run."""
    scenario = REGISTRY.get(scenario_name)
    recorder = TraceRecorder()
    report = StreamEngine(
        scenario.sessions(**SMALL[scenario_name]),
        cache=SegmentCache(64),
        scheduler=make_scheduler(sched_name, platform=_platform_for(scenario)),
        trace=recorder,
        clock=ManualClock(),
    ).run()
    report_json = json.dumps(
        report.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return {
        "report": hashlib.sha256(report_json.encode()).hexdigest(),
        "trace": hashlib.sha256(
            dumps_chrome_trace(recorder).encode()
        ).hexdigest(),
    }


def _cases():
    return [
        (scenario.name, sched)
        for scenario in REGISTRY
        for sched in sorted(SCHEDULERS)
    ]


def test_every_registered_scenario_is_pinned():
    assert set(SMALL) == {s.name for s in REGISTRY}
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(f"{n}/{s}" for n, s in _cases())


@pytest.mark.parametrize("scenario_name,sched_name", _cases())
def test_report_and_trace_match_golden(scenario_name, sched_name):
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)[f"{scenario_name}/{sched_name}"]
    assert run_digests(scenario_name, sched_name) == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_reports.py --record")
    digests = {
        f"{name}/{sched}": run_digests(name, sched) for name, sched in _cases()
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} runs to {GOLDEN_PATH}")
