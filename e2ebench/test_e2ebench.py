"""Tests of the benchmark's own machinery.

Run from the repository root with ``python -m pytest e2ebench`` (about
a minute): the tier-1 suite under ``tests/`` does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import passes

HERE = Path(__file__).resolve().parent

#: Layers whose functions a workload never calls (their metrics read 0).
IDLE = {
    "fanout_hits": ("video.decode", "video.entropy_decode", "audio.",
                    "net.", "mapping.", "runtime.scenarios.precode",
                    "runtime.cache.evictions"),
    "unique_transcode": ("audio.", "net.", "runtime.cache.hit_ratio",
                         "runtime.cache.evictions"),
    "device_sweep": ("runtime.cache.evictions",),
}


@pytest.fixture(scope="module", params=passes.WORKLOADS)
def runs(request):
    """One untraced and two traced passes of a workload at seed 0."""
    workload = request.param
    items = passes.workload_items(workload)
    installed = {"before": layers.installed()}
    plain = passes.run_pass(items, passes.PINNED_SEED)
    installed["after_untraced"] = layers.installed()
    traced = []
    for _ in range(2):
        recorder = layers.SpanRecorder()
        with layers.traced(recorder):
            installed["during_traced"] = layers.installed()
            result = passes.run_pass(
                items, passes.PINNED_SEED, hook=recorder.set_context)
        traced.append((recorder, result))
    installed["after_traced"] = layers.installed()
    return workload, plain, traced, installed


def test_untraced_run_has_no_wrapper(runs):
    _, _, _, installed = runs
    assert installed["before"] == []
    assert installed["after_untraced"] == []
    assert installed["after_traced"] == []
    assert len(installed["during_traced"]) == len(layers.bindings())


def test_pinned_outputs_match(runs):
    workload, plain, _, _ = runs
    pins = passes.load_pins(workload, passes.PINNED_SEED)
    attempted, failed = passes.check(plain.observed, pins)
    assert attempted == sum(len(p["sessions"]) for p in pins.values())
    assert failed == []


def test_traced_outputs_equal_untraced(runs):
    _, plain, traced, _ = runs
    for _, result in traced:
        assert result.observed == plain.observed


def test_self_times_within_wall(runs):
    _, _, traced, _ = runs
    for recorder, result in traced:
        total_self = sum(span.self_s for span in recorder.spans)
        assert all(span.self_s >= 0.0 for span in recorder.spans)
        assert total_self <= result.wall_s
        metrics = layers.layer_metrics(recorder, result)
        assert 0.0 <= metrics["trace.unattributed_pct"] < 100.0


def test_every_layer_metric_emitted(runs):
    workload, _, traced, _ = runs
    recorder, result = traced[0]
    metrics = layers.layer_metrics(recorder, result)
    assert set(metrics) | {"trace.overhead_pct"} == set(layers.METRICS)
    for name, value in metrics.items():
        if name.startswith("trace."):
            continue
        idle = name.startswith(IDLE[workload])
        assert (value == 0) == idle, (workload, name, value)


def test_spans_share_segment_ids(runs):
    _, _, traced, _ = runs
    recorder, _ = traced[0]
    steps = [s for s in recorder.spans if s.name == "runtime.session.step"]
    assert len({s.segment for s in steps}) == len(steps)
    by_id = {s.id: s for s in recorder.spans}
    for span in recorder.spans:
        parent = by_id.get(span.parent)
        if parent is not None and parent.segment is not None:
            assert span.segment == parent.segment


def test_exact_counts_repeat(runs):
    _, _, traced, _ = runs
    first, second = (layers.layer_metrics(r, res) for r, res in traced)
    for name in layers.EXACT:
        assert isinstance(first[name], int), name
        assert json.dumps(first[name]) == json.dumps(second[name]), name


def test_held_out_seed_is_deterministic():
    items = passes.workload_items("device_sweep")
    first = passes.run_pass(items, 7).observed
    second = passes.run_pass(items, 7).observed
    assert all(obs is not None for obs in first.values())
    assert passes.check(second, first)[1] == []
    pins = passes.load_pins("device_sweep", passes.PINNED_SEED)
    assert passes.check(first, pins)[1] != []


def _run_cli(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_result():
    done = _run_cli(HERE.parent, "--workload", "fanout_hits", "--seed", "0",
                    "--seconds", "0", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {"frames_per_s", "setup_s",
                                      "peak_rss_mb"}


def test_cli_without_program_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = _run_cli(tmp_path, "--workload", "fanout_hits", "--seed", "0",
                    "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
