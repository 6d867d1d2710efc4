"""Tests for the virtual-time scheduler layer.

The load-bearing invariant: scheduling affects only *when* segments run,
never *what* they produce — every policy must emit bit-identical
session bitstreams on every registered scenario.  On top of that, each
policy's ordering, the rate contracts, the RTOS admission gate, and the
platform-mapped cost model get behavioural tests of their own.
"""

import dataclasses
import json
import math

import pytest

from repro.core import DEVICES
from repro.mapping import MappedTrace, segment_cost
from repro.mpsoc import admission_test, symmetric_multicore
from repro.runtime import (
    EDF,
    SCHEDULERS,
    AdmissionError,
    MediaSession,
    PlatformMapped,
    RoundRobin,
    SegmentCache,
    SegmentResult,
    StreamEngine,
    WeightedFair,
    make_scheduler,
    stage_application,
)
from repro.runtime.run import main as cli_main
from repro.runtime.scenarios import REGISTRY, ScenarioRegistry

#: Smallest viable parameterisation per scenario, shared by the
#: determinism sweep (keeps 8 scenarios x 4 schedulers affordable).
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
}


class StubSession(MediaSession):
    """Deterministic no-codec session: fixed ops per segment."""

    kind = "stub"

    def __init__(
        self,
        name,
        segments=4,
        ops=1e6,
        frames_per_segment=1,
        rate_hz=None,
    ):
        super().__init__(name, range(1, segments + 1), rate_hz=rate_hz)
        self._ops = ops
        self._f = frames_per_segment

    def _batch_frames(self, batch):
        return self._f

    def estimated_stage_ops(self):
        return {"alu": self._ops}

    def _payload(self, batch):
        return str(batch).encode()

    def _fingerprint(self):
        return f"stub({self.name})"

    def _process(self, batch):
        return SegmentResult(
            data=f"{self.name}:{batch};".encode(),
            frames=self._f,
            bits=8,
            stage_ops={"alu": self._ops},
        )


def _platform_for(scenario):
    if scenario.device:
        return DEVICES[scenario.device].platform()
    return symmetric_multicore(4)


@pytest.fixture(scope="module")
def sequential_outputs():
    """Per-scenario baseline: every session run alone, uncached."""
    out = {}
    for scenario in REGISTRY:
        sessions = scenario.sessions(**SMALL.get(scenario.name, {}))
        out[scenario.name] = {
            s.name: s.run_to_completion(None).output_bytes()
            for s in sessions
        }
    return out


class TestSchedulingNeverChangesOutput:
    @pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
    @pytest.mark.parametrize("scenario_name", sorted(s.name for s in REGISTRY))
    def test_bit_identical_on_every_scenario(
        self, scenario_name, sched_name, sequential_outputs
    ):
        scenario = REGISTRY.get(scenario_name)
        sessions = scenario.sessions(**SMALL.get(scenario_name, {}))
        scheduler = make_scheduler(
            sched_name, platform=_platform_for(scenario)
        )
        engine = StreamEngine(
            sessions, cache=SegmentCache(64), scheduler=scheduler
        )
        engine.run()
        for session in engine.sessions:
            assert (
                session.output_bytes()
                == sequential_outputs[scenario_name][session.name]
            ), session.name


class TestRoundRobin:
    def test_reproduces_legacy_sweep_order(self):
        # Legacy engine: one segment per session per sweep, construction
        # order, finished sessions dropped between sweeps.
        a = StubSession("a", segments=1)
        b = StubSession("b", segments=3)
        c = StubSession("c", segments=2)
        StreamEngine([a, b, c], scheduler=RoundRobin()).run()
        order = sorted(
            [(t.start, s.name, t.index) for s in (a, b, c) for t in s.timings]
        )
        assert [(name, i) for _, name, i in order] == [
            ("a", 0), ("b", 0), ("c", 0), ("b", 1), ("c", 1), ("b", 2),
        ]

    def test_unrated_sessions_never_miss(self):
        a = StubSession("a", segments=3)
        report = StreamEngine([a], scheduler=RoundRobin()).run()
        assert report.total_deadlines == 0
        assert report.total_deadline_misses == 0
        assert all(math.isinf(t.deadline) for t in a.timings)

    def test_default_scheduler_is_roundrobin(self):
        engine = StreamEngine([StubSession("a")])
        assert engine.scheduler.name == "roundrobin"


class NeverFinishedSession(StubSession):
    """Claims it is never finished, though its input runs out; raises if
    the engine keeps stepping it long after that."""

    finished = False

    def __init__(self, name, segments):
        super().__init__(name, segments=segments)
        self.step_calls = 0

    def step(self, cache=None):
        self.step_calls += 1
        if self.step_calls > 10:
            raise AssertionError("engine kept stepping a drained session")
        return super().step(cache)


class TestDrainedSessions:
    @pytest.mark.parametrize("sched_name", ["roundrobin", "edf"])
    def test_none_from_step_takes_the_session_out_of_the_run(
        self, sched_name
    ):
        liar = NeverFinishedSession("liar", segments=2)
        honest = StubSession("honest", segments=3)
        report = StreamEngine(
            [liar, honest], scheduler=make_scheduler(sched_name)
        ).run()
        assert liar.step_calls == 3  # two segments, then one None
        assert report.steps == 5
        assert [s.segments for s in report.sessions] == [2, 3]


class TestReleaseGating:
    def test_engine_idles_until_input_arrives(self):
        # One rated stub: segment k's input completes at (k+1)/rate, so
        # service can only start there (the virtual clock jumps forward).
        s = StubSession("s", segments=3, ops=1e5, rate_hz=10.0)
        report = StreamEngine([s]).run()
        starts = [t.start for t in s.timings]
        assert starts == pytest.approx([0.1, 0.2, 0.3])
        # Each segment completes 1 ms (1e5 ops at 100 MOPS) after arrival.
        assert [t.latency for t in s.timings] == pytest.approx([1e-3] * 3)
        assert report.total_deadline_misses == 0
        assert report.virtual_makespan_s == pytest.approx(0.301)

    def test_unrated_sessions_fill_rated_gaps(self):
        rated = StubSession("rt", segments=2, ops=1e5, rate_hz=10.0)
        background = StubSession("bg", segments=2, ops=1e5)
        StreamEngine([background, rated], scheduler=EDF()).run()
        # Background work is always ready, so it runs before t=0.1.
        assert background.timings[0].start == 0.0
        assert rated.timings[0].start >= 0.1


class TestEDF:
    def _mixed_load(self):
        # One light high-rate session + three heavy low-rate sessions.
        # Heavy segments cost 0.08 s; the light session's budget past
        # arrival is 0.1 s.  A blind sweep stacks all three heavies
        # between light segments (0.24 s > 0.1 s -> misses); EDF serves
        # the earliest deadline so the light session stays clean.
        light = StubSession("light", segments=30, ops=1e6, rate_hz=10.0)
        heavies = [
            StubSession(f"heavy{i}", segments=3, ops=8e6, rate_hz=1.0)
            for i in range(3)
        ]
        return [light, *heavies]

    def test_edf_meets_what_round_robin_misses(self):
        rr = StreamEngine(self._mixed_load(), scheduler=RoundRobin()).run()
        edf = StreamEngine(self._mixed_load(), scheduler=EDF()).run()
        rr_light = next(s for s in rr.sessions if s.name == "light")
        edf_light = next(s for s in edf.sessions if s.name == "light")
        assert rr_light.deadline_misses > 0
        assert edf_light.deadline_misses == 0
        assert edf.total_deadline_misses < rr.total_deadline_misses

    def test_edf_orders_by_deadline(self):
        fast = StubSession("zfast", segments=2, ops=1e5, rate_hz=20.0)
        slow = StubSession("aslow", segments=2, ops=1e5, rate_hz=2.0)
        StreamEngine([slow, fast], scheduler=EDF()).run()
        # Despite construction order and name, the 20 Hz session's first
        # segment (deadline 0.1) runs before the 2 Hz one (deadline 1.0).
        assert fast.timings[0].start < slow.timings[0].start


class TestWeightedFair:
    def test_service_shares_follow_weights(self):
        a = StubSession("a", segments=8, ops=1e6)
        b = StubSession("b", segments=8, ops=1e6)
        scheduler = WeightedFair(
            weights={"a": 2.0, "b": 1.0}, ops_per_second=1e6
        )
        StreamEngine([a, b], scheduler=scheduler).run()
        # Equal unit costs, weights 2:1 -> while both are backlogged, a
        # receives two segments for b's one; a drains after 12 steps
        # having let exactly 4 b segments through.
        a_done = a.timings[-1].finish
        b_before = sum(1 for t in b.timings if t.start < a_done - 1e-9)
        assert b_before == 4

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            WeightedFair(weights={"a": 0.0})

    def test_equal_weights_alternate(self):
        a = StubSession("a", segments=3, ops=1e6)
        b = StubSession("b", segments=3, ops=1e6)
        StreamEngine([a, b], scheduler=WeightedFair()).run()
        starts = sorted(
            [(t.start, s.name) for s in (a, b) for t in s.timings]
        )
        assert [n for _, n in starts] == ["a", "b", "a", "b", "a", "b"]


class TestPlatformMapped:
    def test_pe_busy_matches_segment_cost_traces(self):
        scenario = REGISTRY.get("surveillance")
        sessions = scenario.sessions(cameras=3, unique_feeds=2, frames=8)
        platform = _platform_for(scenario)
        scheduler = PlatformMapped(platform)
        report = StreamEngine(
            sessions, cache=SegmentCache(64), scheduler=scheduler
        ).run()
        # Recompute per-PE busy time from first principles: one mapping
        # simulation per *computed* segment (cache hits never touch PEs).
        expected: dict[int, float] = {pe: 0.0 for pe in platform.pe_ids()}
        for session in sessions:
            for seg, timing in zip(session.segments, session.timings):
                if timing.from_cache:
                    continue
                trace = segment_cost(
                    stage_application(
                        f"{session.kind}_segment", seg.stage_ops
                    ),
                    platform,
                )
                for pe, busy in trace.busy_time.items():
                    expected[pe] += busy
        for pe in platform.pe_ids():
            assert scheduler.pe_busy[pe] == pytest.approx(expected[pe])
        makespan = report.virtual_makespan_s
        assert makespan > 0
        for pe, util in report.pe_utilization.items():
            assert 0.0 <= util <= 1.0
            assert util == pytest.approx(
                min(1.0, expected[pe] / makespan)
            )
        assert report.platform == platform.name

    def test_cache_hits_cost_fraction_and_add_no_busy(self):
        platform = symmetric_multicore(2)
        scheduler = PlatformMapped(platform)
        a = StubSession("a", segments=1, ops=1e6)
        b = StubSession("b", segments=1, ops=1e6)
        b._fingerprint = a._fingerprint  # force a cross-session hit
        b._payload = a._payload
        StreamEngine([a, b], scheduler=scheduler).run()
        assert b.segments_from_cache == 1
        full = a.timings[0].finish - a.timings[0].start
        hit = b.timings[0].finish - b.timings[0].start
        assert hit == pytest.approx(full * scheduler.cache_hit_factor)
        # Busy time reflects exactly one computed segment.
        one = segment_cost(
            stage_application("stub_segment", {"alu": 1e6}), platform
        )
        assert sum(scheduler.pe_busy.values()) == pytest.approx(
            sum(one.busy_time.values())
        )

    def test_reused_instance_resets_per_run_accounting(self):
        # One scheduler instance across two engine runs: the second
        # report's utilization must reflect only the second run.
        platform = symmetric_multicore(2)
        scheduler = PlatformMapped(platform)
        StreamEngine(
            [StubSession("a", segments=2, ops=1e6)], scheduler=scheduler
        ).run()
        first_busy = dict(scheduler.pe_busy)
        StreamEngine(
            [StubSession("b", segments=2, ops=1e6)], scheduler=scheduler
        ).run()
        assert scheduler.pe_busy == first_busy  # reset, not accumulated

    def test_segment_cost_is_deterministic_and_positive(self):
        platform = symmetric_multicore(3)
        app = stage_application(
            "probe", {"dct": 5e5, "motion_estimation": 2e6, "vlc": 1e5}
        )
        first = segment_cost(app, platform)
        second = segment_cost(app, platform)
        assert first.latency_s > 0
        assert first.latency_s == second.latency_s
        assert first.busy_time == second.busy_time
        assert first.mapping == second.mapping
        assert set(first.mapping) == {"motion_estimation", "dct", "vlc"}


class TestAdmission:
    def _oversubscribed(self):
        # 50e6 ops per 1-frame segment at 10 Hz against a 100 MOPS budget:
        # wcet 0.5 s > period 0.1 s.
        return [StubSession("hog", segments=2, ops=5e7, rate_hz=10.0)]

    def test_strict_rejects_before_running(self):
        engine = StreamEngine(self._oversubscribed(), admission="strict")
        with pytest.raises(AdmissionError) as err:
            engine.run()
        assert "REJECTED" in str(err.value)
        assert err.value.report.admitted is False
        # Nothing ran: the rejection happened before the first segment.
        assert engine.sessions[0].segments == []

    def test_warn_attaches_report_but_runs(self):
        report = StreamEngine(
            self._oversubscribed(), admission="warn"
        ).run()
        assert report.admission is not None
        assert report.admission.admitted is False
        assert report.total_frames == 2
        assert "REJECTED" in report.render()

    def test_feasible_set_admitted(self):
        sessions = [
            StubSession("a", segments=1, ops=1e6, rate_hz=10.0),
            StubSession("bg", segments=1, ops=1e9),  # unrated: exempt
        ]
        report = StreamEngine(sessions, admission="warn").run()
        assert report.admission.admitted is True
        assert [r.name for r in report.admission.rows] == ["a"]

    def test_platform_scheduler_prices_admission_by_mapping(self):
        # Under PlatformMapped the gate must test the cost model the run
        # uses: the WCET is the mapped latency of the estimated stage
        # profile, not ops at the generic virtual service rate.
        platform = symmetric_multicore(2)
        session = StubSession("a", segments=1, ops=1e6, rate_hz=10.0)
        scheduler = PlatformMapped(platform)
        engine = StreamEngine([session], scheduler=scheduler)
        report = engine.admission_report()
        expected = segment_cost(
            stage_application("stub_admission", {"alu": 1e6}), platform
        ).latency_s
        assert report.rows[0].wcet == pytest.approx(expected)
        assert report.rows[0].wcet != pytest.approx(1e6 / 100e6)

    def test_rm_render_names_response_time_analysis(self):
        # An RM-admitted set above the Liu-Layland bound must not read
        # as if U <= bound decided it.
        report = admission_test(
            [("a", 0.010, 0.005), ("b", 0.020, 0.009)], policy="rm"
        )
        assert report.admitted
        assert report.utilization > report.bound
        assert "response-time analysis" in report.render()

    def test_policy_follows_scheduler(self):
        sessions = [StubSession("a", segments=1, ops=1e6, rate_hz=10.0)]
        assert StreamEngine(
            sessions, scheduler=EDF()
        ).admission_report().policy == "edf"
        assert StreamEngine(
            sessions, scheduler=RoundRobin()
        ).admission_report().policy == "rm"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            StreamEngine([StubSession("a")], admission="maybe")

    def test_admission_test_edf_utilization(self):
        ok = admission_test([("a", 0.1, 0.05), ("b", 0.2, 0.1)])
        assert ok.admitted and ok.utilization == pytest.approx(1.0)
        over = admission_test([("a", 0.1, 0.08), ("b", 0.2, 0.1)])
        assert not over.admitted

    def test_admission_test_flags_infeasible_task(self):
        report = admission_test([("hog", 0.1, 0.5)])
        assert not report.admitted
        assert not report.rows[0].feasible
        assert "wcet exceeds period" in report.render()

    def test_admission_test_rm_and_empty_and_bad_policy(self):
        assert admission_test([]).admitted
        rm = admission_test([("a", 0.1, 0.01), ("b", 0.2, 0.02)], policy="rm")
        assert rm.admitted
        with pytest.raises(ValueError):
            admission_test([], policy="fifo")


class TestRateContracts:
    def test_contract_rates_applied_by_kind(self):
        sessions = REGISTRY.get("dvr").sessions(frames=8)
        rates = {s.name: s.rate_hz for s in sessions}
        assert rates == {"record": 30.0, "commercials": 30.0}

    def test_mixed_rate_contract(self):
        sessions = REGISTRY.get("surveillance").sessions(cameras=2, frames=8)
        by_kind = {s.kind: s.rate_hz for s in sessions}
        assert by_kind["video_encode"] == 15.0
        assert by_kind["analysis"] == 30.0

    def test_deviceless_scenario_stays_unrated(self):
        sessions = REGISTRY.get("quickstart").sessions(frames=8)
        assert all(s.rate_hz is None for s in sessions)
        assert REGISTRY.get("quickstart").default_scheduler == "roundrobin"

    def test_default_schedulers_come_from_contracts(self):
        assert REGISTRY.get("dvr").default_scheduler == "edf"
        assert REGISTRY.get("video_wall").default_scheduler == "weighted_fair"
        assert REGISTRY.get("transcode_farm").default_scheduler == "platform"
        for sc in REGISTRY:
            if sc.device:
                assert sc.default_scheduler == DEVICES[sc.device].scheduler

    def test_contract_read_builds_no_task_graph(self, monkeypatch):
        import repro.core.scenarios as devices_module

        def no_graphs(*args, **kwargs):
            raise AssertionError("a contract read built task graphs")

        for name in ("_codec", "_support_graph", "merge_applications"):
            monkeypatch.setattr(devices_module, name, no_graphs)
        with pytest.raises(AssertionError):
            DEVICES["surveillance"].application()
        assert [sc.default_scheduler for sc in REGISTRY]
        sessions = REGISTRY.get("surveillance").sessions(cameras=1, frames=4)
        assert {s.rate_hz for s in sessions} == {15.0, 30.0}

    def test_unknown_device_rejected_at_registration(self):
        registry = ScenarioRegistry()
        with pytest.raises(
            ValueError, match="'survelliance'; known devices: .*'surveillance'"
        ):
            registry.register(
                "typo", "a mistyped device name", device="survelliance"
            )(lambda: [])
        assert len(registry) == 0

    def test_unknown_device_rejected_on_replace(self):
        with pytest.raises(ValueError, match="unknown device"):
            dataclasses.replace(
                REGISTRY.get("surveillance"), device="survelliance"
            )


class TestCodedSegmentFrames:
    def test_header_peek_matches_decode(self):
        from repro.runtime import VideoDecodeSession, coded_segment_frames
        from repro.runtime.scenarios import precoded_segments, qcif_like
        from repro.video.encoder import EncoderConfig

        cfg = EncoderConfig(gop_size=8)
        coded = precoded_segments(qcif_like(12, seed=3), cfg, cfg.gop_size)
        assert [coded_segment_frames(c) for c in coded] == [8, 4]
        # A decode session derives exact per-segment arrivals from the
        # headers: a 4-frame tail segment is due earlier than a nominal
        # 8-frame guess would suggest.
        session = VideoDecodeSession("d", coded)
        session.rate_hz = 16.0
        assert session.expected_segment_frames() == 8
        assert session.next_release() == pytest.approx(0.5)

    def test_garbage_and_short_inputs_return_none(self):
        from repro.runtime import coded_segment_frames

        assert coded_segment_frames(b"") is None
        assert coded_segment_frames(b"\x00" * 4) is None
        assert coded_segment_frames(b"not a stream, definitely") is None

    def test_short_tail_segment_meets_deadline_under_edf(self):
        # frames=4 with gop 8: the coded segment holds 4 frames; the
        # header peek keeps the release/deadline exact, so the lightly
        # loaded call meets every deadline.
        sessions = REGISTRY.get("videoconferencing").sessions(frames=4)
        report = StreamEngine(
            sessions, cache=SegmentCache(64), scheduler=EDF()
        ).run()
        assert report.total_deadline_misses == 0


class TestMakeScheduler:
    def test_resolves_names_and_passthrough(self):
        assert make_scheduler("edf").name == "edf"
        assert make_scheduler(None).name == "roundrobin"
        instance = EDF()
        assert make_scheduler(instance) is instance

    def test_platform_scheduler_requires_platform(self):
        with pytest.raises(ValueError):
            make_scheduler("platform")
        sched = make_scheduler("platform", platform=symmetric_multicore(2))
        assert sched.name == "platform"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("lottery")


class TestMappedTraceDefaults:
    def test_default_dicts_are_per_instance(self):
        def mk():
            return MappedTrace(
                firings=[],
                iteration_finish_times=[],
                busy_time={},
                comm_bytes=0.0,
                comm_energy_j=0.0,
                comm_busy_time=0.0,
            )

        first, second = mk(), mk()
        assert first.resource_busy == {} and first.channel_peak_tokens == {}
        first.resource_busy[("bus",)] = 1.0
        first.channel_peak_tokens["c"] = 3
        assert second.resource_busy == {}
        assert second.channel_peak_tokens == {}


class TestCLI:
    def test_json_output_round_trips(self, capsys):
        assert cli_main(
            ["quickstart", "--set", "frames=8", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "quickstart"
        assert payload["total_frames"] > 0
        assert {s["name"] for s in payload["sessions"]} == {"video", "audio"}

    def test_scheduler_flag_reaches_report(self, capsys):
        assert cli_main(
            ["dvr", "--set", "frames=8", "--scheduler", "edf", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheduler"] == "edf"
        assert payload["total_deadlines"] > 0

    def test_strict_admission_exit_code(self, capsys):
        code = cli_main([
            "surveillance", "--set", "cameras=30", "--set", "unique_feeds=1",
            "--admission", "strict",
        ])
        assert code == 3
        assert "REJECTED" in capsys.readouterr().err

    def test_bad_platform_name_is_usage_error(self, capsys):
        code = cli_main([
            "surveillance", "--scheduler", "platform",
            "--platform", "warehouse",
        ])
        assert code == 2
        capsys.readouterr()

    def test_json_with_map_stays_one_document(self, capsys):
        assert cli_main(
            ["videoconferencing", "--set", "frames=8", "--json", "--map"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)  # no trailing tables
        assert payload["map"]["device"] == "cell_phone"
        assert payload["map"]["device_period_s"] > 0
        assert {s["kind"] for s in payload["map"]["sessions"]} == {
            "video_encode", "video_decode", "audio_encode",
        }
        assert all(
            s["streams_at_15hz"] >= 0 for s in payload["map"]["sessions"]
        )

    def test_platform_flag_without_platform_scheduler_rejected(self, capsys):
        code = cli_main([
            "dvr", "--scheduler", "edf", "--platform", "camera",
        ])
        assert code == 2
        assert "--scheduler platform" in capsys.readouterr().err
