"""Tests for the streaming runtime: sessions, cache, engine, registry."""

import numpy as np
import pytest

from repro.audio.encoder import AudioDecoder, AudioEncoderConfig
from repro.core import DEVICES, MultimediaSystem
from repro.dataflow.analysis import is_live
from repro.mapping import evaluate_mapping, run_mapper, sustainable_streams
from repro.runtime import (
    REGISTRY,
    AudioEncodeSession,
    SegmentCache,
    StreamEngine,
    TranscodeSession,
    VideoDecodeSession,
    VideoEncodeSession,
    measured_application,
    segment_key,
)
from repro.runtime.run import list_scenarios, run_scenario
from repro.video.decoder import VideoDecoder
from repro.video.encoder import EncoderConfig, VideoEncoder
from repro.workloads.audio_gen import music_like
from repro.workloads.video_gen import moving_blocks_sequence


def int_frames(num=16, height=48, width=64, seed=0):
    return [
        np.floor(f)
        for f in moving_blocks_sequence(
            num_frames=num, height=height, width=width, seed=seed
        )
    ]


class TestSegmentCache:
    def test_miss_then_hit(self):
        cache = SegmentCache(capacity=4)
        key = segment_key("k", "cfg", b"payload")
        assert cache.get(key) is None
        cache.put(key, "value")
        assert cache.get(key) == "value"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_falsy_values_still_count_as_hits(self):
        # Regression: presence must be sentinel-tested, not `is None` /
        # truthiness, or stored falsy values miscount as misses forever.
        cache = SegmentCache(capacity=8)
        for i, value in enumerate((None, 0, b"", [], 0.0)):
            cache.put(f"k{i}", value)
            got = cache.get(f"k{i}")
            assert got == value or (value is None and got is None)
        assert cache.stats.hits == 5
        assert cache.stats.misses == 0

    def test_falsy_hit_refreshes_recency(self):
        cache = SegmentCache(capacity=2)
        cache.put("a", None)
        cache.put("b", 1)
        assert cache.get("a") is None  # hit: refreshes "a", LRU is now "b"
        cache.put("c", 2)
        assert "a" in cache
        assert "b" not in cache
        assert cache.stats.hits == 1

    def test_lru_eviction_order(self):
        cache = SegmentCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now the LRU entry
        cache.put("c", 3)
        assert cache.stats.evictions == 1
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_zero_capacity_disables(self):
        cache = SegmentCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            SegmentCache(capacity=-1)

    def test_interleaved_sessions_evict_in_access_order(self):
        # Two "sessions" (a*, b*) interleave puts; eviction follows access
        # recency across sessions, not insertion per session.
        cache = SegmentCache(capacity=3)
        cache.put("a1", 1)
        cache.put("b1", 2)
        cache.put("a2", 3)
        assert cache.get("a1") == 1  # refresh: b1 is now the LRU entry
        cache.put("b2", 4)
        assert "b1" not in cache
        assert all(k in cache for k in ("a1", "a2", "b2"))
        assert cache.stats.evictions == 1
        cache.put("a3", 5)  # oldest unrefreshed entry (a2) goes next
        assert "a2" not in cache
        assert "a1" in cache
        assert len(cache) == 3

    def test_capacity_accounting_under_interleaving(self):
        cache = SegmentCache(capacity=2)
        for i in range(10):  # three sessions' keys arrive interleaved
            cache.put(f"s{i % 3}:{i}", i)
            assert len(cache) <= 2
        assert cache.stats.evictions == 8
        # Re-putting an existing key refreshes in place, no phantom entry.
        cache.put("x", 1)
        cache.put("x", 2)
        assert cache.get("x") == 2
        assert len(cache) == 2

    def test_engine_eviction_under_interleaved_sessions(self):
        # Four cameras alternate between two feeds; a one-entry cache
        # thrashes (each session evicts the other feed's segment) while
        # two entries serve both.
        cfg = EncoderConfig(gop_size=8)
        feeds = [int_frames(8, seed=s) for s in (0, 1)]

        def build():
            return [
                VideoEncodeSession(f"cam{i}", feeds[i % 2], cfg)
                for i in range(4)
            ]

        thrash = StreamEngine(build(), cache=SegmentCache(capacity=1)).run()
        assert thrash.cache.hits == 0
        assert thrash.cache.evictions == 3
        roomy = StreamEngine(build(), cache=SegmentCache(capacity=2)).run()
        assert roomy.cache.hits == 2
        assert roomy.cache.evictions == 0

    def test_keys_separate_kind_config_payload(self):
        base = segment_key("video", "cfg1", b"x")
        assert segment_key("audio", "cfg1", b"x") != base
        assert segment_key("video", "cfg2", b"x") != base
        assert segment_key("video", "cfg1", b"y") != base
        assert segment_key("video", "cfg1", b"x") == base


class TestSessions:
    def test_video_segments_concatenate_and_decode(self):
        frames = int_frames(12)
        session = VideoEncodeSession(
            "s", frames, EncoderConfig(gop_size=4)
        ).run_to_completion()
        assert session.frames_done == 12
        assert len(session.segments) == 3  # 12 frames / gop 4
        # Every segment is a standalone stream.
        decoded = []
        for seg in session.segments:
            decoded.extend(f.y for f in VideoDecoder().decode(seg.data).frames)
        assert len(decoded) == 12

    def test_video_session_matches_segmented_direct_encode(self):
        frames = int_frames(8)
        cfg = EncoderConfig(gop_size=4, quality=60)
        session = VideoEncodeSession("s", frames, cfg).run_to_completion()
        direct = b"".join(
            VideoEncoder(cfg).encode(frames[i:i + 4]).data for i in (0, 4)
        )
        assert session.output_bytes() == direct

    def test_audio_session_covers_all_samples(self):
        pcm = music_like(duration=0.3, seed=1)
        cfg = AudioEncoderConfig(bitrate=96_000)
        session = AudioEncodeSession(
            "a", pcm, cfg, segment_audio_frames=4
        ).run_to_completion()
        assert session.total_bits > 0
        decoded = []
        for seg in session.segments:
            decoded.append(AudioDecoder().decode(seg.data).pcm)
        assert sum(p.size for p in decoded) == pcm.size

    def test_transcode_reduces_bits(self):
        frames = int_frames(8)
        hi = EncoderConfig(gop_size=8, quality=90)
        coded = [VideoEncoder(hi).encode(frames).data]
        session = TranscodeSession(
            "t", coded, EncoderConfig(gop_size=8, quality=30)
        ).run_to_completion()
        assert session.frames_done == 8
        assert session.total_bits < len(coded[0]) * 8

    def test_session_reports_stage_ops(self):
        frames = int_frames(8)
        session = VideoEncodeSession(
            "s", frames, EncoderConfig(gop_size=4)
        ).run_to_completion()
        per_frame = session.ops_per_frame()
        assert per_frame["dct"] > 0
        assert per_frame["motion_estimation"] > 0  # P frames ran ME

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            VideoEncodeSession("s", int_frames(4), segment_frames=0)
        with pytest.raises(ValueError):
            AudioEncodeSession(
                "a", music_like(duration=0.1), segment_audio_frames=0
            )


class TestDeterminism:
    """N concurrent sessions == N sequential runs, bit for bit."""

    def _sessions(self):
        cfg = EncoderConfig(gop_size=4, quality=65)
        return [
            VideoEncodeSession(f"v{i}", int_frames(8, seed=i), cfg)
            for i in range(3)
        ] + [
            AudioEncodeSession(
                f"a{i}",
                music_like(duration=0.2, seed=i),
                AudioEncoderConfig(bitrate=96_000),
            )
            for i in range(2)
        ]

    def test_interleaved_equals_sequential(self):
        sequential = {
            s.name: s.run_to_completion(None).output_bytes()
            for s in self._sessions()
        }
        engine = StreamEngine(self._sessions())
        engine.run()
        for session in engine.sessions:
            assert session.output_bytes() == sequential[session.name]

    def test_cache_never_changes_output(self):
        # Identical feeds + configs maximise hits; outputs must not move.
        frames = int_frames(8, seed=7)
        cfg = EncoderConfig(gop_size=4)

        def build():
            return [
                VideoEncodeSession(f"v{i}", frames, cfg) for i in range(4)
            ]

        cached = StreamEngine(build(), cache=SegmentCache(64))
        cached_report = cached.run()
        uncached = StreamEngine(build(), use_cache=False)
        uncached.run()
        assert cached_report.cache.hits > 0
        for a, b in zip(cached.sessions, uncached.sessions):
            assert a.output_bytes() == b.output_bytes()

    def test_repeat_runs_identical(self):
        first = StreamEngine(self._sessions())
        second = StreamEngine(self._sessions())
        first.run()
        second.run()
        for a, b in zip(first.sessions, second.sessions):
            assert a.output_bytes() == b.output_bytes()


class TestCacheAccounting:
    def test_duplicate_sessions_encode_once(self):
        frames = int_frames(8, seed=3)
        cfg = EncoderConfig(gop_size=4)
        engine = StreamEngine(
            [VideoEncodeSession(f"v{i}", frames, cfg) for i in range(5)]
        )
        report = engine.run()
        # 5 sessions x 2 segments; only the first session computes.
        assert report.cache.lookups == 10
        assert report.cache.hits == 8
        assert sum(s.computed for s in report.sessions) == 2
        assert sum(s.from_cache for s in report.sessions) == 8
        assert report.cache.ops_saved.get("dct", 0.0) > 0

    def test_different_configs_do_not_share(self):
        frames = int_frames(8, seed=3)
        engine = StreamEngine([
            VideoEncodeSession("q50", frames, EncoderConfig(gop_size=4, quality=50)),
            VideoEncodeSession("q80", frames, EncoderConfig(gop_size=4, quality=80)),
        ])
        report = engine.run()
        assert report.cache.hits == 0

    def test_decode_sessions_share(self):
        frames = int_frames(8, seed=4)
        coded = [VideoEncoder(EncoderConfig(gop_size=8)).encode(frames).data]
        engine = StreamEngine(
            [VideoDecodeSession(f"t{i}", coded) for i in range(3)]
        )
        report = engine.run()
        assert report.cache.hits == 2
        luma = [s.segments[0].extras["luma"] for s in engine.sessions]
        for other in luma[1:]:
            for a, b in zip(luma[0], other):
                assert np.array_equal(a, b)

    def test_engine_honours_supplied_cache(self):
        # An empty cache is falsy (len 0); the engine must still use the
        # exact object it was given, not swap in a default.
        frames = int_frames(8, seed=6)
        cache = SegmentCache(capacity=0)
        engine = StreamEngine(
            [VideoEncodeSession(f"v{i}", frames) for i in range(2)],
            cache=cache,
        )
        report = engine.run()
        assert engine.cache is cache
        assert report.cache.hits == 0  # capacity 0 == caching disabled
        assert report.cache.misses > 0

    def test_engine_requires_unique_names(self):
        frames = int_frames(4)
        with pytest.raises(ValueError):
            StreamEngine([
                VideoEncodeSession("dup", frames),
                VideoEncodeSession("dup", frames),
            ])


class TestEngineReport:
    def _report(self):
        frames = int_frames(8, seed=2)
        engine = StreamEngine([
            VideoEncodeSession("enc", frames, EncoderConfig(gop_size=4)),
            VideoEncodeSession("dup", frames, EncoderConfig(gop_size=4)),
        ])
        return engine.run()

    def test_render_has_sessions_cache_and_scheduler_lines(self):
        text = self._report().render()
        assert "enc" in text and "dup" in text
        assert "cache:" in text
        assert "scheduler: roundrobin" in text
        assert "cache%" in text and "miss" in text and "lat(ms)" in text

    def test_render_unrated_sessions_show_dashes(self):
        text = self._report().render()
        # No rate contract: the rate and miss columns are placeholders.
        row = next(l for l in text.splitlines() if l.startswith("enc"))
        assert "| -" in row

    def test_render_counts_match_summaries(self):
        report = self._report()
        text = report.render()
        assert f"{len(report.sessions)} sessions" in text
        assert f"{report.total_frames} frames" in text
        assert f"{report.cache.hits} hits" in text

    def test_to_dict_is_json_ready(self):
        import json

        report = self._report()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["scheduler"] == "roundrobin"
        assert payload["total_frames"] == report.total_frames
        assert {s["name"] for s in payload["sessions"]} == {"enc", "dup"}
        assert payload["cache"]["hits"] == report.cache.hits
        assert payload["admission"] is None


class TestMeasuredMapping:
    def test_measured_application_maps(self):
        session = VideoEncodeSession(
            "enc", int_frames(8), EncoderConfig(gop_size=4)
        ).run_to_completion()
        app = measured_application(session, rate_hz=15.0)
        assert is_live(app.graph)
        problem = app.problem(DEVICES["surveillance"].platform())
        result = run_mapper(problem, "greedy")
        ev = evaluate_mapping(problem, result.mapping, iterations=3)
        assert ev.period_s > 0
        assert sustainable_streams(ev, 15.0) >= 1

    def test_unfinished_session_rejected(self):
        session = VideoEncodeSession("enc", int_frames(4))
        with pytest.raises(ValueError):
            measured_application(session, rate_hz=15.0)

    def test_sustainable_streams_validation(self):
        session = VideoEncodeSession(
            "enc", int_frames(8), EncoderConfig(gop_size=4)
        ).run_to_completion()
        app = measured_application(session, rate_hz=15.0)
        problem = app.problem(DEVICES["surveillance"].platform())
        ev = evaluate_mapping(
            problem, run_mapper(problem, "greedy").mapping, iterations=3
        )
        with pytest.raises(ValueError):
            sustainable_streams(ev, 0.0)


class TestExtendedScenarios:
    @pytest.mark.parametrize(
        "name", sorted(n for n, d in DEVICES.items() if not d.paper)
    )
    def test_constructible_live_and_mappable(self, name):
        application = DEVICES[name].application()
        platform = DEVICES[name].platform()
        assert is_live(application.graph)
        problem = application.problem(platform)
        for actor in application.graph.actors:
            assert problem.compatible_pes(actor)
        system = MultimediaSystem(name, [application], platform)
        report = system.map(algorithm="greedy", iterations=2)
        assert report.evaluation.period_s > 0


class TestRegistry:
    def test_at_least_seven_scenarios(self):
        assert len(REGISTRY) >= 7

    def test_every_scenario_builds_sessions(self):
        for scenario in REGISTRY:
            sessions = scenario.sessions()
            assert sessions, scenario.name
            names = [s.name for s in sessions]
            assert len(set(names)) == len(names), scenario.name

    def test_parameter_override_and_validation(self):
        scenario = REGISTRY.get("surveillance")
        sessions = scenario.sessions(cameras=2, frames=8)
        assert sum(s.kind == "video_encode" for s in sessions) == 2
        with pytest.raises(ValueError):
            scenario.sessions(nonsense=1)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            REGISTRY.get("does_not_exist")

    def test_listing_renders(self):
        text = list_scenarios()
        for scenario in REGISTRY:
            assert scenario.name in text

    def test_cli_runs_each_scenario_small(self, capsys):
        # Smallest viable parameterisation for an end-to-end smoke pass.
        small = {
            "quickstart": {"frames": 8},
            "videoconferencing": {"frames": 8},
            "set_top_box": {"frames": 8},
            "dvr": {"frames": 8},
            "surveillance": {"cameras": 2, "frames": 8},
            "video_wall": {"tiles": 2, "frames": 8},
            "transcode_farm": {"workers": 2, "clips": 1, "frames": 8},
            "portable_player": {},
        }
        for scenario in REGISTRY:
            report = run_scenario(
                scenario.name, overrides=small.get(scenario.name, {})
            )
            assert report.total_frames > 0, scenario.name
        capsys.readouterr()  # swallow the tables

    def test_surveillance_cache_wins(self):
        report = run_scenario(
            "surveillance", overrides={"cameras": 4, "unique_feeds": 1}
        )
        assert report.cache.hit_rate > 0.5
