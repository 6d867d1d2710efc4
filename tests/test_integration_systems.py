"""Integration tests: end-to-end consumer-device flows across substrates.

Each test chains several packages the way the examples do — codec + DRM +
file system + network + mapping — and checks the cross-cutting invariants
no unit test sees.
"""

import numpy as np
import pytest

from repro.analysis import CommercialDetector, score_detection
from repro.audio import (
    AudioDecoder,
    AudioEncoder,
    AudioEncoderConfig,
    snr_db,
)
from repro.core import (
    DEVICES,
    ApplicationModel,
    MultimediaSystem,
    merge_applications,
)
from repro.drm import (
    License,
    LicenseServer,
    PlaybackDevice,
    RightsGrant,
    encrypt_title,
)
from repro.mapping import evaluate_mapping, reclaim_slack, run_mapper
from repro.mpsoc import cell_phone_soc, dvr_soc
from repro.support import (
    BlockDevice,
    FatFileSystem,
    udp_transaction,
)
from repro.video import EncoderConfig, VideoDecoder, VideoEncoder, sequence_psnr
from repro.video.taskgraph import VideoWorkload, encoder_taskgraph
from repro.workloads.audio_gen import music_like
from repro.workloads.tv_gen import generate_tv_stream
from repro.workloads.video_gen import moving_blocks_sequence


class TestStoreToPlayerPipeline:
    """Encode -> encrypt -> store -> license-over-network -> play -> decode."""

    def test_full_chain(self):
        pcm = music_like(duration=0.3, seed=42)
        encoded = AudioEncoder(AudioEncoderConfig(bitrate=96_000)).encode(pcm)

        server = LicenseServer(master_secret=b"integration")
        device_key = server.register_device("p1")
        content_key = server.register_title("song")
        blob = encrypt_title(encoded.data, "song", content_key)

        fs = FatFileSystem(BlockDevice(num_blocks=2048))
        fs.makedirs("/lib")
        fs.write_file("/lib/song.enc", blob)

        licence = server.request_license(
            "p1", RightsGrant("song", plays_remaining=1, device_ids=("p1",))
        )
        # Licence crosses a 20%-lossy access network.
        response, _ = udp_transaction(
            b"GET song", licence.to_bytes(), loss_rate=0.2, seed=6
        )
        player = PlaybackDevice(device_id="p1", license_key=device_key)
        player.install_license(License.from_bytes(response))

        result = player.play("song", fs.read_file("/lib/song.enc"), now=0.0)
        assert result.authorized
        decoded = AudioDecoder().decode(result.internal_stream)
        assert snr_db(pcm, decoded.pcm) > 10.0
        # The pins never carried a parseable protected stream.
        with pytest.raises(ValueError):
            AudioDecoder().decode(bytes(result.output.data))

    def test_stolen_file_useless_without_license(self):
        server = LicenseServer(master_secret=b"integration2")
        server.register_device("p1")
        content_key = server.register_title("song")
        blob = encrypt_title(b"CLEARDATA" * 20, "song", content_key)
        thief = PlaybackDevice(
            device_id="thief", license_key=b"\x00" * 16
        )
        result = thief.play("song", blob, now=0.0)
        assert not result.authorized
        # And the raw file is not the plaintext.
        assert b"CLEARDATA" not in blob


class TestDvrRecordAnalyseSkip:
    def test_record_analyse_skip_chain(self):
        stream = generate_tv_stream(seed=20)
        fs = FatFileSystem(BlockDevice(num_blocks=8192))
        fs.makedirs("/rec")

        luma = [f.mean(axis=2) for f in stream.frames[:40]]
        encoded = VideoEncoder(
            EncoderConfig(quality=55, gop_size=8, code_chroma=False)
        ).encode(luma)
        fs.write_file("/rec/show.bits", encoded.data)

        # Recorded bits decode after the FS roundtrip.
        decoded = VideoDecoder().decode(fs.read_file("/rec/show.bits"))
        assert len(decoded.frames) == 40

        skips = CommercialDetector().skip_intervals(stream)
        score = score_detection(stream, skips)
        assert score.f1 > 0.8

    def test_dvr_platform_hosts_workload(self):
        device = DEVICES["dvr"]
        report = MultimediaSystem(
            "dvr", [device.application()], device.platform()
        ).map(algorithm="greedy", iterations=3)
        assert report.all_feasible
        assert report.evaluation.memory_feasible


class TestPhoneCallWithDvfs:
    def test_conference_then_power_down(self):
        """Map the videoconferencing mix, then reclaim slack at 15 fps."""
        video = ApplicationModel(
            "venc",
            encoder_taskgraph(
                VideoWorkload(width=176, height=144,
                              search_algorithm="three_step")
            ),
            required_rate_hz=15.0,
        )
        platform = cell_phone_soc()
        problem = video.problem(platform)
        mapping = run_mapper(problem, "greedy").mapping
        nominal = evaluate_mapping(problem, mapping, iterations=4)
        assert nominal.period_s < video.deadline_s  # feasible with slack
        result = reclaim_slack(
            problem, mapping, deadline_s=video.deadline_s, iterations=4
        )
        assert result.meets_deadline
        assert result.energy_saving_fraction > 0.25


class TestCodecConsistencyAcrossViews:
    """The measured pipeline, the task graph, and the mapped simulation
    must agree on where the compute is."""

    def test_me_dominates_in_all_three_views(self):
        frames = moving_blocks_sequence(num_frames=4, height=48, width=64, seed=7)
        cfg = EncoderConfig(
            quality=75, gop_size=4, code_chroma=False, search_algorithm="full"
        )
        encoded = VideoEncoder(cfg).encode(frames)
        measured = {}
        for stat in encoded.frame_stats:
            for stage, ops in stat.stage_ops.items():
                measured[stage] = measured.get(stage, 0.0) + ops
        assert max(measured, key=measured.get) == "motion_estimation"

        graph = encoder_taskgraph(VideoWorkload(width=64, height=48))
        graph_ops = {
            a: sum(actor.tags["ops"].values())
            for a, actor in graph.actors.items()
        }
        assert max(graph_ops, key=graph_ops.get) == "motion_estimation"

        app = ApplicationModel("enc", graph, 30.0)
        problem = app.problem(cell_phone_soc())
        mapping = run_mapper(problem, "greedy").mapping
        from repro.mapping import simulate_mapping

        trace = simulate_mapping(problem, mapping, iterations=4)
        me_busy = sum(
            f.finish - f.start
            for f in trace.firings
            if f.actor == "motion_estimation"
        )
        total_busy = sum(f.finish - f.start for f in trace.firings)
        assert me_busy > 0.4 * total_busy

    def test_video_quality_survives_system_path(self):
        """Quality through encode->encrypt->store->decrypt->decode equals
        quality through encode->decode (the system layers are lossless)."""
        frames = moving_blocks_sequence(num_frames=4, height=32, width=32, seed=8)
        encoded = VideoEncoder(
            EncoderConfig(quality=80, code_chroma=False)
        ).encode(frames)

        direct = VideoDecoder().decode(encoded.data)
        direct_psnr = sequence_psnr(frames, direct.frames)

        server = LicenseServer(master_secret=b"consistency")
        key = server.register_device("d")
        ck = server.register_title("clip")
        blob = encrypt_title(encoded.data, "clip", ck)
        fs = FatFileSystem(BlockDevice(num_blocks=4096))
        fs.write_file("/clip.enc", blob)
        device = PlaybackDevice(device_id="d", license_key=key)
        device.install_license(
            server.request_license("d", RightsGrant("clip"))
        )
        played = device.play("clip", fs.read_file("/clip.enc"), now=0.0)
        system = VideoDecoder().decode(played.internal_stream)
        system_psnr = sequence_psnr(frames, system.frames)
        assert system_psnr == pytest.approx(direct_psnr, abs=1e-9)


class TestScenarioMemoryFeasibility:
    @pytest.mark.parametrize(
        "name", sorted(n for n, d in DEVICES.items() if d.paper)
    )
    def test_buffer_memory_fits_platform(self, name):
        platform = DEVICES[name].platform()
        problem = DEVICES[name].application().problem(platform)
        mapping = run_mapper(problem, "greedy").mapping
        ev = evaluate_mapping(problem, mapping, iterations=3)
        assert ev.memory_feasible, (
            f"{name}: buffers need {ev.buffer_bytes / 1024:.0f} KB of "
            f"{platform.memory_kb:.0f} KB"
        )
