"""Tests for task graphs, application models, scenarios, and systems."""

import pytest

from repro.audio.taskgraph import AudioWorkload
from repro.audio.taskgraph import encoder_taskgraph as audio_encoder_graph
from repro.audio.taskgraph import speech_taskgraph
from repro.core import (
    DEVICES,
    ApplicationModel,
    MultimediaSystem,
    merge_applications,
    render_table,
)
from repro.core.metrics import CostPerfPowerPoint
from repro.dataflow import check_deadlock, is_live, repetition_vector
from repro.mpsoc import camera_soc, cell_phone_soc, symmetric_multicore
from repro.video.taskgraph import (
    VideoWorkload,
    decoder_taskgraph,
    encoder_taskgraph,
    total_ops,
)

#: The paper's five devices (Section 2), the ones experiment C2 maps.
PAPER_DEVICES = sorted(name for name, d in DEVICES.items() if d.paper)


class TestVideoTaskgraph:
    def test_encoder_graph_live(self):
        g = encoder_taskgraph()
        assert is_live(g)
        assert repetition_vector(g) == dict.fromkeys(g.actors, 1)

    def test_feedback_loop_present(self):
        g = encoder_taskgraph()
        # The reconstruction loop must close back on the motion estimator
        # through a frame-store delay (initial token).
        feedback = [
            c
            for c in g.channels.values()
            if c.src == "reconstruct" and c.initial_tokens > 0
        ]
        assert {c.dst for c in feedback} == {"motion_estimation", "predictor"}

    def test_fig1_stages_present(self):
        g = encoder_taskgraph()
        for stage in (
            "dct",
            "quantizer",
            "vlc",
            "buffer",
            "inverse_dct",
            "predictor",
            "motion_estimation",
        ):
            assert stage in g.actors

    def test_me_dominates_encoder_ops(self):
        w = VideoWorkload(search_algorithm="full")
        g = encoder_taskgraph(w)
        me_ops = g.actor("motion_estimation").tags["ops"]["mac"]
        totals = total_ops(g)
        assert me_ops > 0.5 * totals["mac"]

    def test_fast_search_cheaper(self):
        full = VideoWorkload(search_algorithm="full")
        fast = VideoWorkload(search_algorithm="three_step")
        assert fast.me_macs() < full.me_macs() / 5

    def test_decoder_has_no_me(self):
        g = decoder_taskgraph()
        assert "motion_estimation" not in g.actors
        assert is_live(g)

    def test_decoder_cheaper_than_encoder(self):
        w = VideoWorkload()
        enc_ops = total_ops(encoder_taskgraph(w))
        dec_ops = total_ops(decoder_taskgraph(w))
        assert sum(dec_ops.values()) < 0.5 * sum(enc_ops.values())

    def test_invalid_workload_rejected(self):
        with pytest.raises(ValueError):
            VideoWorkload(width=100, height=100)  # not multiple of 8


class TestAudioTaskgraph:
    def test_fig2_stages_present(self):
        g = audio_encoder_graph()
        for stage in (
            "mapper",
            "psychoacoustic_model",
            "quantizer_coder",
            "frame_packer",
            "ancillary_data",
        ):
            assert stage in g.actors

    def test_graph_live_and_single_rate(self):
        g = audio_encoder_graph()
        assert is_live(g)
        assert check_deadlock(g)

    def test_psycho_model_feeds_allocator_not_packer(self):
        g = audio_encoder_graph()
        succ = g.successors("psychoacoustic_model")
        assert succ == {"bit_allocator"}

    def test_speech_graph_live(self):
        assert is_live(speech_taskgraph())

    def test_frame_rate(self):
        w = AudioWorkload(sample_rate=44100.0)
        assert w.frame_rate == pytest.approx(44100.0 / 384.0)


class TestApplicationModel:
    def test_wcet_uses_ops_and_pe_type(self):
        app = ApplicationModel("enc", encoder_taskgraph(), 15.0)
        platform = camera_soc()
        risc_time = app.wcet_on("motion_estimation", platform, 0)
        accel_time = app.wcet_on("motion_estimation", platform, 2)
        assert accel_time < risc_time / 10

    def test_problem_respects_affinity(self):
        app = ApplicationModel("enc", encoder_taskgraph(), 15.0)
        problem = app.problem(camera_soc())
        me_pes = problem.compatible_pes("motion_estimation")
        assert 2 in me_pes  # the ME accelerator
        vlc_pes = problem.compatible_pes("vlc")
        assert 2 not in vlc_pes  # accel refuses other actors

    def test_merge_prefixes_names(self):
        a = ApplicationModel("x", encoder_taskgraph(), 10.0)
        b = ApplicationModel("y", decoder_taskgraph(), 20.0)
        merged = merge_applications([a, b], "xy")
        assert "x.dct" in merged.graph.actors
        assert "y.vld" in merged.graph.actors
        assert merged.required_rate_hz == 20.0

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_applications([])

    def test_deadline(self):
        app = ApplicationModel("a", encoder_taskgraph(), 25.0)
        assert app.deadline_s == pytest.approx(0.04)


class TestScenarios:
    @pytest.mark.parametrize("name", PAPER_DEVICES)
    def test_scenario_constructible_and_live(self, name):
        application = DEVICES[name].application()
        platform = DEVICES[name].platform()
        assert is_live(application.graph)
        assert platform.num_pes >= 2
        # Every actor must be runnable somewhere on the preset platform.
        problem = application.problem(platform)
        for actor in application.graph.actors:
            assert problem.compatible_pes(actor)

    def test_paper_devices_are_the_five_of_section_2(self):
        assert PAPER_DEVICES == [
            "audio_player", "camera", "cell_phone", "dvr", "set_top_box"
        ]

    def test_each_request_builds_fresh_objects(self):
        device = DEVICES["surveillance"]
        assert device.application() is not device.application()
        assert device.application().graph is not device.application().graph
        assert device.platform() is not device.platform()

    def test_most_scenarios_feasible_with_greedy(self):
        feasible = {}
        for name in PAPER_DEVICES:
            device = DEVICES[name]
            system = MultimediaSystem(
                name, [device.application()], device.platform()
            )
            report = system.map(algorithm="greedy", iterations=3)
            feasible[name] = report.all_feasible
        # Four of the five presets host their mixes; the camera preset
        # cannot run a 100 Hz servo loop merged with full-search encode —
        # the provisioning gap this tooling exists to expose.
        assert feasible["cell_phone"]
        assert feasible["audio_player"]
        assert feasible["set_top_box"]
        assert feasible["dvr"]
        assert not feasible["camera"]

    def test_system_report_summary_renders(self):
        device = DEVICES["audio_player"]
        system = MultimediaSystem(
            device.name, [device.application()], device.platform()
        )
        report = system.map(algorithm="greedy", iterations=3)
        text = report.summary()
        assert "audio_player" in text
        assert "mW" in text

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            MultimediaSystem("none", [], symmetric_multicore(2))


class TestMetrics:
    def test_pareto_dominance(self):
        a = CostPerfPowerPoint("a", cost_units=10, throughput_hz=30, power_mw=100)
        b = CostPerfPowerPoint("b", cost_units=12, throughput_hz=30, power_mw=120)
        c = CostPerfPowerPoint("c", cost_units=8, throughput_hz=60, power_mw=90)
        assert a.dominates(b)
        assert not b.dominates(a)
        assert c.dominates(a)

    def test_render_table(self):
        text = render_table(
            ["device", "power"],
            [["phone", 266.8], ["player", 27.1]],
            title="points",
        )
        assert "points" in text
        assert "phone" in text
        assert "|" in text
