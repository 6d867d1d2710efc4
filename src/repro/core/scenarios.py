"""The consumer devices of the paper's Section 2, declared once each.

*"consumer multimedia devices cover a broad range of cost/performance/power
points: multimedia-enabled cell phones; digital audio players; digital
set-top boxes; digital video recorders; digital video cameras."*

Each :class:`Device` entry in :data:`DEVICES` binds an application mix
(built from the codec task graphs plus the support functions of Section 7)
to its SoC preset at a runtime contract.  Experiment C2 in DESIGN.md maps
the paper's five (``paper=True``) and tabulates the resulting points; the
other seven are streaming-era devices (surveillance hubs, video wall,
transcoding and podcast blades, conference bridge) that the streaming
runtime (:mod:`repro.runtime`) exercises as multi-session workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..audio.taskgraph import AudioWorkload
from ..audio.taskgraph import decoder_taskgraph as audio_decoder_graph
from ..audio.taskgraph import encoder_taskgraph as audio_encoder_graph
from ..audio.taskgraph import speech_taskgraph
from ..dataflow.graph import SDFGraph
from ..mpsoc.platform import Platform
from ..mpsoc.presets import (
    audio_player_soc,
    camera_soc,
    cell_phone_soc,
    conference_bridge_soc,
    dvr_soc,
    lossy_wan_transcode_soc,
    podcast_farm_soc,
    set_top_box_soc,
    surveillance_hub_soc,
    transcode_farm_soc,
    video_wall_soc,
    wireless_surveillance_soc,
)
from ..video.taskgraph import VideoWorkload
from ..video.taskgraph import decoder_taskgraph as video_decoder_graph
from ..video.taskgraph import encoder_taskgraph as video_encoder_graph
from .application import ApplicationModel, merge_applications


def _support_graph(
    name: str,
    tasks: list[tuple[str, str, dict]],
) -> SDFGraph:
    """A chain of support-function actors (file system, DRM, UI, ...)."""
    g = SDFGraph(name)
    previous = None
    for actor_name, kind, ops in tasks:
        g.add_actor(actor_name, kind=kind, ops=ops)
        if previous is not None:
            g.add_channel(previous, actor_name, token_size=256.0)
        previous = actor_name
    return g


def drm_application(rate_hz: float = 1.0) -> ApplicationModel:
    """Licence verification + stream decryption (Section 6)."""
    g = _support_graph(
        "drm",
        [
            ("license_check", "control", {"control": 5_000.0, "alu": 2_000.0}),
            ("decrypt", "cipher", {"bit": 64_000.0, "alu": 16_000.0}),
            ("rights_update", "control", {"control": 1_000.0, "mem": 500.0}),
        ],
    )
    return ApplicationModel("drm", g, required_rate_hz=rate_hz)


def filesystem_application(rate_hz: float = 4.0) -> ApplicationModel:
    """Block allocation + directory maintenance (Section 7)."""
    g = _support_graph(
        "filesystem",
        [
            ("fat_lookup", "control", {"control": 3_000.0, "mem": 4_000.0}),
            ("block_io", "io", {"mem": 32_000.0}),
            ("dir_update", "control", {"control": 1_500.0, "mem": 1_000.0}),
        ],
    )
    return ApplicationModel("filesystem", g, required_rate_hz=rate_hz)


def network_application(rate_hz: float = 10.0) -> ApplicationModel:
    """Small IP stack servicing packets (Section 7)."""
    g = _support_graph(
        "network",
        [
            ("nic_rx", "io", {"mem": 3_000.0}),
            ("ip_udp", "control", {"control": 4_000.0, "alu": 2_000.0, "bit": 1_500.0}),
            ("app_layer", "control", {"control": 2_000.0}),
        ],
    )
    return ApplicationModel("network", g, required_rate_hz=rate_hz)


def ui_application(rate_hz: float = 5.0) -> ApplicationModel:
    """Program guide / menus (the set-top-box duties of Section 7)."""
    g = _support_graph(
        "ui",
        [
            ("input_events", "control", {"control": 1_000.0}),
            ("guide_logic", "control", {"control": 8_000.0, "mem": 6_000.0}),
            ("render", "display", {"alu": 20_000.0, "mem": 20_000.0}),
        ],
    )
    return ApplicationModel("ui", g, required_rate_hz=rate_hz)


def servo_application(rate_hz: float = 100.0) -> ApplicationModel:
    """DVD drive servo filters (Section 7: high-rate real-time control)."""
    g = _support_graph(
        "servo",
        [
            ("position_sense", "io", {"mem": 200.0}),
            ("control_filter", "dsp_filter", {"mac": 2_000.0}),
            ("actuator_out", "io", {"mem": 100.0}),
        ],
    )
    return ApplicationModel("servo", g, required_rate_hz=rate_hz)


def analysis_application(rate_hz: float = 30.0) -> ApplicationModel:
    """Commercial detection on the live stream (Section 5)."""
    g = _support_graph(
        "analysis",
        [
            ("frame_features", "analysis", {"alu": 30_000.0, "mem": 20_000.0}),
            ("black_frame", "analysis", {"alu": 2_000.0}),
            ("segment_logic", "control", {"control": 3_000.0}),
        ],
    )
    return ApplicationModel("analysis", g, required_rate_hz=rate_hz)


def _codec(name: str, taskgraph, workload) -> ApplicationModel:
    """One codec task graph at its workload's frame rate."""
    return ApplicationModel(name, taskgraph(workload), workload.frame_rate)


_QCIF15 = VideoWorkload(
    width=176, height=144, frame_rate=15.0, search_algorithm="three_step"
)
_SIF30 = VideoWorkload(
    width=352, height=240, frame_rate=30.0, search_algorithm="three_step"
)
_CIF30 = VideoWorkload(width=352, height=288, frame_rate=30.0)


def _cameras() -> list[ApplicationModel]:
    """Four QCIF camera encodes: both surveillance hubs' front end."""
    return [
        _codec(f"cam{i}_enc", video_encoder_graph, _QCIF15) for i in range(4)
    ]


def _channels() -> list[ApplicationModel]:
    """Two decode + re-encode channels: both transcode blades' media side.

    The cross-standard recoding duty of Section 3 run as a service: each
    channel is a decode pipeline chained to an encode pipeline at a
    different operating point.
    """
    out_cfg = VideoWorkload(
        width=352, height=288, frame_rate=30.0, search_algorithm="diamond"
    )
    return [
        app
        for i in range(2)
        for app in (
            _codec(f"ch{i}_dec", video_decoder_graph, _CIF30),
            _codec(f"ch{i}_enc", video_encoder_graph, out_cfg),
        )
    ]


@dataclass(frozen=True)
class Device:
    """One consumer device: an application mix bound to its SoC (Section 2).

    ``platform`` is the device's :mod:`repro.mpsoc.presets` SoC function
    and ``mix`` builds its application list; both run on every request, so
    each ``platform()`` / :meth:`application` is a fresh object, and
    reading the contract builds no task graph.

    ``scheduler`` and ``rates_hz`` are the device's runtime contract for
    the streaming engine: the default :mod:`repro.runtime.schedulers`
    policy it ships with, and the output rate (frames/s) each session
    *kind* must sustain — the deadlines the virtual-time engine enforces
    and the admission test checks.  Kinds absent from ``rates_hz`` run
    best-effort (no deadlines), the paper's Section 8 split between
    real-time and background computations.

    ``paper`` marks the five devices of the paper's Section 2, the ones
    experiment C2 maps.
    """

    name: str
    description: str
    platform: Callable[[], Platform]
    scheduler: str
    rates_hz: dict[str, float]
    mix: Callable[[], list[ApplicationModel]]
    paper: bool = False

    def application(self) -> ApplicationModel:
        """The device's application mix merged into one mappable graph."""
        return merge_applications(self.mix(), f"{self.name}_app")


#: Every device, by name: the one declaration the mapper (experiment C2,
#: ``--map``), the runtime contracts and the ``--platform`` presets read.
#: Contract rates follow each device's product spec (15 Hz conferencing
#: video, 30 Hz broadcast, ~40 Hz audio frame rates); live-analysis duties
#: run at preview rate (30 Hz) even where recording runs slower, which is
#: what makes deadline behaviour under mixed rates interesting
#: (experiment R4 in DESIGN.md).
DEVICES = {device.name: device for device in (
    Device(
        name="cell_phone",
        description="symmetric videoconferencing terminal (Section 2)",
        platform=cell_phone_soc,
        scheduler="edf",
        rates_hz={"video_encode": 15.0, "video_decode": 15.0,
                  "audio_encode": 40.0},
        # Symmetric encode + decode, speech and the IP stack.
        mix=lambda: [
            _codec("venc", video_encoder_graph, _QCIF15),
            _codec("vdec", video_decoder_graph, _QCIF15),
            ApplicationModel("speech", speech_taskgraph(), 50.0),
            network_application(rate_hz=15.0),
        ],
        paper=True,
    ),
    Device(
        name="audio_player",
        description="digital audio player with local library (Sections 6-7)",
        platform=audio_player_soc,
        scheduler="roundrobin",
        rates_hz={"audio_encode": 40.0},
        mix=lambda: [
            _codec("adec", audio_decoder_graph,
                   AudioWorkload(bitrate=128_000.0)),
            filesystem_application(rate_hz=8.0),
            drm_application(rate_hz=2.0),
        ],
        paper=True,
    ),
    Device(
        name="set_top_box",
        description="asymmetric broadcast receiver (Section 2)",
        platform=set_top_box_soc,
        scheduler="weighted_fair",
        rates_hz={"video_decode": 30.0},
        # Decode-only, plus the program guide and DRM.
        mix=lambda: [
            _codec("vdec", video_decoder_graph,
                   VideoWorkload(width=704, height=480, frame_rate=30.0)),
            _codec("adec", audio_decoder_graph,
                   AudioWorkload(bitrate=192_000.0)),
            ui_application(rate_hz=10.0),
            drm_application(rate_hz=1.0),
        ],
        paper=True,
    ),
    Device(
        name="dvr",
        description="record + playback + commercial analysis (Section 5)",
        platform=dvr_soc,
        scheduler="edf",
        rates_hz={"video_encode": 30.0, "analysis": 30.0},
        mix=lambda: [
            _codec("venc", video_encoder_graph, _SIF30),
            _codec("vdec", video_decoder_graph, _SIF30),
            analysis_application(rate_hz=30.0),
            filesystem_application(rate_hz=15.0),
        ],
        paper=True,
    ),
    Device(
        name="camera",
        description="digital video camera, encode-dominated (Section 2)",
        platform=camera_soc,
        scheduler="edf",
        rates_hz={"video_encode": 30.0},
        # Real-time full-search encode + the drive servo + file system.
        mix=lambda: [
            _codec("venc", video_encoder_graph, VideoWorkload(
                width=352, height=288, frame_rate=30.0,
                search_algorithm="full", search_range=7,
            )),
            servo_application(rate_hz=100.0),
            filesystem_application(rate_hz=30.0),
        ],
        paper=True,
    ),
    # The streaming-era devices the runtime (repro.runtime) drives as
    # multi-session workloads.
    Device(
        name="surveillance",
        description="4-camera surveillance hub with analysis",
        platform=surveillance_hub_soc,
        scheduler="edf",
        rates_hz={"video_encode": 15.0, "analysis": 30.0},
        # The streaming-era camcorder: every camera is its own encode
        # pipeline, analysis watches the live feeds, and the recorder's
        # file system takes the aggregate — the device the runtime's
        # segment cache helps most, since co-located cameras often stare
        # at the same unchanging scene.
        mix=lambda: _cameras() + [
            analysis_application(rate_hz=15.0),
            filesystem_application(rate_hz=15.0),
        ],
    ),
    Device(
        name="video_wall",
        description="4-tile video wall, decode-dominated",
        platform=video_wall_soc,
        scheduler="weighted_fair",
        rates_hz={"video_decode": 30.0},
        mix=lambda: [
            _codec(f"tile{i}_dec", video_decoder_graph, _CIF30)
            for i in range(4)
        ] + [ui_application(rate_hz=10.0), network_application(rate_hz=30.0)],
    ),
    Device(
        name="transcode_farm",
        description="2-channel live transcoding blade",
        platform=transcode_farm_soc,
        scheduler="platform",
        rates_hz={"transcode": 30.0},
        mix=lambda: _channels() + [network_application(rate_hz=30.0)],
    ),
    # The audio-heavy streaming devices (experiment R7).  Contract rates
    # follow the spec-sheet convention above (round numbers near the
    # native Figure-2 cadence): the farm's 16 kHz episodes frame at
    # ~41.7 Hz, contracted at 40; the bridge's scenario sets each room's
    # exact native rate itself, 20 Hz is the narrowband (8 kHz, ~20.8 Hz)
    # floor for sessions added without one.
    Device(
        name="podcast_farm",
        description="4-worker podcast transcoding blade",
        platform=podcast_farm_soc,
        scheduler="weighted_fair",
        rates_hz={"audio_encode": 40.0},
        # The audio analogue of the video transcode farm: every worker is
        # a full subband encode pipeline (filterbank + psychoacoustics +
        # packer), plus the file system feeding the episode library and
        # the network stack that ships it.
        mix=lambda: [
            _codec(f"worker{i}_enc", audio_encoder_graph, AudioWorkload(
                sample_rate=16000.0, bitrate=96_000.0, fft_size=128
            ))
            for i in range(4)
        ] + [filesystem_application(rate_hz=8.0),
             network_application(rate_hz=20.0)],
    ),
    Device(
        name="conference_bridge",
        description="4-room voice-conference bridge",
        platform=conference_bridge_soc,
        scheduler="edf",
        rates_hz={"audio_encode": 20.0},
        # Each room is a Figure-2 encode chain at telephone rate.
        mix=lambda: [
            _codec(f"room{i}_enc", audio_encoder_graph, AudioWorkload(
                sample_rate=8000.0, bitrate=24_000.0, fft_size=64
            ))
            for i in range(4)
        ] + [network_application(rate_hz=50.0)],
    ),
    # The lossy-delivery devices (experiment R8): the wired twins' media
    # mixes and rates — the channel changes what arrives, never what the
    # contract owes — under EDF, since delivery cost eats slack and
    # deadline-blind sweeps start missing first.  Their network stacks
    # run at packet rate: checksums, parity, reassembly, concealment.
    Device(
        name="wireless_surveillance",
        description="4-camera hub with lossy radio uplinks",
        platform=wireless_surveillance_soc,
        scheduler="edf",
        rates_hz={"video_encode": 15.0, "analysis": 30.0},
        mix=lambda: _cameras() + [
            analysis_application(rate_hz=15.0),
            network_application(rate_hz=50.0),
        ],
    ),
    Device(
        name="lossy_wan_transcode",
        description="2-channel WAN-fed transcoding blade",
        platform=lossy_wan_transcode_soc,
        scheduler="edf",
        rates_hz={"transcode": 30.0},
        mix=lambda: _channels() + [network_application(rate_hz=100.0)],
    ),
)}
