"""Catalogue of PE types and the SoC presets of the consumer devices.

Each ``*_soc()`` function declares one device's hardware; the device
table (:data:`repro.core.scenarios.DEVICES`) binds it to the device's
application mix and runtime contract.

Numbers are stylized 2005-era figures (hundreds of MHz embedded cores,
milliwatt budgets) — the benches compare *shapes*, not absolute silicon.
"""

from __future__ import annotations

from .interconnect import Crossbar, InterconnectSpec, MeshNoC, SharedBus
from .platform import Platform, Processor, homogeneous
from .processor import ProcessorType

# ------------------------------------------------------------- PE catalogue

RISC_CPU = ProcessorType(
    name="risc",
    clock_mhz=200.0,
    ops_per_cycle={"alu": 1.0, "mac": 0.5, "mem": 0.7, "control": 1.0, "bit": 0.7},
    area_mm2=4.0,
    cost_units=4.0,
    active_power_mw=180.0,
    idle_power_mw=20.0,
)

DSP = ProcessorType(
    name="dsp",
    clock_mhz=250.0,
    ops_per_cycle={"mac": 2.0, "alu": 1.0, "mem": 1.0, "control": 0.5, "bit": 0.5},
    area_mm2=5.0,
    cost_units=5.0,
    active_power_mw=220.0,
    idle_power_mw=22.0,
)

VLIW_MEDIA = ProcessorType(
    name="vliw",
    clock_mhz=300.0,
    ops_per_cycle={"mac": 4.0, "alu": 2.0, "mem": 1.5, "control": 0.5, "bit": 1.0},
    area_mm2=12.0,
    cost_units=12.0,
    active_power_mw=650.0,
    idle_power_mw=60.0,
)

MCU = ProcessorType(
    name="mcu",
    clock_mhz=80.0,
    ops_per_cycle={"alu": 1.0, "control": 1.0, "mem": 0.5, "mac": 0.25, "bit": 0.5},
    area_mm2=1.0,
    cost_units=1.0,
    active_power_mw=30.0,
    idle_power_mw=2.0,
)

ME_ACCEL = ProcessorType(
    name="me_accel",
    clock_mhz=200.0,
    ops_per_cycle={"mac": 16.0, "alu": 4.0, "mem": 4.0},
    affinity=("motion_estimation",),
    speedup=2.0,
    area_mm2=3.0,
    cost_units=3.0,
    active_power_mw=120.0,
    idle_power_mw=5.0,
)

DCT_ACCEL = ProcessorType(
    name="dct_accel",
    clock_mhz=200.0,
    ops_per_cycle={"mac": 8.0, "alu": 4.0, "mem": 4.0},
    affinity=("dct", "idct"),
    speedup=2.0,
    area_mm2=2.0,
    cost_units=2.0,
    active_power_mw=80.0,
    idle_power_mw=4.0,
)

ENTROPY_ACCEL = ProcessorType(
    name="vlc_accel",
    clock_mhz=200.0,
    ops_per_cycle={"bit": 8.0, "alu": 2.0, "mem": 2.0},
    affinity=("vlc", "vld"),
    speedup=1.5,
    area_mm2=1.5,
    cost_units=1.5,
    active_power_mw=60.0,
    idle_power_mw=3.0,
)

PE_CATALOGUE = {
    t.name: t
    for t in (RISC_CPU, DSP, VLIW_MEDIA, MCU, ME_ACCEL, DCT_ACCEL, ENTROPY_ACCEL)
}

# --------------------------------------------------------- platform presets


def cell_phone_soc() -> Platform:
    """Multimedia cell phone: RISC for protocol/UI + DSP for codecs, bus."""
    return Platform(
        name="cell_phone",
        processors=[
            Processor(0, RISC_CPU),
            Processor(1, DSP),
        ],
        interconnect=SharedBus(InterconnectSpec(bandwidth_bytes_per_s=200e6)),
        # Covers the QCIF frame stores (reference + working) plus stream
        # buffers; 2005 phones backed these with external DRAM.
        memory_kb=1024.0,
    )


def audio_player_soc() -> Platform:
    """Portable audio player: MCU for files/UI + small DSP, minimal power."""
    return Platform(
        name="audio_player",
        processors=[
            Processor(0, MCU),
            Processor(1, DSP),
        ],
        interconnect=SharedBus(InterconnectSpec(bandwidth_bytes_per_s=100e6)),
        memory_kb=128.0,
    )


def set_top_box_soc() -> Platform:
    """Digital set-top box: decode-heavy, mains powered, crossbar."""
    return Platform(
        name="set_top_box",
        processors=[
            Processor(0, RISC_CPU),
            Processor(1, VLIW_MEDIA),
            Processor(2, VLIW_MEDIA),
        ],
        interconnect=Crossbar(InterconnectSpec(bandwidth_bytes_per_s=800e6)),
        memory_kb=2048.0,
    )


def dvr_soc() -> Platform:
    """Digital video recorder: encode + decode + analysis on a 2x2 NoC."""
    noc = MeshNoC(2, 2, InterconnectSpec(bandwidth_bytes_per_s=800e6))
    platform = Platform(
        name="dvr",
        processors=[
            Processor(0, RISC_CPU, position=(0, 0)),
            Processor(1, VLIW_MEDIA, position=(1, 0)),
            Processor(2, ME_ACCEL, position=(0, 1)),
            Processor(3, DCT_ACCEL, position=(1, 1)),
        ],
        interconnect=noc,
        memory_kb=4096.0,
    )
    for p in platform.processors:
        noc.place(p.pe_id, *p.position)
    return platform


def camera_soc() -> Platform:
    """Digital video camera: real-time encode with hardwired ME/DCT."""
    return Platform(
        name="camera",
        processors=[
            Processor(0, RISC_CPU),
            Processor(1, DSP),
            Processor(2, ME_ACCEL),
            Processor(3, DCT_ACCEL),
        ],
        interconnect=SharedBus(InterconnectSpec(bandwidth_bytes_per_s=400e6)),
        # CIF encode keeps several full frame stores (capture, reference,
        # reconstruction) in flight at once.
        memory_kb=2560.0,
    )


def surveillance_hub_soc() -> Platform:
    """Multi-camera surveillance hub: encode-dominated, duplicated ME/DCT.

    A DVR scaled for many simultaneous encode streams: the streaming
    runtime's surveillance scenario feeds it N cameras, so the hot ME/DCT
    stages get two accelerators each instead of the DVR's one.
    """
    noc = MeshNoC(2, 3, InterconnectSpec(bandwidth_bytes_per_s=1200e6))
    platform = Platform(
        name="surveillance_hub",
        processors=[
            Processor(0, RISC_CPU, position=(0, 0)),
            Processor(1, VLIW_MEDIA, position=(1, 0)),
            Processor(2, ME_ACCEL, position=(0, 1)),
            Processor(3, ME_ACCEL, position=(1, 1)),
            Processor(4, DCT_ACCEL, position=(0, 2)),
            Processor(5, DCT_ACCEL, position=(1, 2)),
        ],
        interconnect=noc,
        memory_kb=8192.0,
    )
    for p in platform.processors:
        noc.place(p.pe_id, *p.position)
    return platform


def video_wall_soc() -> Platform:
    """Video wall driver: decode-only but many tiles, so wide and symmetric."""
    return Platform(
        name="video_wall",
        processors=[
            Processor(0, RISC_CPU),
            Processor(1, VLIW_MEDIA),
            Processor(2, VLIW_MEDIA),
            Processor(3, VLIW_MEDIA),
            Processor(4, VLIW_MEDIA),
        ],
        interconnect=Crossbar(InterconnectSpec(bandwidth_bytes_per_s=1600e6)),
        memory_kb=8192.0,
    )


def transcode_farm_soc() -> Platform:
    """One transcoding-farm blade: decode + re-encode several channels."""
    noc = MeshNoC(2, 3, InterconnectSpec(bandwidth_bytes_per_s=1600e6))
    platform = Platform(
        name="transcode_farm",
        processors=[
            Processor(0, RISC_CPU, position=(0, 0)),
            Processor(1, VLIW_MEDIA, position=(1, 0)),
            Processor(2, VLIW_MEDIA, position=(0, 1)),
            Processor(3, VLIW_MEDIA, position=(1, 1)),
            Processor(4, ME_ACCEL, position=(0, 2)),
            Processor(5, DCT_ACCEL, position=(1, 2)),
        ],
        interconnect=noc,
        memory_kb=16384.0,
    )
    for p in platform.processors:
        noc.place(p.pe_id, *p.position)
    return platform


def podcast_farm_soc() -> Platform:
    """Podcast transcoding blade: audio-only, so DSPs instead of VLIWs.

    The audio twin of the video transcode blade — many concurrent
    Figure-2 encode chains (filterbank MACs + FFT analysis) and no pixel
    engines at all, the shape the streaming runtime's podcast_farm
    scenario loads.
    """
    return Platform(
        name="podcast_farm",
        processors=[
            Processor(0, RISC_CPU),
            Processor(1, DSP),
            Processor(2, DSP),
            Processor(3, DSP),
            Processor(4, DSP),
        ],
        interconnect=Crossbar(InterconnectSpec(bandwidth_bytes_per_s=400e6)),
        memory_kb=1024.0,
    )


def conference_bridge_soc() -> Platform:
    """Voice-conference bridge: a few speech legs on a modest DSP pair.

    Narrowband/wideband rooms mix different audio frame rates on the
    same silicon (the runtime's conference_bridge scenario), so the
    control core matters as much as the DSPs.
    """
    return Platform(
        name="conference_bridge",
        processors=[
            Processor(0, RISC_CPU),
            Processor(1, DSP),
            Processor(2, DSP),
        ],
        interconnect=SharedBus(InterconnectSpec(bandwidth_bytes_per_s=200e6)),
        memory_kb=512.0,
    )


def wireless_surveillance_soc() -> Platform:
    """Wireless surveillance hub: camera encodes + a radio/ipstack core.

    The surveillance hub reshaped for lossy uplinks (the runtime's
    ``wireless_surveillance`` scenario): the per-camera ME/DCT engines
    stay, and an MCU joins as the baseband/packet processor — checksums,
    FEC parity, and retry logic are control/bit work, not MAC work, so
    they get their own cheap core instead of stealing VLIW cycles.
    """
    noc = MeshNoC(2, 3, InterconnectSpec(bandwidth_bytes_per_s=1200e6))
    platform = Platform(
        name="wireless_surveillance",
        processors=[
            Processor(0, RISC_CPU, position=(0, 0)),
            Processor(1, VLIW_MEDIA, position=(1, 0)),
            Processor(2, ME_ACCEL, position=(0, 1)),
            Processor(3, DCT_ACCEL, position=(1, 1)),
            Processor(4, MCU, position=(0, 2)),
            Processor(5, ENTROPY_ACCEL, position=(1, 2)),
        ],
        interconnect=noc,
        memory_kb=8192.0,
    )
    for p in platform.processors:
        noc.place(p.pe_id, *p.position)
    return platform


def lossy_wan_transcode_soc() -> Platform:
    """WAN-fed transcode blade: decode/re-encode plus a network stack.

    The transcode farm's shape with one VLIW traded for a RISC pair —
    source clips arrive over a congested WAN (the runtime's
    ``lossy_wan_transcode`` scenario), so per-packet ipstack work,
    reassembly, and concealment bookkeeping keep a whole control core
    busy alongside the media engines.
    """
    noc = MeshNoC(2, 3, InterconnectSpec(bandwidth_bytes_per_s=1600e6))
    platform = Platform(
        name="lossy_wan_transcode",
        processors=[
            Processor(0, RISC_CPU, position=(0, 0)),
            Processor(1, RISC_CPU, position=(1, 0)),
            Processor(2, VLIW_MEDIA, position=(0, 1)),
            Processor(3, VLIW_MEDIA, position=(1, 1)),
            Processor(4, ME_ACCEL, position=(0, 2)),
            Processor(5, DCT_ACCEL, position=(1, 2)),
        ],
        interconnect=noc,
        memory_kb=16384.0,
    )
    for p in platform.processors:
        noc.place(p.pe_id, *p.position)
    return platform


def symmetric_multicore(count: int = 4, ptype: ProcessorType = DSP) -> Platform:
    """Homogeneous baseline for mapper comparisons."""
    return homogeneous(f"smp{count}x{ptype.name}", ptype, count)
