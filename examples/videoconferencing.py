"""Symmetric videoconferencing terminal (paper Section 2).

*"A symmetric compression system is designed to require roughly equal
computational power from both the sender and receiver.  Videoconferencing
is a classic example of this scenario, in which each terminal must both
transmit and receive."*

This example builds the cell-phone terminal: video encode + video decode +
RPE-LTP speech + a network stack, maps it onto the phone SoC, and compares
against the broadcast (decode-only) workload to show the symmetric
terminal's extra compute.

Run:  python examples/videoconferencing.py
Also registered as a streaming workload:  python -m repro.runtime.run videoconferencing
"""

import numpy as np

from repro.audio import RpeLtpDecoder, RpeLtpEncoder, segmental_snr_db
from repro.core import DEVICES, MultimediaSystem, render_table
from repro.core.application import ApplicationModel
from repro.video import EncoderConfig, VideoDecoder, VideoEncoder
from repro.video.taskgraph import (
    VideoWorkload,
    decoder_taskgraph,
    encoder_taskgraph,
    total_ops,
)
from repro.workloads.audio_gen import speech_like
from repro.workloads.video_gen import moving_blocks_sequence


def codec_roundtrip() -> None:
    print("== terminal media path ==")
    frames = moving_blocks_sequence(num_frames=6, height=48, width=64, seed=3)
    enc = VideoEncoder(
        EncoderConfig(
            quality=70, gop_size=6, search_algorithm="three_step",
            code_chroma=False,
        )
    )
    encoded = enc.encode(frames)
    VideoDecoder().decode(encoded.data)
    kbps = encoded.total_bits * 15.0 / len(frames) / 1000.0
    print(f"  video: {kbps:.0f} kbit/s at 15 fps (three-step ME)")

    speech = speech_like(duration=0.5, seed=3)
    spoken = RpeLtpEncoder().encode(speech)
    recon = RpeLtpDecoder().decode(spoken.data)
    print(f"  speech: {spoken.bitrate() / 1000:.1f} kbit/s RPE-LTP, "
          f"segSNR {segmental_snr_db(speech, recon):.1f} dB")


def symmetric_vs_asymmetric() -> None:
    print("== symmetric vs asymmetric compute (ops per frame) ==")
    w = VideoWorkload(width=176, height=144, search_algorithm="three_step")
    enc_ops = sum(total_ops(encoder_taskgraph(w)).values())
    dec_ops = sum(total_ops(decoder_taskgraph(w)).values())
    rows = [
        ["broadcast receiver (decode only)", dec_ops, 1.0],
        ["videoconf terminal (enc + dec)", enc_ops + dec_ops,
         (enc_ops + dec_ops) / dec_ops],
    ]
    print(render_table(["terminal", "ops/frame", "vs decode-only"], rows))


def map_terminal() -> None:
    print("== mapping the full terminal onto the phone SoC ==")
    device = DEVICES["cell_phone"]
    platform = device.platform()
    system = MultimediaSystem(device.name, [device.application()], platform)
    report = system.map(algorithm="greedy", iterations=4)
    print(report.summary())
    pe_rows = []
    for pe in platform.processors:
        util = report.evaluation.pe_utilisation[pe.pe_id]
        actors = sum(1 for a, p in report.mapping.items() if p == pe.pe_id)
        pe_rows.append([pe.name, f"{util * 100:.0f}%", actors])
    print(render_table(["PE", "utilisation", "actors"], pe_rows))


if __name__ == "__main__":
    codec_roundtrip()
    symmetric_vs_asymmetric()
    map_terminal()
