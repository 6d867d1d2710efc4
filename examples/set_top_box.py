"""Asymmetric broadcast set-top box (paper Sections 2, 6, 7).

*"Asymmetric systems put more effort into encoding to simplify the
decoder.  Broadcast systems, in which a complex transmitter supplies
content to many simpler receivers, is an example."*

The head-end encodes once at high effort (full-search ME); the set-top box
only decodes — plus the Section-7 duties: program guide UI, pay-per-view
authorization over the small IP stack, and conditional-access DRM.

Run:  python examples/set_top_box.py
Also registered as a streaming workload:  python -m repro.runtime.run set_top_box
"""

from repro.core import DEVICES, MultimediaSystem, render_table
from repro.drm import LicenseServer, PlaybackDevice, RightsGrant, encrypt_title
from repro.support import udp_transaction
from repro.video import EncoderConfig, VideoDecoder, VideoEncoder
from repro.video.taskgraph import (
    VideoWorkload,
    decoder_taskgraph,
    encoder_taskgraph,
    total_ops,
)
from repro.workloads.video_gen import moving_blocks_sequence


def broadcast_asymmetry() -> None:
    print("== head-end vs receiver compute ==")
    w = VideoWorkload(width=352, height=240, search_algorithm="full")
    enc = total_ops(encoder_taskgraph(w))
    dec = total_ops(decoder_taskgraph(w))
    rows = [
        ["head-end encoder", sum(enc.values())],
        ["set-top decoder", sum(dec.values())],
        ["ratio", sum(enc.values()) / sum(dec.values())],
    ]
    print(render_table(["side", "ops/frame"], rows))

    frames = moving_blocks_sequence(num_frames=4, height=48, width=64, seed=9)
    encoded = VideoEncoder(
        EncoderConfig(quality=70, search_algorithm="full", code_chroma=False)
    ).encode(frames)
    decoded = VideoDecoder().decode(encoded.data)
    enc_me = sum(s.me_evaluations for s in encoded.frame_stats)
    print(f"  measured: encoder ran {enc_me} SAD evaluations; "
          f"decoder ran none (motion vectors come in the stream)")
    assert len(decoded.frames) == 4


def pay_per_view() -> None:
    print("== pay-per-view authorization over the small IP stack ==")
    server = LicenseServer(master_secret=b"cable-headend")
    device_key = server.register_device("stb-55")
    content_key = server.register_title("fight-night")
    box = PlaybackDevice(device_id="stb-55", license_key=device_key)

    # The authorization transaction rides a lossy access network.
    request = b"PPV:fight-night:stb-55"
    licence = server.request_license(
        "stb-55",
        RightsGrant(
            "fight-night",
            plays_remaining=2,
            device_ids=("stb-55",),
            not_before=0.0,
            not_after=3 * 3600.0,
        ),
    )
    response, datagrams = udp_transaction(
        request, licence.to_bytes(), loss_rate=0.15, seed=2
    )
    from repro.drm import License

    box.install_license(License.from_bytes(response))
    print(f"  licence delivered in {datagrams} datagrams despite 15% loss")

    stream = encrypt_title(b"EVENT" * 200, "fight-night", content_key)
    live = box.play("fight-night", stream, now=1800.0)
    print(f"  during the window: {'PLAYS' if live.authorized else live.denial}")
    replay = box.play("fight-night", stream, now=4 * 3600.0)
    print(f"  after the window:  {replay.denial.value if replay.denial else 'PLAYS'}")


def map_the_box() -> None:
    print("== mapping the box's full duty mix ==")
    device = DEVICES["set_top_box"]
    report = MultimediaSystem(
        device.name, [device.application()], device.platform()
    ).map(algorithm="greedy", iterations=4)
    print(report.summary())


if __name__ == "__main__":
    broadcast_asymmetry()
    pay_per_view()
    map_the_box()
