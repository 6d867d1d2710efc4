"""DVR with Replay-style commercial skipping (paper Section 5).

*"The Replay digital video recorder, for example, automatically identifies
commercials and skips them.  Replay uses black frames between programs and
commercials to identify television."*

Pipeline: generate a synthetic broadcast with ads -> record to the DVR
file system -> run the black-frame/colour/cut-rate detector -> play back
with skips -> score against ground truth; then map the DVR workload onto
its NoC-based SoC.

Run:  python examples/dvr_commercial_skip.py
Also registered as a streaming workload:  python -m repro.runtime.run dvr
"""

import numpy as np

from repro.analysis import CommercialDetector, score_detection
from repro.core import DEVICES, MultimediaSystem, render_table
from repro.support import BlockDevice, FatFileSystem
from repro.video import EncoderConfig, VideoEncoder
from repro.workloads.tv_gen import TvStreamConfig, generate_tv_stream


def main() -> None:
    # --- record ------------------------------------------------------------
    stream = generate_tv_stream(TvStreamConfig(num_program_segments=3), seed=7)
    print(f"broadcast: {stream.num_frames} frames, "
          f"{len(stream.segments())} ground-truth segments")

    fs = FatFileSystem(BlockDevice(num_blocks=8192))
    fs.makedirs("/recordings")
    luma = [f.mean(axis=2) for f in stream.frames]
    # Encode in chunks like a real DVR appending to its recording file.
    encoder = VideoEncoder(EncoderConfig(quality=60, gop_size=10, code_chroma=False))
    pad_h = (-stream.frames[0].shape[0]) % 2
    pad_w = (-stream.frames[0].shape[1]) % 2
    frames_even = [
        np.pad(f, ((0, pad_h), (0, pad_w)), mode="edge") for f in luma
    ]
    encoded = encoder.encode(frames_even[:64])
    fs.append_file("/recordings/tonight.rec", encoded.data)
    print(f"recorded {len(encoded.data)} bytes to "
          f"/recordings/tonight.rec "
          f"(fragmentation {fs.fragmentation('/recordings/tonight.rec'):.2f})")

    # --- analyse ------------------------------------------------------------
    detector = CommercialDetector()
    classified = detector.classify(stream)
    rows = [
        [
            f"{c.start}-{c.end}",
            "AD" if c.is_commercial else "program",
            c.duration_s,
            c.saturation,
            c.cut_rate_hz,
        ]
        for c in classified
    ]
    print(render_table(
        ["frames", "class", "dur (s)", "saturation", "cuts/s"],
        rows,
        title="segment classification",
    ))

    skips = detector.skip_intervals(stream)
    score = score_detection(stream, skips)
    print(f"detection: precision={score.precision:.2f} "
          f"recall={score.recall:.2f} f1={score.f1:.2f}")

    # --- playback with skipping --------------------------------------------
    skipped = sum(end - start for start, end in skips)
    saved = skipped / stream.frame_rate
    print(f"playback skips {len(skips)} ad blocks "
          f"({skipped} frames, {saved:.1f} s saved)")

    # --- can the DVR SoC run record+analyse+playback concurrently? ---------
    device = DEVICES["dvr"]
    report = MultimediaSystem(
        device.name, [device.application()], device.platform()
    ).map(algorithm="greedy", iterations=4)
    print(report.summary())


if __name__ == "__main__":
    main()
