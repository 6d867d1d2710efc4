"""C4 — Section 3: motion estimation "greatly reduces the number of bits";
fast searches trade a little quality for much less compute.

"Less compute" is checked twice: in SAD evaluations on the encoded
sequence, and in wall time on one CIF P-frame, where the step-pattern
searches must each beat the exhaustive search."""

import time

import numpy as np

from repro.core import render_table
from repro.video import EncoderConfig, VideoDecoder, VideoEncoder, sequence_psnr
from repro.video.motion import SEARCH_ALGORITHMS
from repro.workloads.video_gen import moving_blocks_sequence


def textured_pan(num_frames=6, height=48, width=64, pan=3, seed=3):
    """Textured field panning globally: every block moves, so zero-vector
    temporal prediction fails everywhere — the case motion search exists
    for (a camera pan across detailed scenery)."""
    rng = np.random.default_rng(seed)
    span = width + num_frames * pan
    cells = rng.uniform(30.0, 220.0, size=(height // 4 + 1, span // 4 + 1))
    big = np.kron(cells, np.ones((4, 4)))[:height, :span]
    return [big[:, t * pan:t * pan + width].copy() for t in range(num_frames)]


FRAMES = textured_pan()


def encode(algorithm: str, motion: bool = True):
    cfg = EncoderConfig(
        quality=75,
        gop_size=6,
        code_chroma=False,
        search_algorithm=algorithm,
        motion_enabled=motion,
    )
    return VideoEncoder(cfg).encode(FRAMES)


def test_me_bit_reduction_and_search_tradeoff(benchmark, show):
    benchmark.pedantic(lambda: encode("three_step"), rounds=2, iterations=1)

    rows = []
    results = {}
    for label, alg, motion in (
        ("no ME (intra residual)", "full", False),
        ("full search", "full", True),
        ("three-step", "three_step", True),
        ("diamond", "diamond", True),
    ):
        encoded = encode(alg, motion)
        decoded = VideoDecoder().decode(encoded.data)
        p_bits = sum(s.bits for s in encoded.frame_stats[1:])
        evals = sum(s.me_evaluations for s in encoded.frame_stats)
        results[label] = (p_bits, evals)
        rows.append([
            label,
            p_bits,
            evals,
            sequence_psnr(FRAMES, decoded.frames),
        ])
    show(render_table(
        ["configuration", "P-frame bits", "SAD evals", "PSNR (dB)"],
        rows,
        title="C4: motion estimation bits/compute trade-off",
    ))
    # Shapes: ME cuts P bits a lot; fast searches cut compute a lot while
    # staying within ~2x of full-search bits.
    assert results["full search"][0] < 0.6 * results["no ME (intra residual)"][0]
    assert results["three-step"][1] < results["full search"][1] / 3
    assert results["diamond"][1] < results["full search"][1] / 3
    assert results["three-step"][0] < 2.0 * results["full search"][0]


def test_fast_searches_beat_full_in_wall_time(show):
    previous, current = moving_blocks_sequence(
        num_frames=2, height=288, width=352, seed=7
    )
    rows = []
    wall = {}
    for name in ("full", "three_step", "diamond"):
        search = SEARCH_ALGORITHMS[name]
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _, evals = search(current, previous, 8, 7)
            best = min(best, time.perf_counter() - t0)
        wall[name] = best
        rows.append([name, best * 1e3, evals])
    show(render_table(
        ["search", "wall (ms, best of 3)", "SAD evals"],
        rows,
        title="C4: motion search wall time on one CIF P-frame (8x8, R=7)",
    ))
    assert wall["three_step"] < wall["full"]
    assert wall["diamond"] < wall["full"]
