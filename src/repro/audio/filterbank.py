"""Polyphase analysis/synthesis filterbank — the MAPPER of Figure 2.

The paper's MPEG-1 audio encoder splits PCM into 32 uniform subbands before
quantization.  This module implements a cosine-modulated pseudo-QMF bank in
the MPEG style: a single lowpass prototype modulated to M bands, with the
+/- pi/4 phase offsets that cancel the dominant aliasing between adjacent
bands.  Reconstruction is *near* perfect (tens of dB of SNR), exactly like
the real Layer 1/2 filterbank.

Prototype design: pseudo-QMF alias cancellation wants the prototype to be
*power complementary* with its band-edge translate,
``|P(w)|^2 + |P(w - pi/M)|^2 = 1`` through the transition.  We construct
``|P|^2`` directly as a raised-cosine lowpass centred on the band edge
``pi/(2M)`` on a dense frequency grid, take the square root, and inverse-FFT
to a linear-phase FIR of ``taps_per_band * M`` taps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=8)
def prototype_filter(num_bands: int, taps_per_band: int = 16) -> np.ndarray:
    """Square-root raised-cosine (in power) lowpass prototype.

    The impulse response is evaluated by direct quadrature of the designed
    magnitude spectrum at offsets ``n - (L-1)/2`` so the FIR is symmetric
    about the *half-sample* point the cosine modulation references —
    aliasing between adjacent bands cancels only when the two centres agree.
    """
    length = taps_per_band * num_bands
    fc = 1.0 / (4.0 * num_bands)  # band edge, cycles/sample
    rolloff = 0.8
    f1, f2 = fc * (1.0 - rolloff), fc * (1.0 + rolloff)
    f = np.linspace(0.0, f2, 4096)
    magnitude = np.ones_like(f)
    transition = (f > f1) & (f < f2)
    magnitude[transition] = np.cos(
        0.5 * np.pi * (f[transition] - f1) / (f2 - f1)
    )
    magnitude[f >= f2] = 0.0
    n = np.arange(length)
    tau = n - (length - 1) / 2.0
    df = f[1] - f[0]
    return 2.0 * df * (
        magnitude[None, :] * np.cos(2.0 * np.pi * f[None, :] * tau[:, None])
    ).sum(axis=1)


@lru_cache(maxsize=8)
def _bank_matrices(
    num_bands: int, taps_per_band: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """(analysis, synthesis, gain) — gain calibrates unit end-to-end scale."""
    h = prototype_filter(num_bands, taps_per_band)
    length = h.size
    n = np.arange(length)
    center = (length - 1) / 2.0
    k = np.arange(num_bands).reshape(-1, 1)
    phase = (np.pi / num_bands) * (k + 0.5) * (n - center)
    offset = ((-1.0) ** k) * (np.pi / 4.0)
    analysis = 2.0 * h * np.cos(phase + offset)
    synthesis = 2.0 * h * np.cos(phase - offset)
    gain = _impulse_gain(analysis, synthesis, num_bands)
    return analysis, synthesis / gain, gain


def _impulse_gain(
    analysis: np.ndarray, synthesis: np.ndarray, num_bands: int
) -> float:
    """End-to-end gain of the uncalibrated bank, measured on an impulse."""
    length = analysis.shape[1]
    m = num_bands
    x = np.zeros(6 * length)
    x[2 * length] = 1.0
    sub = _analyze_raw(x, analysis, m)
    y = _synthesize_raw(sub, synthesis, m)
    return float(np.max(np.abs(y)))


def _analyze_raw_reference(
    x: np.ndarray, analysis: np.ndarray, m: int
) -> np.ndarray:
    """Scalar reference: build the FIFO frame matrix one frame at a time.

    Kept as the pinned oracle for the stride-tricks fast path (experiment
    R7 in DESIGN.md); the matmul itself was always whole-signal.
    """
    length = analysis.shape[1]
    padded = np.concatenate([np.zeros(length - m), x, np.zeros((-x.size) % m)])
    num_frames = (padded.size - (length - m)) // m
    frames = np.empty((num_frames, length))
    for t in range(num_frames):
        end = (length - m) + (t + 1) * m
        frames[t] = padded[end - length:end][::-1]
    return frames @ analysis.T


def _analyze_raw(x: np.ndarray, analysis: np.ndarray, m: int) -> np.ndarray:
    """Batched analysis: one strided view instead of the per-frame loop.

    Frame ``t`` of the reference is ``padded[t*m : t*m+length][::-1]`` — a
    sliding window with hop ``m`` — so the whole frame matrix is a single
    ``sliding_window_view`` slice.  The contiguous copy reproduces the
    reference's operand layout exactly, keeping the matmul bit-identical.
    """
    length = analysis.shape[1]
    padded = np.concatenate([np.zeros(length - m), x, np.zeros((-x.size) % m)])
    num_frames = (padded.size - (length - m)) // m
    if num_frames <= 0:
        return np.zeros((0, analysis.shape[0]))
    windows = np.lib.stride_tricks.sliding_window_view(padded, length)[::m]
    frames = np.ascontiguousarray(windows[:, ::-1])
    return frames @ analysis.T


def _synthesize_raw_reference(
    sub: np.ndarray, synthesis: np.ndarray, m: int
) -> np.ndarray:
    """Scalar reference: per-frame overlap-add (pinned oracle for R7)."""
    length = synthesis.shape[1]
    num_frames = sub.shape[0]
    out = np.zeros(num_frames * m + length)
    contribution = sub @ synthesis
    for t in range(num_frames):
        out[t * m:t * m + length] += contribution[t]
    return out[:num_frames * m]


def _synthesize_raw(sub: np.ndarray, synthesis: np.ndarray, m: int) -> np.ndarray:
    """Batched overlap-add: loop over the ``taps_per_band`` chunk lanes.

    Each frame's ``length = taps*m`` contribution splits into ``taps``
    m-sample chunks; chunk ``k`` of frame ``t`` lands in output block
    ``t + k``.  Iterating ``k`` from high to low adds every output block's
    contributions in ascending-frame order — the exact addition order of
    the reference loop, so the sums are bit-identical — in ``taps``
    vectorized passes instead of one pass per frame.

    (Fusing the matmul into the lane loop — one m-column slab gemm per
    tap — looks attractive but is *not* bit-safe: BLAS picks different
    microkernels by operand shape, and the slab product diverges from the
    whole-matrix product in the last ulp for small banks.  The pinned R7
    oracle is exact, so the fusion is rejected.)
    """
    length = synthesis.shape[1]
    num_frames = sub.shape[0]
    if num_frames == 0:
        return np.zeros(0)
    taps = length // m
    key = (num_frames, length, m)
    if _synth_scratch.get("key") != key:
        _synth_scratch["key"] = key
        _synth_scratch["bufs"] = (
            np.empty((num_frames, length)),
            np.empty((num_frames + taps, m)),
        )
    contribution, acc = _synth_scratch["bufs"]
    # Writing the gemm into a kept buffer is the same BLAS call on the
    # same operands — identical bits — but skips re-faulting the large
    # intermediate on every decode of a same-shaped stream.
    np.matmul(sub, synthesis, out=contribution)
    acc.fill(0.0)
    chunks = contribution.reshape(num_frames, taps, m)
    for k in range(taps - 1, -1, -1):
        acc[k:k + num_frames] += chunks[:, k, :]
    return acc.reshape(-1)[:num_frames * m].copy()


#: Single-slot scratch for :func:`_synthesize_raw` (keyed by shape): the
#: (frames, taps*m) contribution and the overlap-add accumulator.
_synth_scratch: dict = {}


@dataclass
class FilterbankResult:
    """Subband samples: shape (num_frames, num_bands)."""

    subbands: np.ndarray
    num_bands: int
    delay: int  # total analysis+synthesis delay in samples


class PolyphaseFilterbank:
    """M-band cosine-modulated analysis/synthesis bank (default M=32).

    ``batched`` picks between the strided whole-signal kernels (default)
    and the scalar per-frame reference loops; both emit bit-identical
    subbands/PCM (pinned in ``tests/test_audio_subbandpipe.py``).  ``None``
    follows the module default of :mod:`repro.audio.subbandpipe`.
    """

    def __init__(
        self,
        num_bands: int = 32,
        taps_per_band: int = 16,
        batched: bool = True,
    ) -> None:
        if num_bands < 2:
            raise ValueError("need at least 2 bands")
        if taps_per_band < 4:
            raise ValueError("prototype needs at least 4 taps per band")
        self.num_bands = num_bands
        self.taps_per_band = taps_per_band
        self.batched = batched
        self._analysis, self._synthesis, _ = _bank_matrices(
            num_bands, taps_per_band
        )

    @property
    def filter_length(self) -> int:
        return self.num_bands * self.taps_per_band

    @property
    def delay(self) -> int:
        """End-to-end analysis+synthesis delay in samples."""
        return self.filter_length - self.num_bands

    def analyze(self, pcm: np.ndarray) -> FilterbankResult:
        """Split ``pcm`` into critically sampled subband signals.

        The input is zero-padded at the front by the filter history and at
        the back to a whole number of M-sample blocks, matching a streaming
        implementation that starts from an empty FIFO.
        """
        pcm = np.asarray(pcm, dtype=np.float64)
        if pcm.ndim != 1:
            raise ValueError("filterbank expects a mono 1-D signal")
        kernel = _analyze_raw if self.batched else _analyze_raw_reference
        subbands = kernel(pcm, self._analysis, self.num_bands)
        return FilterbankResult(
            subbands=subbands, num_bands=self.num_bands, delay=self.delay
        )

    def synthesize(self, result: FilterbankResult | np.ndarray) -> np.ndarray:
        """Reconstruct PCM from subband samples (length = frames * M)."""
        subbands = (
            result.subbands if isinstance(result, FilterbankResult) else result
        )
        subbands = np.asarray(subbands, dtype=np.float64)
        if subbands.ndim != 2 or subbands.shape[1] != self.num_bands:
            raise ValueError(
                f"expected (frames, {self.num_bands}) subband array, "
                f"got {subbands.shape}"
            )
        kernel = _synthesize_raw if self.batched else _synthesize_raw_reference
        return kernel(subbands, self._synthesis, self.num_bands)

    def roundtrip_snr(self, pcm: np.ndarray) -> float:
        """Analysis->synthesis SNR in dB after delay compensation."""
        pcm = np.asarray(pcm, dtype=np.float64)
        y = self.synthesize(self.analyze(pcm))
        d = self.delay
        rec = y[d:]
        n = min(pcm.size, rec.size)
        ref, rec = pcm[:n], rec[:n]
        noise = ref - rec
        signal_power = float(np.sum(ref ** 2))
        noise_power = float(np.sum(noise ** 2))
        if noise_power == 0.0:
            return np.inf
        return 10.0 * np.log10(signal_power / max(noise_power, 1e-300))


def band_energies(subbands: np.ndarray) -> np.ndarray:
    """Mean-square energy per band over a subband block."""
    subbands = np.asarray(subbands, dtype=np.float64)
    return np.mean(subbands ** 2, axis=0)
