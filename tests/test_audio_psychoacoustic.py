"""Tests for the psychoacoustic masking model (paper Section 4)."""

import numpy as np
import pytest

from repro.audio.psychoacoustic import (
    QUIET_CEILING_DB,
    PsychoacousticModel,
    bark,
    spreading_db,
    threshold_in_quiet,
)
from repro.workloads.audio_gen import masked_pair, tone


@pytest.fixture(scope="module")
def model():
    return PsychoacousticModel(sample_rate=44100.0, fft_size=512, num_bands=32)


class TestBarkScale:
    def test_monotonic(self):
        f = np.linspace(20, 20000, 256)
        z = bark(f)
        assert np.all(np.diff(z) > 0)

    def test_reference_points(self):
        # ~1 kHz is ~8.5 Bark; full scale tops out near 24-25 Bark.
        assert 8.0 < bark(1000.0) < 9.5
        assert 23.0 < bark(20000.0) < 26.0


class TestThresholdInQuiet:
    def test_most_sensitive_region_is_2_to_5_khz(self):
        f = np.linspace(100, 16000, 512)
        tq = threshold_in_quiet(f)
        best = f[int(np.argmin(tq))]
        assert 2000 < best < 6000

    def test_rises_at_low_frequencies(self):
        assert threshold_in_quiet(50.0) > threshold_in_quiet(1000.0)

    def test_power_stays_finite_up_to_96_khz_nyquist(self):
        tq = threshold_in_quiet(np.linspace(20.0, 48000.0, 2048))
        assert np.all(np.isfinite(10.0 ** (tq / 10.0)))
        assert tq.max() == QUIET_CEILING_DB

    def test_ceiling_never_reached_at_48_khz_or_below(self):
        tq = threshold_in_quiet(np.linspace(20.0, 24000.0, 2048))
        assert tq.max() < 400.0 < QUIET_CEILING_DB


class TestSpreading:
    def test_asymmetric_slopes(self):
        # Masking spreads further upward (shallower slope above the masker).
        below = spreading_db(np.array([-1.0]))
        above = spreading_db(np.array([1.0]))
        assert below < above < 0

    def test_zero_at_masker(self):
        assert spreading_db(np.array([0.0])) == pytest.approx(0.0)


class TestModel:
    def test_pure_tone_found_tonal(self, model):
        x = tone(1000.0)[:512]
        analysis = model.analyze(x)
        tonal = [m for m in analysis.maskers if m.tonal]
        assert tonal
        best = max(tonal, key=lambda m: m.level_db)
        assert abs(best.frequency_hz - 1000.0) < 100.0

    def test_full_scale_tone_calibration(self, model):
        x = tone(1000.0, amplitude=1.0)[:512]
        analysis = model.analyze(x)
        assert np.max(analysis.spectrum_db) == pytest.approx(96.0, abs=3.0)

    def test_weak_neighbour_is_masked(self):
        # A 512-point FFT cannot resolve a 100 Hz separation at 44.1 kHz,
        # so the masking experiment runs on a higher-resolution model:
        # masker at 1 kHz, probe 1.7 Bark above it at -36 dB.
        fine = PsychoacousticModel(fft_size=2048, num_bands=32)
        x = masked_pair(masker_hz=1000.0, probe_hz=1300.0, probe_level_db=-36.0)
        analysis = fine.analyze(x[:2048])
        probe_bin = int(round(1300.0 / 44100.0 * 2048))
        assert (
            analysis.spectrum_db[probe_bin]
            < analysis.global_threshold_db[probe_bin]
        )

    def test_isolated_probe_is_audible(self):
        # The same probe alone sits far above the threshold in quiet —
        # masking, not absolute level, is what hides it above.
        fine = PsychoacousticModel(fft_size=2048, num_bands=32)
        x = tone(1300.0, amplitude=0.5 * 10 ** (-36.0 / 20.0))[:2048]
        analysis = fine.analyze(x)
        probe_bin = int(round(1300.0 / 44100.0 * 2048))
        assert (
            analysis.spectrum_db[probe_bin]
            > analysis.global_threshold_db[probe_bin]
        )

    def test_masked_fraction_higher_for_sparse_content(self, model, rng):
        sparse = tone(1000.0)[:512]
        dense = rng.normal(0, 0.3, 512)
        assert (
            model.analyze(sparse).masked_fraction()
            > model.analyze(dense).masked_fraction()
        )

    def test_smr_peaks_in_signal_band(self, model):
        x = tone(3000.0)[:512]
        analysis = model.analyze(x)
        expected_band = int(3000.0 / (44100.0 / 2) * 32)
        assert int(np.argmax(analysis.band_smr_db)) == expected_band

    def test_silence_has_no_audible_bins(self, model):
        analysis = model.analyze(np.zeros(512))
        assert analysis.masked_fraction() == pytest.approx(1.0)

    def test_short_window_padded(self, model):
        analysis = model.analyze(np.ones(100) * 0.1)
        assert analysis.spectrum_db.size == 257

    def test_rejects_2d_input(self, model):
        with pytest.raises(ValueError):
            model.analyze(np.zeros((2, 512)))

    def test_fft_must_resolve_bands(self):
        with pytest.raises(ValueError):
            PsychoacousticModel(fft_size=32, num_bands=32)
