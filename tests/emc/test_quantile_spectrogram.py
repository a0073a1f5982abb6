"""Quantile bands and the short-time spectrogram view.

These are the aggregation primitives behind the Monte Carlo study layer
(:mod:`repro.studies.stochastic`): ``quantile_hold`` must order its
bands correctly and stay consistent with ``peak_hold`` under both grid
regimes (shared and mixed), and ``spectrogram`` must keep the
``amplitude_spectrum`` calibration so a windowed tone reads its true
amplitude in every window that contains it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emc import (Spectrogram, Spectrum, amplitude_spectrum,
                       peak_hold, quantile_hold, spectrogram)
from repro.errors import ExperimentError


def _population(n, n_bins=64, seed=0):
    rng = np.random.default_rng(seed)
    f = np.linspace(0.0, 1e9, n_bins)
    return [Spectrum(f, rng.uniform(0.1, 1.0, n_bins),
                     label=f"s{i}") for i in range(n)]


class TestQuantileHold:
    def test_bands_are_monotone_and_bounded_by_peak_hold(self):
        spectra = _population(17)
        bands = quantile_hold(spectra, qs=(0.5, 0.95, 0.99))
        env = peak_hold(spectra)
        assert set(bands) == {"p50", "p95", "p99"}
        assert np.all(bands["p50"].mag <= bands["p95"].mag)
        assert np.all(bands["p95"].mag <= bands["p99"].mag)
        assert np.all(bands["p99"].mag <= env.mag)

    def test_p100_equals_peak_hold(self):
        spectra = _population(9, seed=3)
        top = quantile_hold(spectra, qs=(1.0,))["p100"]
        np.testing.assert_allclose(top.mag, peak_hold(spectra).mag)

    def test_median_of_constant_population_is_the_constant(self):
        f = np.linspace(0, 1e9, 16)
        spectra = [Spectrum(f, np.full(16, 0.25)) for _ in range(5)]
        np.testing.assert_allclose(
            quantile_hold(spectra, qs=(0.5,))["p50"].mag, 0.25)

    def test_mixed_grids_interpolate_like_peak_hold(self):
        f1 = np.linspace(0.0, 1e9, 65)
        f2 = np.linspace(0.0, 1e9, 33)
        rng = np.random.default_rng(7)
        spectra = [Spectrum(f1, rng.uniform(0.1, 1.0, 65)),
                   Spectrum(f2, rng.uniform(0.1, 1.0, 33))]
        bands = quantile_hold(spectra, qs=(1.0,))
        env = peak_hold(spectra)
        np.testing.assert_allclose(bands["p100"].mag, env.mag)
        np.testing.assert_array_equal(bands["p100"].f, env.f)
        with pytest.raises(ExperimentError):
            quantile_hold(spectra, interpolate=False)

    def test_metadata_and_validation(self):
        spectra = _population(4)
        band = quantile_hold(spectra, qs=(0.95,))["p95"]
        assert band.meta["n_spectra"] == 4
        assert band.meta["q"] == 0.95
        assert band.detector == "peak"
        with pytest.raises(ExperimentError):
            quantile_hold([], qs=(0.5,))
        with pytest.raises(ExperimentError):
            quantile_hold(spectra, qs=(1.5,))
        with pytest.raises(ExperimentError):
            quantile_hold(spectra, qs=())

    def test_mixed_detectors_are_rejected(self):
        f = np.linspace(0, 1e9, 8)
        a = Spectrum(f, np.ones(8), detector="peak")
        b = Spectrum(f, np.ones(8), detector="quasi-peak")
        with pytest.raises(ExperimentError):
            quantile_hold([a, b])

    @given(n=st.integers(2, 12), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_property_band_order_holds_for_any_population(self, n, seed):
        spectra = _population(n, n_bins=16, seed=seed)
        bands = quantile_hold(spectra, qs=(0.5, 0.95, 0.99))
        env = peak_hold(spectra)
        assert np.all(bands["p50"].mag <= bands["p95"].mag + 1e-15)
        assert np.all(bands["p95"].mag <= bands["p99"].mag + 1e-15)
        assert np.all(bands["p99"].mag <= env.mag + 1e-15)


    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           ties=st.booleans(), nan=st.booleans(),
           qs=st.lists(st.sampled_from([0.0, 0.5, 0.95, 0.99, 1.0])
                       | st.floats(0.0, 1.0), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_property_bands_are_np_quantile_bitwise(self, n, seed, ties,
                                                    nan, qs):
        """One sort serves every band, bit for bit equal to
        ``np.quantile``: any population size (one spectrum too), ties,
        ``q`` at 0 and 1, and NaN magnitudes."""
        rng = np.random.default_rng(seed)
        mags = rng.uniform(0.0, 10.0, (n, 8))
        if ties:
            mags = np.round(mags / 4.0)
        if nan:
            mags[rng.integers(n), rng.integers(8)] = np.nan
        f = np.linspace(0.0, 1e9, mags.shape[1])
        bands = quantile_hold([Spectrum(f, m) for m in mags], qs=qs)
        want = {f"p{100.0 * q:g}": level
                for q, level in zip(qs, np.quantile(mags, qs, axis=0))}
        assert set(bands) == set(want)
        for name, level in want.items():
            np.testing.assert_array_equal(bands[name].mag.view(np.uint64),
                                          level.view(np.uint64))


class TestSpectrogram:
    def test_tone_reads_its_amplitude_in_every_window(self):
        fs = 1e9
        t = np.arange(4096) / fs
        v = 0.4 * np.sin(2 * np.pi * 125e6 * t)
        spg = spectrogram(t, v, window="hann", nperseg=256, overlap=0.5)
        # 125 MHz falls exactly on a bin of the 256-sample window
        bin_ = int(np.argmin(np.abs(spg.f - 125e6)))
        levels = spg.mag[:, bin_]
        np.testing.assert_allclose(levels, 0.4, rtol=1e-6)

    def test_burst_localizes_in_time(self):
        fs = 1e9
        t = np.arange(8192) / fs
        v = np.zeros_like(t)
        burst = slice(6000, 7000)
        v[burst] = np.sin(2 * np.pi * 250e6 * t[burst])
        spg = spectrogram(t, v, nperseg=512, overlap=0.0)
        bin_ = int(np.argmin(np.abs(spg.f - 250e6)))
        hot = np.argmax(spg.mag[:, bin_])
        assert spg.t[hot] > t[5500]          # energy lands late
        assert spg.mag[0, bin_] < 1e-6       # ... and not early

    def test_peak_hold_matches_the_hottest_window(self):
        rng = np.random.default_rng(11)
        t = np.arange(2048) / 1e9
        v = rng.normal(0.0, 0.2, t.size)
        spg = spectrogram(t, v, nperseg=128)
        env = spg.peak_hold()
        np.testing.assert_allclose(env.mag, np.max(spg.mag, axis=0))
        np.testing.assert_array_equal(env.f, spg.f)

    def test_shapes_and_validation(self):
        t = np.arange(256) / 1e9
        v = np.sin(2 * np.pi * 50e6 * t)
        spg = spectrogram(t, v, nperseg=64, overlap=0.5)
        assert spg.mag.shape == (spg.t.size, spg.f.size)
        assert spg.meta["nperseg"] == 64
        with pytest.raises(ExperimentError):
            spectrogram(t, v, overlap=1.0)
        with pytest.raises(ExperimentError):
            Spectrogram(t=np.zeros(3), f=np.zeros(4),
                        mag=np.zeros((2, 4)))

    def test_db_is_floored(self):
        spg = Spectrogram(t=np.zeros(1), f=np.linspace(0, 1e6, 4),
                          mag=np.zeros((1, 4)))
        assert np.all(np.isfinite(spg.db()))


class TestAsciiSpectrogram:
    def test_renders_a_heat_map(self):
        from repro.experiments.asciiplot import ascii_spectrogram
        fs = 1e9
        t = np.arange(4096) / fs
        v = 0.4 * np.sin(2 * np.pi * 125e6 * t)
        spg = spectrogram(t, v, nperseg=256, label="tone")
        text = ascii_spectrogram(spg, width=40, height=8, f_min=1e7)
        lines = text.splitlines()
        assert len(lines) >= 8
        assert "MHz" in text or "GHz" in text
        assert "tone" in text
        assert "@" in text                   # the tone is the hot cell

    def test_empty_band_degrades_gracefully(self):
        from repro.experiments.asciiplot import ascii_spectrogram
        spg = Spectrogram(t=np.zeros(1), f=np.linspace(0, 1e3, 4),
                          mag=np.ones((1, 4)))
        assert "no bins" in ascii_spectrogram(spg, f_min=1e9)
