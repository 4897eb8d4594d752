import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import fopen_sar
from fopen_sar.metrics import (METRIC_KEYS, NoPeakError, Profile, aggregate_reports,
                               extract_profiles, find_mainlobe, image_metrics,
                               islr, mainlobe_width_3db, paired_differences,
                               profile_from_cut, pslr, upsample_complex)


def _profile(values, null_left, null_right, peak=None):
    values = np.asarray(values, dtype=float)
    peak = int(np.argmax(values)) if peak is None else peak
    return Profile(values, 1, peak, null_left, null_right)


class TestUpsample:
    def test_factor_one_is_identity(self):
        x = np.arange(6.0) + 1j
        np.testing.assert_array_equal(upsample_complex(x, 1), x)

    def test_delta_becomes_sinc(self):
        n, u = 32, 8
        x = np.zeros(n)
        x[n // 2] = 1.0
        fine = upsample_complex(x, u)
        grid = np.arange(n * u) / u - n // 2
        # periodic (Dirichlet) interpolation of a delta on an even grid
        expect = np.sinc(grid) / np.sinc(grid / n) * np.cos(np.pi * grid / n)
        np.testing.assert_allclose(fine.real, expect, atol=1e-9)

    def test_interpolates_through_original_samples(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        fine = upsample_complex(x, 4)
        np.testing.assert_allclose(fine[::4], x, atol=1e-12)

    def test_real_input_stays_real(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(16)
        fine = upsample_complex(x, 8)
        assert np.max(np.abs(fine.imag)) < 1e-12

    def test_odd_length(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        fine = upsample_complex(x, 4)
        np.testing.assert_allclose(fine[::4], x, atol=1e-12)


class TestProfiles:
    def test_separable_sinc_squared_sections(self):
        az = np.sinc(np.linspace(-4, 4, 129)) ** 2
        rg = np.sinc(np.linspace(-6, 6, 193)) ** 2
        img = np.outer(az, rg).astype(complex)
        rng_p, az_p = extract_profiles(img, upsample=1, smooth_window=1)
        np.testing.assert_allclose(rng_p.values, (rg * az.max()) ** 2, rtol=1e-12)
        np.testing.assert_allclose(az_p.values, (az * rg.max()) ** 2, rtol=1e-12)

    def test_one_dimensional_image_rejected(self):
        with pytest.raises(ValueError, match=re.escape("image must be 2-D [azimuth, range]")):
            extract_profiles(np.ones(8, complex))

    def test_zero_image_rejected(self):
        with pytest.raises(NoPeakError):
            extract_profiles(np.zeros((8, 8), complex))

    def test_nulls_bracket_sinc_first_nulls(self):
        # delta on the grid upsamples to the sinc; detected nulls at +-1 cell
        cut = np.zeros(64, complex)
        cut[32] = 1.0
        u = 16
        prof = profile_from_cut(cut, upsample=u, smooth_window=3)
        assert abs(prof.null_left / u - 31.0) <= 1.0 / u + 1e-9
        assert abs(prof.null_right / u - 33.0) <= 1.0 / u + 1e-9

    def test_peak_with_no_descent_rejected(self):
        with pytest.raises(NoPeakError):
            find_mainlobe(np.ones(16), 0)

    def test_profile_holds_under_26_bytes_a_sample(self):
        # the inverse transform runs in place: the upsampled cut (16 B a sample) and its
        # magnitude (8) at once; an allocating transform held two cuts, 32 B a sample
        rng = np.random.default_rng(3)
        cut = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        tracemalloc.start()
        try:
            profile_from_cut(cut, upsample=4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 26 * 256 * 4096, peak / (256 * 4096)


class TestMainlobeWalk:
    """Hand-made power profiles, unsmoothed, with the expected nulls written out."""

    @pytest.mark.parametrize("power,peak,nulls", [
        # the descent is strict: it stops where a plateau starts
        ([1, 3, 4, 9, 4, 4, 2, 1], 3, (0, 4)),
        ([1, 2, 5, 4, 4, 9, 3, 1], 5, (4, 7)),
        # a NaN compares false, so the walk stops beside it
        ([np.nan, 4, 9, 4, 1, 2], 2, (1, 4)),
        ([2, 1, 4, 9, 6, np.nan], 3, (1, 4)),
        # the power is periodic: a peak at either end descends round the other
        ([9, 4, 1, 3], 0, (-2, 1)),
        ([3, 1, 4, 9], 3, (1, 4)),
        # a flat top at the peak is walked over, then the descent is strict
        ([1, 0, 2, 9, 9, 4, 1, 3, 2, 2], 3, (1, 6)),
        ([2, 2, 1, 9, 9, 9, 2, 0, 1, 3], 4, (2, 7)),
    ], ids=["plateau_right", "plateau_left", "nan_left", "nan_right",
            "wrap_left", "wrap_right", "flat_top", "flat_top_both_sides"])
    def test_nulls(self, power, peak, nulls):
        assert find_mainlobe(np.array(power, float), peak, smooth_window=1) == nulls

    @pytest.mark.parametrize("power,peak", [
        ([1, 9, 9, 2], 1),  # a flat top at the peak that runs to the end
        ([1, 2, 9, np.nan, 3, 1], 2),
        ([9, 4, 1, 9], 0),  # the left side wraps round to a plateau at the end
        ([9, 1, 4, 9], 3),
    ], ids=["plateau_at_peak", "nan_beside_peak", "peak_first", "peak_last"])
    def test_no_descent_rejected(self, power, peak):
        with pytest.raises(NoPeakError):
            find_mainlobe(np.array(power, float), peak, smooth_window=1)

    @pytest.mark.parametrize("values,nulls,width", [
        # the nulls only have to bracket the peak, so one may lie off the array;
        # the half-power run then wraps round the end
        ([10, 8, 6, 1, 9], (-1, 3), 3.0),
        ([9, 1, 6, 8, 10], (1, 5), 3.0),
        # every sample from the peak to the array's end is at least half the peak
        ([6, 8, 10, 7, 0, 1], (0, 4), 3.0),
        ([1, 0, 7, 10, 8, 6], (1, 5), 3.0),
        ([9, 4, 5, 10, 5, 4.9, 9], (1, 5), 2.0),
    ], ids=["peak_first", "peak_last", "half_to_first", "half_to_last", "below_half"])
    def test_width(self, values, nulls, width):
        assert mainlobe_width_3db(_profile(values, *nulls)) == width


class TestFloatRange:
    """A cut outside 2^+-400 is scaled by a power of two before its power is taken."""

    @staticmethod
    def _image():
        rng = np.random.default_rng(3)
        img = rng.standard_normal((32, 24)) + 1j * rng.standard_normal((32, 24))
        img[16, 12] = 30.0
        return img

    @pytest.mark.parametrize("k", [600, -600])
    def test_metrics_unchanged_by_power_of_two(self, k):
        img = self._image()
        assert image_metrics(img * 2.0 ** k) == image_metrics(img)

    @pytest.mark.parametrize("k", [600, -600])
    def test_values_scaled_by_two_to_minus_2e(self, k):
        cut = self._image()[16]
        e = math.frexp(np.abs(cut.view(float)).max())[1]
        np.testing.assert_array_equal(profile_from_cut(cut * 2.0 ** k).values,
                                      profile_from_cut(cut).values * 2.0 ** (-2 * e))

    def test_inside_band_unscaled(self):
        cut = self._image()[16] * 2.0 ** 390
        np.testing.assert_array_equal(profile_from_cut(cut).values,
                                      np.abs(upsample_complex(cut, 16)) ** 2)


class TestIslrPslr:
    def test_islr_direct_ratio(self):
        vals = np.zeros(11)
        vals[5] = 100.0
        vals[9] = 1.0
        p = _profile(vals, 4, 6)
        assert islr(p) == pytest.approx(-20.0, abs=1e-12)

    def test_islr_no_sidelobes_is_minus_inf(self):
        vals = np.zeros(5)
        vals[2] = 1.0
        p = _profile(vals, 0, 4)
        assert islr(p) == float("-inf")

    def test_pslr_direct_ratio(self):
        vals = np.zeros(11)
        vals[5] = 1.0
        vals[8] = 0.01
        p = _profile(vals, 4, 6)
        assert pslr(p) == pytest.approx(-20.0, abs=1e-12)

    def test_pslr_no_sidelobe_samples_is_minus_inf(self):
        vals = np.zeros(5)
        vals[2] = 1.0
        p = _profile(vals, 0, 4)
        assert pslr(p) == float("-inf")

    def test_main_lobe_wraps_round_the_end(self):
        # nulls at -1 (index 4) and 1 bracket the peak at 0: the main lobe is
        # samples 4, 0, 1 and the sidelobes are samples 2 and 3
        p = _profile([10.0, 1.0, 0.5, 0.2, 2.0], -1, 1)
        assert islr(p) == pytest.approx(10 * np.log10(0.7 / 13.0), abs=1e-12)
        assert pslr(p) == pytest.approx(10 * np.log10(0.5 / 10.0), abs=1e-12)

    def test_single_sidelobe_sample_makes_islr_equal_pslr(self):
        vals = np.zeros(9)
        vals[4] = 2.0
        vals[7] = 0.3
        p = _profile(vals, 3, 6)
        assert islr(p) == pytest.approx(pslr(p), abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        img = rng.standard_normal((32, 24)) + 1j * rng.standard_normal((32, 24))
        img[16, 12] = 30.0
        a = image_metrics(img)
        b = image_metrics(img * (3.0 - 4.0j))
        for k in a:
            assert a[k] == pytest.approx(b[k], abs=1e-10)

    def test_ideal_sinc_reference_values(self):
        # continuous sinc^2 profile: ISLR ~ -9.7 dB, PSLR -13.26 dB
        cut = np.zeros(192, complex)
        cut[96] = 1.0
        prof = profile_from_cut(cut, upsample=16, smooth_window=3)
        assert islr(prof) == pytest.approx(-9.73, abs=0.15)
        assert pslr(prof) == pytest.approx(-13.26, abs=0.05)

    def test_mainlobe_width_of_sinc(self):
        cut = np.zeros(192, complex)
        cut[96] = 1.0
        prof = profile_from_cut(cut, upsample=16, smooth_window=1)
        assert mainlobe_width_3db(prof) == pytest.approx(0.886, abs=0.07)


def _seed(islr_range, pslr_range=-13.0, islr_az=-20.0, pslr_az=-23.0):
    return {"islr_range_db": islr_range, "pslr_range_db": pslr_range,
            "islr_azimuth_db": islr_az, "pslr_azimuth_db": pslr_az}


class TestReport:
    def test_json_round_trip(self):
        dicts = [_seed(-5.5, -9.75, -15.25, -19.5)] * 10  # exact binary means
        doc = json.loads(json.dumps(aggregate_reports(dicts, "ofdm", "HH")))
        assert doc == {"waveform": "ofdm", "polarization": "HH", "foliage": True,
                       "islr_range_db": -5.5, "pslr_range_db": -9.75,
                       "islr_azimuth_db": -15.25, "pslr_azimuth_db": -19.5,
                       "n_seeds": 10, "std": dict.fromkeys(METRIC_KEYS, 0.0)}

    def test_minus_inf_encoded_as_string(self):
        # a seed with no sidelobe power has ISLR -inf, whose std is undefined
        doc = aggregate_reports([_seed(float("-inf"))], "ofdm", None)
        doc = json.loads(json.dumps(doc, allow_nan=False))
        assert doc["islr_range_db"] == "-inf"
        assert doc["std"]["islr_range_db"] == "nan"
        assert doc["pslr_range_db"] == -13.0
        assert doc["std"]["pslr_range_db"] == 0.0
        doc = aggregate_reports([_seed(float("inf")), _seed(-9.0)], "ofdm", None)
        json.dumps(doc, allow_nan=False)
        assert doc["islr_range_db"] == "inf"
        assert doc["std"]["islr_range_db"] == "nan"

    def test_aggregate_mean_and_std(self):
        dicts = [_seed(-9.0, islr_az=-20.0), _seed(-11.0, islr_az=-22.0)]
        r = aggregate_reports(dicts, "noise", None)
        assert r["islr_range_db"] == pytest.approx(-10.0)
        assert r["std"]["islr_range_db"] == pytest.approx(1.0)
        assert r["n_seeds"] == 2

    def test_paired_differences_over_the_shared_seeds(self):
        # seeds 0-2 ran on both sides: range ISLR differences -3, -4, -2, std 1 (ddof=1)
        a = {0: _seed(-9.0), 1: _seed(-11.0), 2: _seed(-10.0), 5: _seed(-1.0)}
        b = {2: _seed(-8.0), 0: _seed(-6.0), 1: _seed(-7.0), 7: _seed(0.0)}
        paired = paired_differences(a, b)
        assert paired["islr_range_db"] == {"mean": -3.0, "se": 1 / math.sqrt(3), "n": 3}
        for k in METRIC_KEYS[1:]:
            assert paired[k] == {"mean": 0.0, "se": 0.0, "n": 3}

    def test_paired_differences_of_one_seed_and_of_infinite_metrics(self):
        # one seed has no standard error; an infinite difference has a mean of its
        # sign and no error, and inf - inf (or a mean of inf and -inf) is nan
        inf = float("inf")
        one = paired_differences({4: _seed(-9.0)}, {4: _seed(-6.5)})
        assert one["islr_range_db"] == {"mean": -2.5, "se": "nan", "n": 1}
        a = {0: _seed(-inf, pslr_range=-inf, islr_az=inf), 1: _seed(-9.0, -10.0, -inf)}
        b = {0: _seed(-6.0, pslr_range=-inf, islr_az=-20.0), 1: _seed(-6.0, -13.0, -20.0)}
        paired = json.loads(json.dumps(paired_differences(a, b), allow_nan=False))
        assert paired["islr_range_db"] == {"mean": "-inf", "se": "nan", "n": 2}
        assert paired["pslr_range_db"] == {"mean": "nan", "se": "nan", "n": 2}
        assert paired["islr_azimuth_db"] == {"mean": "nan", "se": "nan", "n": 2}
        assert paired["pslr_azimuth_db"] == {"mean": 0.0, "se": 0.0, "n": 2}
        none = paired_differences({0: _seed(-9.0)}, {1: _seed(-9.0)})
        assert none == dict.fromkeys(METRIC_KEYS, {"mean": "nan", "se": "nan", "n": 0})

    def test_profile_invariants(self):
        with pytest.raises(ValueError):
            Profile(np.ones(5), 1, 0, 0, 2)
        with pytest.raises(ValueError):
            Profile(-np.ones(5), 1, 1, 0, 2)
        zero_peak = np.zeros(7)
        zero_peak[5] = 1.0
        with pytest.raises(ValueError, match="peak power must be positive"):
            Profile(zero_peak, 1, 1, 0, 2)


def test_package_exports_no_peak_error():
    assert fopen_sar.NoPeakError is fopen_sar.metrics.NoPeakError
