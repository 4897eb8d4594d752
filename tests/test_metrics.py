import json

import numpy as np
import pytest

from fopen_sar.metrics import (METRIC_KEYS, NoPeakError, Profile,
                               UndefinedMetricError, aggregate_reports,
                               extract_profiles, find_mainlobe, image_metrics,
                               islr, mainlobe_width_3db, profile_from_cut, pslr,
                               upsample_complex)


def _profile(values, null_left, null_right, peak=None):
    values = np.asarray(values, dtype=float)
    peak = int(np.argmax(values)) if peak is None else peak
    return Profile(values, np.arange(len(values), dtype=float), "cells",
                   peak, null_left, null_right)


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

    def test_bad_factor_rejected(self):
        with pytest.raises(ValueError):
            upsample_complex(np.ones(4), 0)


class TestProfiles:
    def test_separable_sinc_squared_sections(self):
        az = np.sinc(np.linspace(-4, 4, 129)) ** 2
        rg = np.sinc(np.linspace(-6, 6, 193)) ** 2
        img = np.outer(az, rg).astype(complex)
        rng_p, az_p = extract_profiles(img, upsample=1, smooth_window=1)
        np.testing.assert_allclose(rng_p.values, (rg * az.max()) ** 2, rtol=1e-12)
        np.testing.assert_allclose(az_p.values, (az * rg.max()) ** 2, rtol=1e-12)

    def test_zero_image_rejected(self):
        with pytest.raises(NoPeakError):
            extract_profiles(np.zeros((8, 8), complex))

    def test_nulls_bracket_sinc_first_nulls(self):
        # delta on the grid upsamples to the sinc; detected nulls at +-1 cell
        cut = np.zeros(64, complex)
        cut[32] = 1.0
        u = 16
        prof = profile_from_cut(cut, "cells", upsample=u, smooth_window=3)
        assert abs(prof.axis[prof.null_left] - 31.0) <= 1.0 / u + 1e-9
        assert abs(prof.axis[prof.null_right] - 33.0) <= 1.0 / u + 1e-9

    def test_peak_with_no_descent_rejected(self):
        with pytest.raises(NoPeakError):
            find_mainlobe(np.ones(16), 0)


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

    def test_islr_zero_mainlobe_undefined(self):
        vals = np.zeros(7)
        vals[5] = 1.0
        p = Profile(vals, np.arange(7.0), "cells", 1, 0, 2)
        with pytest.raises(UndefinedMetricError):
            islr(p)

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
        prof = profile_from_cut(cut, "cells", upsample=16, smooth_window=3)
        assert islr(prof) == pytest.approx(-9.73, abs=0.15)
        assert pslr(prof) == pytest.approx(-13.26, abs=0.05)

    def test_mainlobe_width_of_sinc(self):
        cut = np.zeros(192, complex)
        cut[96] = 1.0
        prof = profile_from_cut(cut, "cells", upsample=16, smooth_window=1)
        assert mainlobe_width_3db(prof) == pytest.approx(0.886, abs=0.07)


def _seed(islr_range, pslr_range=-13.0, islr_az=-20.0, pslr_az=-23.0):
    return {"islr_range_db": islr_range, "pslr_range_db": pslr_range,
            "islr_azimuth_db": islr_az, "pslr_azimuth_db": pslr_az}


class TestReport:
    def test_json_round_trip(self):
        dicts = [_seed(-5.5, -9.75, -15.25, -19.5)] * 10  # exact binary means
        doc = json.loads(json.dumps(aggregate_reports(dicts, "ofdm", "HH", True)))
        assert doc == {"waveform": "ofdm", "polarization": "HH", "foliage": True,
                       "islr_range_db": -5.5, "pslr_range_db": -9.75,
                       "islr_azimuth_db": -15.25, "pslr_azimuth_db": -19.5,
                       "n_seeds": 10, "std": dict.fromkeys(METRIC_KEYS, 0.0)}

    def test_minus_inf_encoded_as_string(self):
        # a seed with no sidelobe power has ISLR -inf, whose std is undefined
        doc = aggregate_reports([_seed(float("-inf"))], "ofdm", None, False)
        doc = json.loads(json.dumps(doc, allow_nan=False))
        assert doc["islr_range_db"] == "-inf"
        assert doc["std"]["islr_range_db"] == "nan"
        assert doc["pslr_range_db"] == -13.0
        assert doc["std"]["pslr_range_db"] == 0.0
        doc = aggregate_reports([_seed(float("inf")), _seed(-9.0)], "ofdm", None, False)
        json.dumps(doc, allow_nan=False)
        assert doc["islr_range_db"] == "inf"
        assert doc["std"]["islr_range_db"] == "nan"

    def test_aggregate_mean_and_std(self):
        dicts = [_seed(-9.0, islr_az=-20.0), _seed(-11.0, islr_az=-22.0)]
        r = aggregate_reports(dicts, "noise", None, False)
        assert r["islr_range_db"] == pytest.approx(-10.0)
        assert r["std"]["islr_range_db"] == pytest.approx(1.0)
        assert r["n_seeds"] == 2

    def test_profile_invariants(self):
        with pytest.raises(ValueError):
            Profile(np.ones(5), np.arange(5.0), "cells", 0, 0, 2)
        with pytest.raises(ValueError):
            Profile(-np.ones(5), np.arange(5.0), "cells", 1, 0, 2)
