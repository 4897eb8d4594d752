"""Point-spread-function profiles and ISLR / PSLR sidelobe metrics.

Profiles are the magnitude-squared range and azimuth cuts through the image
peak. The complex cuts are band-limited upsampled (zero-padded FFT) before
the power is taken: the exactly-compressed response of an on-grid point is
a Kronecker delta on the cell grid, and only interpolation reveals the
underlying sinc structure that the sidelobe metrics quantify. Main-lobe
nulls are the first local minima on either side of the peak.
"""

import math
from dataclasses import dataclass

import numpy as np


# The four sidelobe metrics: the keys of image_metrics' result and of every
# metrics JSON.
METRIC_KEYS = ("islr_range_db", "pslr_range_db", "islr_azimuth_db", "pslr_azimuth_db")


class NoPeakError(ValueError):
    """Raised when a profile or image has no usable peak."""


class UndefinedMetricError(ValueError):
    """Raised when a metric's denominator is empty or zero."""


@dataclass(frozen=True)
class Profile:
    """1-D power profile with its main-lobe bracket.

    values are |pixel|^2 on the (possibly upsampled) grid; axis holds the
    sample coordinates in native units (range cells or pulses); peak_index,
    null_left and null_right index into values.
    """

    values: np.ndarray
    axis: np.ndarray
    axis_unit: str  # "cells" | "pulses"
    peak_index: int
    null_left: int
    null_right: int

    def __post_init__(self):
        if not self.null_left < self.peak_index < self.null_right:
            raise ValueError("peak must lie strictly between the nulls")
        if np.any(self.values < 0):
            raise ValueError("profile power must be nonnegative")


def upsample_complex(x: np.ndarray, factor: int) -> np.ndarray:
    """Band-limited interpolation by zero-padding the spectrum.

    Even-length inputs split the Nyquist bin symmetrically so real inputs
    stay real and the interpolation is the exact band-limited one.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return np.asarray(x, dtype=complex)
    x = np.asarray(x, dtype=complex)
    n = len(x)
    spec = np.fft.fft(x)
    out = np.zeros(n * factor, dtype=complex)
    h = n // 2
    if n % 2 == 0:
        out[:h] = spec[:h]
        out[h] = 0.5 * spec[h]
        out[n * factor - h] = 0.5 * spec[h]
        out[n * factor - h + 1:] = spec[h + 1:]
    else:
        out[:h + 1] = spec[:h + 1]
        out[n * factor - h:] = spec[h + 1:]
    return np.fft.ifft(out) * factor


def _smooth(p: np.ndarray, window: int) -> np.ndarray:
    if window <= 1:
        return p
    k = np.ones(window) / window
    return np.convolve(p, k, mode="same")


def find_mainlobe(power: np.ndarray, peak: int, smooth_window: int = 3):
    """First local minima on each side of the peak (on a smoothed copy)."""
    p = _smooth(power, smooth_window)
    right = peak
    while right + 1 < len(p) and p[right + 1] < p[right]:
        right += 1
    left = peak
    while left - 1 >= 0 and p[left - 1] < p[left]:
        left -= 1
    if left == peak or right == peak:
        raise NoPeakError("peak has no descending neighborhood")
    return left, right


def profile_from_cut(cut: np.ndarray, axis_unit: str, upsample: int = 16,
                     smooth_window: int = 3) -> Profile:
    """Build a Profile from a complex image cut."""
    cut = np.asarray(cut, dtype=complex)
    if np.all(cut == 0):
        raise NoPeakError("cut is identically zero")
    fine = upsample_complex(cut, upsample)
    power = np.abs(fine) ** 2
    peak = int(np.argmax(power))
    left, right = find_mainlobe(power, peak, smooth_window)
    axis = np.arange(len(power)) / upsample
    return Profile(power, axis, axis_unit, peak, left, right)


def extract_profiles(pixels: np.ndarray, upsample: int = 16,
                     smooth_window: int = 3) -> tuple[Profile, Profile]:
    """Range and azimuth power profiles through the image's global peak.

    Returns (range_profile, azimuth_profile). The range cut runs along the
    peak's azimuth row, the azimuth cut along the peak's range column.
    """
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise ValueError("image must be 2-D [azimuth, range]")
    mag = np.abs(pixels)
    if mag.max() == 0:
        raise NoPeakError("image is identically zero")
    az, rg = np.unravel_index(int(np.argmax(mag)), mag.shape)
    rng_profile = profile_from_cut(pixels[az, :], "cells", upsample, smooth_window)
    az_profile = profile_from_cut(pixels[:, rg], "pulses", upsample, smooth_window)
    return rng_profile, az_profile


def islr(profile: Profile) -> float:
    """Integrated sidelobe ratio: 10 log10(sidelobe power / main-lobe power).

    The main lobe is values[null_left .. null_right] inclusive; everything
    else is sidelobe. Returns -inf when there is no sidelobe power.
    """
    main = float(np.sum(profile.values[profile.null_left:profile.null_right + 1]))
    if main <= 0:
        raise UndefinedMetricError("main-lobe power is zero")
    side = float(np.sum(profile.values)) - main
    if side <= 0:
        return float("-inf")
    return 10.0 * np.log10(side / main)


def pslr(profile: Profile) -> float:
    """Peak sidelobe ratio: 10 log10(largest sidelobe sample / peak sample)."""
    peak = float(profile.values[profile.peak_index])
    if peak <= 0:
        raise UndefinedMetricError("peak power is zero")
    side = np.concatenate([profile.values[:profile.null_left],
                           profile.values[profile.null_right + 1:]])
    if side.size == 0 or side.max() <= 0:
        return float("-inf")
    return 10.0 * np.log10(float(side.max()) / peak)


def mainlobe_width_3db(profile: Profile) -> float:
    """-3 dB main-lobe width in native axis units (diagnostic)."""
    p = profile.values
    half = p[profile.peak_index] / 2.0
    i = profile.peak_index
    while i + 1 < len(p) and p[i + 1] >= half:
        i += 1
    right = i
    i = profile.peak_index
    while i - 1 >= 0 and p[i - 1] >= half:
        i -= 1
    left = i
    return float(profile.axis[right] - profile.axis[left])


def image_metrics(pixels: np.ndarray, upsample: int = 16,
                  smooth_window: int = 3) -> dict:
    """All four sidelobe metrics of one focused image."""
    rng_p, az_p = extract_profiles(pixels, upsample, smooth_window)
    return dict(zip(METRIC_KEYS, (islr(rng_p), pslr(rng_p), islr(az_p), pslr(az_p))))


def _json_number(x: float):
    """x, or "inf" / "-inf" / "nan", which JSON has no number for."""
    return x if math.isfinite(x) else str(x)


def _std(v: np.ndarray) -> float:
    """Standard deviation over seeds; undefined (nan) once a seed is infinite."""
    return float(np.std(v)) if np.isfinite(v).all() else math.nan


def aggregate_reports(metric_dicts: list[dict], waveform: str,
                      polarization: str | None, foliage: bool) -> dict:
    """The metrics JSON document: mean and std of each metric over a seed set."""
    vals = {k: np.array([d[k] for d in metric_dicts], dtype=float) for k in METRIC_KEYS}
    return {
        "waveform": waveform,
        "polarization": polarization,
        "foliage": foliage,
        **{k: _json_number(float(np.mean(v))) for k, v in vals.items()},
        "n_seeds": len(metric_dicts),
        "std": {k: _json_number(_std(v)) for k, v in vals.items()},
    }
