"""Point-spread-function profiles and ISLR / PSLR sidelobe metrics.

Profiles are the magnitude-squared range and azimuth cuts through the image
peak. The complex cuts are band-limited upsampled (zero-padded FFT) before
the power is taken: the exactly-compressed response of an on-grid point is
a Kronecker delta on the cell grid, and only interpolation reveals the
underlying sinc structure that the sidelobe metrics quantify. Main-lobe
nulls are the first local minima either side of the peak on the periodic cut.
"""

import math
from dataclasses import dataclass

import numpy as np


# The four sidelobe metrics: the keys of image_metrics' result and of every
# metrics JSON.
METRIC_KEYS = ("islr_range_db", "pslr_range_db", "islr_azimuth_db", "pslr_azimuth_db")
UPSAMPLE = 16  # a profile's upsampling factor unless given, and the scenario's default
SMOOTH_WINDOW = 3  # its smoothing window in samples, likewise


class NoPeakError(ValueError):
    """Raised when a profile or image has no usable peak."""


@dataclass(frozen=True)
class Profile:
    """1-D power profile with its main-lobe bracket.

    values are |pixel|^2 on the periodic grid upsampled by upsample, so sample
    i sits at i / upsample range cells or pulses; peak_index, null_left and
    null_right index values modulo its length.
    """

    values: np.ndarray
    upsample: int
    peak_index: int
    null_left: int
    null_right: int

    def __post_init__(self):
        if not self.null_left < self.peak_index < self.null_right:
            raise ValueError("peak must lie strictly between the nulls")
        if np.any(self.values < 0):
            raise ValueError("profile power must be nonnegative")
        if not self.values[self.peak_index] > 0:
            raise ValueError("peak power must be positive")


def upsample_complex(x: np.ndarray, factor: int) -> np.ndarray:
    """Band-limited interpolation by zero-padding the spectrum.

    Even-length inputs split the Nyquist bin symmetrically so real inputs
    stay real and the interpolation is the exact band-limited one.
    """
    x = np.asarray(x, dtype=complex)
    if factor == 1:
        return x
    n, h = len(x), len(x) // 2
    spec = np.fft.fft(x)
    out = np.zeros(n * factor, dtype=complex)
    out[:h + 1] = spec[:h + 1]
    out[len(out) - (n - h - 1):] = spec[h + 1:]
    if n % 2 == 0:
        out[h] = out[len(out) - h] = 0.5 * spec[h]
    return np.fft.ifft(out) * factor


def _sides(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(left, right): p walked outward from its middle sample len // 2, each
    side starting at that sample."""
    c = len(p) // 2
    return p[:c + 1][::-1], p[c:]


def _run(mask: np.ndarray) -> int:
    """Length of mask's leading run of True."""
    return len(mask) if mask.all() else int(np.argmin(mask))


def find_mainlobe(power: np.ndarray, peak: int, smooth_window: int = SMOOTH_WINDOW):
    """First local minima on each side of the peak, round the periodic power
    rolled to put the peak mid-array and smoothed; they may lie off its ends.

    Each side first walks over the samples equal to the middle one, a flat top
    such as an even smoothing window leaves, then descends strictly. A flat
    top must fall before the end of the rolled cut: the zero-padded smoothing
    pulls the end samples down, and the two sides meet there.
    """
    rolled = np.roll(power, len(power) // 2 - peak)
    p = np.convolve(rolled, np.ones(smooth_window) / smooth_window, mode="same")
    lobe = []
    for side in _sides(p):
        top = _run(side[1:] == side[0])
        fall = _run(side[top + 1:] < side[top:-1])
        if not fall or (top and top + 2 == len(side)):
            raise NoPeakError("peak has no descending neighborhood")
        lobe.append(top + fall)
    return peak - lobe[0], peak + lobe[1]


# Inside 2^+-400 a cut's upsampled peak, at most n < 2^25 times its largest
# part, squares to a normal float; profile_from_cut scales cuts outside it.
_EXPONENT_BAND = 400


def profile_from_cut(cut: np.ndarray, upsample: int = UPSAMPLE,
                     smooth_window: int = SMOOTH_WINDOW) -> Profile:
    """Build a Profile from a complex image cut, a range row or an azimuth column.

    A cut outside the exponent band is first scaled by 2^-e, e the exponent
    of its largest real or imaginary part: exact, so only values change.
    """
    parts = np.ascontiguousarray(cut, dtype=complex).view(float)
    e = math.frexp(float(np.abs(parts).max()))[1]
    if abs(e) > _EXPONENT_BAND:
        parts = np.ldexp(parts, -e)
    power = np.abs(upsample_complex(parts.view(complex), upsample)) ** 2
    peak = int(np.argmax(power))
    left, right = find_mainlobe(power, peak, smooth_window)
    return Profile(power, upsample, peak, left, right)


def extract_profiles(pixels: np.ndarray, upsample: int = UPSAMPLE,
                     smooth_window: int = SMOOTH_WINDOW) -> tuple[Profile, Profile]:
    """Range and azimuth power profiles through the image's global peak.

    Returns (range_profile, azimuth_profile). The range cut runs along the peak's
    azimuth row, the azimuth cut along its range column; a NoPeakError names its cut.
    """
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise ValueError("image must be 2-D [azimuth, range]")
    mag = np.abs(pixels)
    az, rg = np.unravel_index(int(np.argmax(mag)), mag.shape)
    profiles = []
    for cut, line in (("range", pixels[az, :]), ("azimuth", pixels[:, rg])):
        try:
            profiles.append(profile_from_cut(line, upsample, smooth_window))
        except NoPeakError as e:
            raise NoPeakError(f"{cut} cut: {e}") from e
    return tuple(profiles)


def _lobes(profile: Profile) -> tuple[np.ndarray, np.ndarray]:
    """The main lobe, values[null_left .. null_right] round the circle, and the rest."""
    v = np.roll(profile.values, -profile.null_left)
    return np.split(v, [profile.null_right - profile.null_left + 1])


def islr(profile: Profile) -> float:
    """Integrated sidelobe ratio: 10 log10(sidelobe power / main-lobe power).

    The main lobe is values[null_left .. null_right] round the circle; the
    rest is sidelobe. Returns -inf when there is no sidelobe power.
    """
    main = float(np.sum(_lobes(profile)[0]))
    side = float(np.sum(profile.values)) - main
    if side <= 0:
        return float("-inf")
    return 10.0 * np.log10(side / main)


def pslr(profile: Profile) -> float:
    """Peak sidelobe ratio: 10 log10(largest sidelobe sample / peak sample)."""
    peak = float(profile.values[profile.peak_index])
    side = _lobes(profile)[1]
    if side.size == 0 or side.max() <= 0:
        return float("-inf")
    return 10.0 * np.log10(float(side.max()) / peak)


def mainlobe_width_3db(profile: Profile) -> float:
    """-3 dB main-lobe width in range cells or pulses (diagnostic), round the circle."""
    p, i = profile.values, profile.peak_index
    rolled = np.roll(p, len(p) // 2 - i)
    left, right = (_run(side[1:] >= p[i] / 2.0) for side in _sides(rolled))
    return float((left + right) * (1 / profile.upsample))


def image_metrics(pixels: np.ndarray, upsample: int = UPSAMPLE,
                  smooth_window: int = SMOOTH_WINDOW) -> dict:
    """All four sidelobe metrics of one focused image."""
    rng_p, az_p = extract_profiles(pixels, upsample, smooth_window)
    return dict(zip(METRIC_KEYS, (islr(rng_p), pslr(rng_p), islr(az_p), pslr(az_p))))


def _json_number(x: float):
    """x, or "inf" / "-inf" / "nan", which JSON has no number for."""
    return x if math.isfinite(x) else str(x)


def _std(v: np.ndarray) -> float:
    """Standard deviation over seeds; undefined (nan) once a seed is infinite."""
    return float(np.std(v)) if np.isfinite(v).all() else math.nan


def paired_differences(a: dict, b: dict) -> dict:
    """Per metric, the mean, standard error (std with ddof=1, over sqrt(n)) and n of
    the per-seed differences a[seed][k] - b[seed][k] over the n seeds a and b share,
    a and b each mapping seed to metric dict. The numbers go through _json_number:
    the error of n < 2 or of a non-finite difference, and the mean of n = 0, are "nan"."""
    seeds = [s for s in a if s in b]
    n, out = len(seeds), {}
    for k in METRIC_KEYS:
        with np.errstate(invalid="ignore"):  # inf - inf, and a mean of inf and -inf, are nan
            d = np.array([a[s][k] for s in seeds], dtype=float) - [b[s][k] for s in seeds]
            mean = float(np.mean(d)) if n else math.nan
        se = (float(np.std(d, ddof=1)) / math.sqrt(n) if n > 1 and np.isfinite(d).all()
              else math.nan)
        out[k] = {"mean": _json_number(mean), "se": _json_number(se), "n": n}
    return out


def aggregate_reports(metric_dicts: list[dict], waveform: str,
                      polarization: str | None) -> dict:
    """The metrics JSON document: mean and std of each metric over a seed set;
    polarization is None for a run without foliage."""
    vals = {k: np.array([d[k] for d in metric_dicts], dtype=float) for k in METRIC_KEYS}
    return {
        "waveform": waveform,
        "polarization": polarization,
        "foliage": polarization is not None,
        **{k: _json_number(float(np.mean(v))) for k, v in vals.items()},
        "n_seeds": len(metric_dicts),
        "std": {k: _json_number(_std(v)) for k, v in vals.items()},
    }
