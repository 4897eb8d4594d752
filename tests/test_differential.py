"""Whole-chain differential fuzz: the pipeline's FFT forms against direct forms,
on cases drawn inside the domain that validation accepts.

Every case comes from a fixed-seed random.Random, so every run checks the same
inputs. A synthesis case is a scenario document that Scenario validates: N in
[8, 64], 1 <= M <= min(12, N), 2 to 70 pulses, 1-5 targets (in half the cases
all in one range cell, the one-cell path), foliage off, frozen or redrawn
(smoothing 0-5 bins, gamma_shape 0.2-4), receiver noise on or off, and either
waveform. BLOCK_BYTES holds all the pulses of such short lines in one block, so
the cases take turns at that bound, at one-pulse blocks and at 32-pulse blocks,
whose last block is partial in the cases of 3, 31, 33 and 70 pulses. Each row of
synthesize_raw is checked against the per-pulse form: np.convolve of the pulse
with that row of gm_vector, then F_j of the channel's block stream applied by
apply_foliage, then pulse j's receiver-noise substream. The range compressors are
checked on random matrices against brute_force's loop sums, the azimuth stages
against a direct DFT, and run_metrics for equal results, or equal errors, at 1
and 2 threads, and, bit for bit, against metrics formed through run_pipeline's
whole raw matrix; on the same cases a streamed image equals the whole matrix's
bit for bit (those cases add the tank with redrawn HH foliage and 30 dB
receiver noise, and 4 pulses of 16766 samples).

Bounds. e = np.finfo(float).eps; each float operation rounds by at most e/2
relative, so a complex product is within 1.5e, a sum of n terms within n e/2 of
the sum of their sizes, and cos, sin and exp are taken as within e. A twiddle
or phase ramp exp(-2 pi i q / n) with integer q < n has its angle within 2e
relative (the roundings of pi, 2 pi / n and the product), so it is within
4 pi e + e < 15e. Norms are 2-norms unless marked, and |.|_inf is the largest
magnitude; the norms of the computed factors stand in for the exact ones, which
changes a bound by a relative O(e).
- FFT: numpy's forward or inverse transform of length n is taken as within
  phi(n) ||X|| of the exact transform X: phi(n) = e/2 times the sum, over the
  prime factors p of n with multiplicity, of (p + 1) sqrt(p) + 5. A radix-p pass
  sums p products per output, within (p + 1) e/2 of their summed sizes, at most
  sqrt(p) times the input's 2-norm, and its twiddle product adds 5 e/2. For
  radix 2 that is 4.6e per pass, against Higham's 3.8e (Accuracy and Stability
  of Numerical Algorithms, Theorem 24.2). test_fft_accuracy checks phi at every
  length the cases use against a direct DFT in extended precision.
- Synthesis, row j: G = FFT(g_j, L), S = FFT(s, L), f = F_j (1 when clear), the
  exact line y = IFFT(G S f) with ||y|| = ||G S f|| / sqrt(L), and noise n_j.
  The batched form's two forward transforms give phi(L) (||G|| |S|_inf + ||S||
  |G|_inf) |f|_inf / sqrt(L); its one-cell ramp (15e), at most three products
  (4.5e) and the inverse transform give (phi(L) + 20e) ||y||. The reference's
  M-term convolution sums are within (M + 2) e ||g_j||_1 ||s|| |f|_inf (Young's
  inequality), and apply_foliage's two transforms and product within (2 phi(L) +
  2e) ||G S|| |f|_inf / sqrt(L). Scaling and adding the noise, in both forms, is
  within 2e (||y|| + ||n_j||).
- OFDM range compression of a window z (N samples from M - 1 on; |1/X_k| = 1,
  a division by +-1 is exact): the pipeline is within (2 phi(N) + 17e) ||z||.
  brute_force.range_reconstruct forms angles 2 pi k i / N up to 2 pi (N + M),
  within tau = 4 pi (N + M) e + e as twiddles; each of its two N-term sums is
  within (tau + (N + 3) e) of its summed sizes, and with the unitary sums
  ||Z|| = ||z||, it is within 2 (tau + (N + 3) e) ||z||_1.
- Noise range compression of a line z against a replica r of P samples, energy
  E, at the fast length L': with Z and R their L'-point transforms, the pipeline
  is within (phi(L') (2 ||z|| |R|_inf + ||r|| |Z|_inf) + 1.5e ||z|| |R|_inf +
  (P + 2) e ||z|| ||r||) / E, the last term E's P-term sum and the division; the
  loop sums of brute_force.matched_filter are within (P + 2) e ||z|| ||r|| / E.
- Azimuth, a column x of n pulses: azimuth_fft is within phi(n) sqrt(n) ||x||,
  the direct DFT (twiddles within 15e) within (n / 2 + 17) e ||x||_1. For
  azimuth_compress both forms take the same bits of v = rd h and of the closing
  phasor c; the inverse transform is within phi(n) ||v|| / sqrt(n) |c|, the
  direct one within (n / 2 + 17) e ||v||_1 / n |c|, and the product with c adds
  1.5e per form.
A mutation of any of these stages (a shifted ramp, a skipped block, a foliage
block paired with the wrong rows, noise parts swapped, a window one sample off)
errs by the size of the signal, orders of magnitude above every bound.
"""

import copy
import math
import random

import numpy as np
import pytest

from fopen_sar import foliage
from fopen_sar.echo import (RawDataMatrix, apply_foliage, foliage_channel, synthesize_raw,
                            transmitted_pulse)
from fopen_sar.geometry import gm_vector, make_grid
from fopen_sar.imaging import (RangeCompressedMatrix, azimuth_compress, azimuth_fft,
                               range_compress_noise, range_compress_ofdm, smooth_length)
from fopen_sar.metrics import NoPeakError, image_metrics
from fopen_sar.scenario import (SMALL_PRESET, Scenario, focus_scenario, run_metrics, run_pipeline,
                               tank_scenario)
from fopen_sar.waveform import OfdmSpec

from brute_force import matched_filter, range_reconstruct, receiver_noise, stacked_response

E = np.finfo(float).eps
PULSES = (2, 3, 31, 32, 33, 45, 64, 70)
BLOCK_HEIGHTS = (None, 1, 32)  # None: BLOCK_BYTES as it is


def _factors(n: int) -> list[int]:
    out, p = [], 2
    while n > 1:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out


def phi(n: int) -> float:
    """The relative 2-norm error taken for a length-n transform (module docstring)."""
    return E / 2 * sum((p + 1) * math.sqrt(p) + 5 for p in _factors(n))


def draw_document(r: random.Random) -> dict:
    """A small-preset scenario document with the fields the fuzz varies drawn from r."""
    doc = copy.deepcopy(SMALL_PRESET)
    n = r.randint(8, 64)
    m = r.randint(1, min(12, n))
    doc["waveform"].update(kind=r.choice(["ofdm", "noise"]), n_subcarriers=n, n_range_cells=m)
    doc["platform"]["aperture_s"] = r.choice(PULSES) / doc["platform"]["prf_hz"]
    shared = r.randrange(m) if r.random() < 0.5 else None
    doc["scene"]["targets"] = [
        {"cell": r.randrange(m) if shared is None else shared, "azimuth_m": r.uniform(-4, 4),
         "rcs": [r.gauss(0, 1), r.gauss(0, 1)]} for _ in range(r.randint(1, 5))]
    foliage = r.choice(["off", "frozen", "redrawn"])
    if foliage != "off":
        doc["foliage"] = {"polarization": r.choice(["HH", "VV"]),
                          "gamma_shape": r.uniform(0.2, 4.0),
                          "spectral_smoothing_bins": r.randint(0, 5),
                          "redraw_per_pulse": foliage == "redrawn"}
    if r.random() < 0.5:
        doc["noise"] = {"snr_db": r.uniform(0.0, 40.0)}
    doc["seeds"]["master"] = r.randrange(2**64)
    return doc


SYNTHESIS_DOCS = [draw_document(random.Random(1000 + i)) for i in range(40)]


def _norm(x) -> float:
    return float(np.linalg.norm(x))


def _amax(x) -> float:
    return float(np.max(np.abs(x)))


@pytest.mark.parametrize("case", range(len(SYNTHESIS_DOCS)))
def test_synthesis_rows_match_the_per_pulse_form(case, monkeypatch):
    cfg = Scenario(SYNTHESIS_DOCS[case]).simulation_config()
    height = BLOCK_HEIGHTS[case % len(BLOCK_HEIGHTS)]
    if height:
        monkeypatch.setattr(foliage, "BLOCK_BYTES", 16 * cfg.ofdm.line_length * height)
    raw = synthesize_raw(cfg).data
    length = raw.shape[1]
    pulse = transmitted_pulse(cfg)
    grid = make_grid(cfg.scene.n_range_cells, cfg.ofdm.bandwidth_hz, cfg.platform)
    channel = foliage_channel(cfg)
    f_all = None if channel is None else stacked_response(channel)
    s_spec = np.fft.fft(pulse, length)
    for j, eta in enumerate(cfg.platform.slow_time_axis()):
        g = gm_vector(cfg.scene, grid, cfg.platform, eta)
        line = np.convolve(g, pulse)
        f = np.ones(length) if f_all is None else f_all[j]
        if f_all is not None:
            line = apply_foliage(line, f)
        noise = (np.zeros(length, complex) if cfg.snr_db is None
                 else receiver_noise(pulse, cfg.snr_db, cfg.master_seed, j, length))
        g_spec = np.fft.fft(g, length)
        y_norm = _norm(g_spec * s_spec * f) / math.sqrt(length)
        bound = (phi(length) * (_norm(g_spec) * _amax(s_spec) + _norm(s_spec) * _amax(g_spec))
                 * _amax(f) / math.sqrt(length)
                 + (phi(length) + 20 * E) * y_norm
                 + (len(g) + 2) * E * np.sum(np.abs(g)) * _norm(pulse) * _amax(f)
                 + (2 * phi(length) + 2 * E) * _norm(g_spec * s_spec) * _amax(f)
                 / math.sqrt(length)
                 + 2 * E * (y_norm + _norm(noise)))
        err = _amax(raw[j] - (line + noise))
        assert err <= bound, (case, j, err, bound)


def _random_lines(r: random.Random, rows: int, length: int) -> np.ndarray:
    return np.array([[complex(r.gauss(0, 1), r.gauss(0, 1)) for _ in range(length)]
                     for _ in range(rows)])


COMPRESSOR_CASES = range(25)


def _compressor_case(case):
    r = random.Random(2000 + case)
    n = r.randint(8, 64)
    spec = OfdmSpec(n, r.randint(1, min(12, n)), 4e9)
    return r, spec, _random_lines(r, 2, spec.line_length)


@pytest.mark.parametrize("case", COMPRESSOR_CASES)
def test_ofdm_range_compression_matches_brute_force(case):
    r, spec, lines = _compressor_case(case)
    n, m = spec.n_subcarriers, spec.n_range_cells
    symbols = np.array([r.choice([1.0, -1.0]) for _ in range(n)], dtype=complex)
    got = range_compress_ofdm(RawDataMatrix(lines, np.zeros(2), "ofdm"), spec, symbols).data
    tau = 4 * math.pi * (n + m) * E + E
    for row, z in zip(got, lines, strict=True):
        window = z[m - 1:m - 1 + n]
        bound = ((2 * phi(n) + 17 * E) * _norm(window)
                 + 2 * (tau + (n + 3) * E) * np.sum(np.abs(window)))
        err = _amax(row - range_reconstruct(z, symbols, n, m))
        assert err <= bound, (case, err, bound)


@pytest.mark.parametrize("case", COMPRESSOR_CASES)
def test_noise_range_compression_matches_brute_force(case):
    r, spec, lines = _compressor_case(case)
    replica = _random_lines(r, 1, spec.pulse_length)[0]
    got = range_compress_noise(RawDataMatrix(lines, np.zeros(2), "noise"), replica).data
    n_fast, p = smooth_length(spec.line_length), len(replica)
    r_spec, energy = np.fft.fft(replica, n_fast), float(np.sum(np.abs(replica) ** 2))
    for row, z in zip(got, lines, strict=True):
        z_spec = np.fft.fft(z, n_fast)
        bound = (phi(n_fast) * (2 * _norm(z) * _amax(r_spec) + _norm(replica) * _amax(z_spec))
                 + 1.5 * E * _norm(z) * _amax(r_spec)
                 + 2 * (p + 2) * E * _norm(z) * _norm(replica)) / energy
        err = _amax(row - matched_filter(z, replica))
        assert err <= bound, (case, err, bound)


def _direct_dft(n: int, sign: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(sign * 2j * np.pi * (np.outer(k, k) % n) / n)


@pytest.mark.parametrize("case", range(20))
def test_azimuth_stages_match_a_direct_dft(case):
    r = random.Random(3000 + case)
    doc = draw_document(r)
    doc["processing"]["azimuth_window"] = r.choice(["none", "hann"])
    scen = Scenario(doc)
    platform = scen.platform()
    n = platform.n_pulses()
    rc = _random_lines(r, n, scen.doc["waveform"]["n_range_cells"])
    rd = azimuth_fft(RangeCompressedMatrix(rc))
    for col, x in zip(rd.T, rc.T, strict=True):
        bound = phi(n) * math.sqrt(n) * _norm(x) + (n / 2 + 17) * E * np.sum(np.abs(x))
        assert _amax(col - _direct_dft(n, -1) @ x) <= bound, case
    doppler_hz = np.fft.fftfreq(n, 1.0 / platform.prf_hz)
    h = np.exp(-1j * np.pi * doppler_hz**2 / platform.doppler_rate_hz_per_s)
    if doc["processing"]["azimuth_window"] == "hann":
        h *= 0.5 + 0.5 * np.cos(2 * np.pi * doppler_hz / platform.prf_hz)
    v = rd * h[:, None]
    c = np.conj(platform.reference_phasor) * np.exp(1j * np.pi / 4)
    want = _direct_dft(n, 1) @ v / n * c
    got = azimuth_compress(rd, platform, doc["processing"]["azimuth_window"]).pixels
    for col, v_col, w_col in zip(got.T, v.T, want.T, strict=True):
        bound = abs(c) * (phi(n) * _norm(v_col) / math.sqrt(n)
                          + (n / 2 + 17) * E * np.sum(np.abs(v_col)) / n) + 3 * E * _amax(w_col)
        assert _amax(col - w_col) <= bound, case


def _outcome(scen, seeds, threads):
    try:
        return run_metrics(scen, seeds, threads=threads)
    except ValueError as exc:  # NoPeakError, with its message
        return type(exc), str(exc)


@pytest.mark.parametrize("case", range(8))
def test_metrics_bit_identical_at_one_and_two_threads(case):
    r = random.Random(4000 + case)
    scen = Scenario(draw_document(r))
    seeds = [r.randrange(2**64) for _ in range(3)]
    assert repr(_outcome(scen, seeds, 1)) == repr(_outcome(scen, seeds, 2))


def _through_the_matrix(scen, seeds):
    """run_metrics' outcome formed through run_pipeline's whole raw matrix."""
    out = []
    for seed in seeds:
        try:
            out.append(image_metrics(run_pipeline(scen, seed).pixels,
                                     scen.processing["upsample"],
                                     scen.processing["smooth_window"]))
        except NoPeakError as exc:
            return NoPeakError, f"seed {seed}, {scen.label()}: {exc}"
    return out


def _stream_cases():
    tank = tank_scenario("full").with_overrides(foliage_pol="HH").doc
    tank["foliage"]["redraw_per_pulse"] = True
    tank["noise"] = {"snr_db": 30.0}
    cases = SYNTHESIS_DOCS + [tank]
    for kind in ("ofdm", "noise"):  # 4 pulses of 16766 samples, in blocks of two
        doc = copy.deepcopy(tank)
        doc["waveform"].update(kind=kind, n_subcarriers=1 << 14)
        doc["platform"]["aperture_s"] = 4 / doc["platform"]["prf_hz"]
        cases.append(doc)
    return cases


STREAM_CASES = _stream_cases()


@pytest.mark.parametrize("case", range(len(STREAM_CASES)))
def test_streamed_metrics_match_the_whole_matrix_bit_for_bit(case, monkeypatch):
    # run_metrics compresses each block of raw lines as it is synthesized;
    # run_pipeline synthesizes the whole matrix first
    scen = Scenario(STREAM_CASES[case])
    height = BLOCK_HEIGHTS[case % len(BLOCK_HEIGHTS)]
    if height:
        monkeypatch.setattr(foliage, "BLOCK_BYTES",
                            16 * scen.simulation_config().ofdm.line_length * height)
    seeds = [random.Random(6000 + case).randrange(2**64) for _ in range(2)]
    assert repr(_outcome(scen, seeds, 1)) == repr(_through_the_matrix(scen, seeds))
    cfg = scen.simulation_config(seeds[0])  # the image itself, not only its metrics
    np.testing.assert_array_equal(focus_scenario(scen, cfg, cfg).pixels.view(float),
                                  focus_scenario(scen, cfg).pixels.view(float))


def test_fft_accuracy():
    """phi(n) holds at every transform length the cases use, against a direct DFT
    in extended precision (its error, near 1e-19, is far below phi's e)."""
    lengths = set()
    for doc in SYNTHESIS_DOCS + [draw_document(random.Random(3000 + c)) for c in range(20)]:
        spec = Scenario(doc).simulation_config().ofdm
        lengths |= {spec.line_length, spec.n_subcarriers, smooth_length(spec.line_length),
                    round(doc["platform"]["aperture_s"] * doc["platform"]["prf_hz"])}
    for case in COMPRESSOR_CASES:
        spec = _compressor_case(case)[1]
        lengths |= {spec.line_length, spec.n_subcarriers, smooth_length(spec.line_length)}
    r = random.Random(5000)
    two_pi = 2 * np.arccos(np.longdouble(-1))
    for n in sorted(lengths):
        x = _random_lines(r, 1, n)[0]
        k = np.arange(n)
        angle = (np.outer(k, k) % n).astype(np.longdouble) * (two_pi / n)
        for sign, transform, scale in ((-1, np.fft.fft, 1), (1, np.fft.ifft, n)):
            exact = ((np.cos(angle) + sign * 1j * np.sin(angle)) @ x.astype(np.clongdouble)) / scale
            err = np.linalg.norm((transform(x) - exact).astype(complex))
            assert err <= phi(n) * np.linalg.norm(exact.astype(complex)), n
