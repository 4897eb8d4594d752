"""In-memory span tracer around the public functions of each fopen_sar module.

Each wrap point replaces a function at the name its caller resolves (for
example ``echo.gm_vector``, the name ``synthesize_pulse`` looks up), so the
program itself is unchanged. A span is (group, start, end, parent, value):
value is an optional number taken from the result, such as bytes produced.
Spans are kept in memory and written out when the run ends. Single-threaded
callers only: the parent of a span is the innermost open span.
"""

import functools
import json
import time


def _nbytes(raw):
    return raw.data.nbytes


def wrap_points():
    """(owner, attribute, group, value_fn) for every traced call site."""
    from fopen_sar import cli, echo, foliage, imaging, metrics, scenario

    return [
        (scenario.Scenario, "simulation_config", "scenario.resolve", None),
        (scenario, "generate_bpsk_symbols", "waveform.pulse", None),
        (scenario, "transmitted_pulse", "waveform.pulse", None),
        (echo, "transmitted_pulse", "waveform.pulse", None),
        (scenario, "synthesize_raw", "echo.synth", _nbytes),
        (cli, "synthesize_raw", "echo.synth", _nbytes),
        (echo, "gm_vector", "geometry.gm", None),
        (echo, "foliage_channel", "foliage.channel", None),
        (foliage.FoliageChannel, "realize", "foliage.realize", None),
        (echo, "apply_foliage", "foliage.apply", None),
        (scenario, "focus", "imaging.focus", None),
        (imaging, "range_compress_ofdm", "imaging.range_ofdm", None),
        (imaging, "range_compress_noise", "imaging.range_noise", None),
        (imaging, "azimuth_fft", "imaging.azimuth", None),
        (imaging, "rcmc", "imaging.azimuth", None),
        (imaging, "azimuth_compress", "imaging.azimuth", None),
        (scenario, "image_metrics", "metrics.image", None),
        (cli, "image_metrics", "metrics.image", None),
        (metrics, "extract_profiles", "metrics.profiles", None),
        (cli, "extract_profiles", "metrics.profiles", None),
        (metrics, "islr", "metrics.sidelobe", None),
        (metrics, "pslr", "metrics.sidelobe", None),
        (cli, "write_fsar", "io.fsar_write", None),
        (cli, "read_fsar", "io.fsar_read", None),
        (cli, "read_fimg", "io.image_read", None),
        (cli, "write_fimg", "io.image_write", None),
        (cli, "write_pgm", "io.image_write", None),
        (cli, "write_png", "io.image_write", None),
        (cli, "write_raw_csv", "io.csv", None),
        (cli, "_write_profiles_csv", "io.csv", None),
        (cli, "dump_realizations_csv", "io.csv", None),
        (cli, "_sha256", "io.hash", None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []  # [group, start, end, parent, value]
        self._open = []
        self._undo = []

    def install(self):
        for owner, attr, group, value_fn in wrap_points():
            fn = getattr(owner, attr)
            setattr(owner, attr, self._wrap(fn, group, value_fn))
            self._undo.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _wrap(self, fn, group, value_fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [group, clock(), None, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if value_fn is not None:
                    span[4] = value_fn(result)
                return result
            finally:
                open_.pop()
                span[2] = clock()
        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_totals(spans) -> dict:
    """Per group: summed duration (s), summed self time (s), calls, summed value."""
    own = self_times(spans)
    out = {}
    for s, self_s in zip(spans, own):
        t = out.setdefault(s[0], {"total_s": 0.0, "self_s": 0.0, "calls": 0, "value": 0})
        t["total_s"] += s[2] - s[1]
        t["self_s"] += self_s
        t["calls"] += 1
        if s[4] is not None:
            t["value"] += s[4]
    return out


def merge_totals(parts) -> dict:
    out = {}
    for part in parts:
        for group, t in part.items():
            acc = out.setdefault(group, {"total_s": 0.0, "self_s": 0.0, "calls": 0, "value": 0})
            for k in acc:
                acc[k] += t[k]
    return out
