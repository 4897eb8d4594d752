"""Mutation fuzz of the CLI's inputs: no scenario document and no FSAR/FIMG
file may end in an exception or a Python warning of any category.

Each scenario case changes 1-3 fields of the small preset with HH foliage and
20 dB receiver noise to a boundary value or a value of the wrong type, and runs
`metrics` on it through cli.main in process. Each container case changes one
header field of a valid FSAR or FIMG file, or truncates it, and reads it with
`image --raw` or `metrics --image`; each payload case writes NaN, an
infinity, a value near the float64 limits or a subnormal over seeded random
payload samples of those files. Every case must end in an exit code the CLI
documents. The cases come from fixed random.Random seeds, so every run checks
the same inputs.

`PYTHONPATH=src python tests/test_fuzz.py N` runs N scenario cases and prints
one tab-separated line per case it runs: the edits, the exit code (or the
exception in its place) and the first stderr line that starts with "error:"
(empty when there is none). Other stderr lines, such as an advisory's
"warning:" line, are left out, so two checkouts' outputs can be diffed.
"""

import contextlib
import copy
import io
import json
import math
import os
import random
import struct
import sys
import warnings

import pytest

from fopen_sar import cli
from fopen_sar.scenario import SCHEMA, SMALL_PRESET, TARGET

EXITS = {0, 2, 3, 4, 5}
VALUES = (0, -1, 1e300, -1e300, 1e-300, 2**63, 2**70,
          "x", None, True, {}, [1.0, 0.0], [1e300, 0.0], [0.0, -1e200])
# The most raw samples a case may ask for; larger documents are skipped
# before anything runs. With these counts the fuzz takes about 3 s.
MAX_RAW_SAMPLES = 1 << 19
N_DOCUMENTS = 1000
N_HEADERS = 40


def base_document() -> dict:
    doc = copy.deepcopy(SMALL_PRESET)
    doc["foliage"] = {"polarization": "HH"}
    doc["noise"] = {"snr_db": 20.0}
    return doc


# Every field the schema names, each section, and the first target.
FIELDS = ([(s,) for s in SCHEMA]
          + [(s, k) for s, table in SCHEMA.items() for k in table]
          + [("scene", "targets", 0)]
          + [("scene", "targets", 0, k) for k in TARGET])


def _holds(node, key) -> bool:
    """Whether node[key] can be set: a dict, or a list with that index."""
    return isinstance(node, dict) or (isinstance(node, list) and isinstance(key, int)
                                      and key < len(node))


def _set(doc, path, value):
    """doc at path = value; a no-op once an earlier edit replaced a parent."""
    node = doc
    for key in path[:-1]:
        if not _holds(node, key):
            return
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    if _holds(node, path[-1]):
        node[path[-1]] = value


def mutated_documents(n: int):
    """n documents, each base_document() with 1-3 fields set from VALUES.

    Document i draws its edit count from a random.Random seeded on i, and
    each field's rank and value from one seeded on (i, field); it edits its
    first-ranked fields. So adding or deleting a schema key changes only the
    documents that edit it, and two checkouts' outputs stay diffable.
    """
    for i in range(n):
        doc = base_document()
        draws = {path: random.Random(f"{i} {path}") for path in FIELDS}
        ranked = sorted(FIELDS, key=lambda path: draws[path].random())
        edits = [(path, draws[path].choice(VALUES))
                 for path in ranked[:random.Random(str(i)).randint(1, 3)]]
        for path, value in edits:
            _set(doc, path, copy.deepcopy(value))
        yield edits, doc


def raw_samples(doc) -> int | None:
    """Samples of the raw matrix a document asks for, or None when its size
    fields do not multiply out (validation then rejects it before any work)."""
    try:
        w, p = doc["waveform"], doc["platform"]
        pulses = round(p["aperture_s"] * p["prf_hz"])
        return pulses * (w["n_subcarriers"] + 2 * w["n_range_cells"] - 2)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None


def run_cli(argv):
    """cli.main's exit code with every warning raised as an error, its output
    swallowed; any exception is returned in place of the exit code."""
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("error")
        try:
            return cli.main(argv), err.getvalue()
        except Exception as e:  # noqa: BLE001 - the finding is the exception
            return e, err.getvalue()


def fuzz_documents(tmp_dir, n):
    """(edits, outcome, error line) of every case that runs: outcome as
    run_cli returns it, and the first stderr line that starts with "error:",
    or "" when there is none."""
    path = os.path.join(tmp_dir, "doc.json")
    out = os.path.join(tmp_dir, "out")
    for edits, doc in mutated_documents(n):
        size = raw_samples(doc)
        if size is not None and size > MAX_RAW_SAMPLES:
            continue
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, err = run_cli(["metrics", "--scenario", path, "--out", out])
        yield edits, code, next((line for line in err.splitlines()
                                 if line.startswith("error:")), "")


def test_scenario_documents_exit_cleanly(tmp_path):
    bad = [(edits, repr(code)) for edits, code, _ in fuzz_documents(str(tmp_path), N_DOCUMENTS)
           if code not in EXITS]
    assert bad == []


@pytest.mark.parametrize("edits,field", [
    # each ended in a traceback, or ran on past a RuntimeWarning, before its rule
    ({("platform", "carrier_hz"): 1.9e9}, "platform.carrier_hz"),
    ({("waveform", "bandwidth_hz"): 1e300}, "platform.carrier_hz"),
    ({("noise", "snr_db"): 3090}, "noise.snr_db"),
    ({("noise", "snr_db"): -4000}, "noise.snr_db"),
    ({("noise", "snr_db"): -3100}, "noise.snr_db"),
    ({("platform", "velocity_mps"): 1e300}, "platform.velocity_mps"),
    ({("scene", "targets", 0, "azimuth_m"): 1e300}, "scene.targets[0].azimuth_m"),
    ({("platform", "reference_range_m"): 1e300}, "platform.reference_range_m"),
    ({("platform", "reference_range_m"): 1e300, ("platform", "antenna_length_m"): 1e300},
     "platform.reference_range_m"),
    ({("platform", "carrier_hz"): 2**70, ("platform", "antenna_length_m"): 1e300},
     "platform.antenna_length_m"),
    ({("platform", "carrier_hz"): 1e300, ("scene", "targets", 0, "azimuth_m"): 1e150},
     "platform.carrier_hz"),
    # the edges of the noise rule, and a carrier of exactly half the bandwidth,
    # whose lowest raw-line bin rounds to just above 0 Hz
    ({("noise", "snr_db"): -1541}, None),
    ({("noise", "snr_db"): -1542}, "noise.snr_db"),
    ({("noise", "snr_db"): 3082}, None),
    ({("noise", "snr_db"): 3083}, "noise.snr_db"),
    ({("platform", "carrier_hz"): 2.0e9}, None),
    # rcs: past its bound the metrics' squares overflowed; both edges of the bound
    ({("scene", "targets", 0, "rcs"): [1e300, 0.0]}, "scene.targets[0].rcs"),
    ({("scene", "targets", 0, "rcs"): [1e100, -1e100]}, None),
    ({("scene", "targets", 0, "rcs"): [0.0, math.nextafter(-1e100, -math.inf)]},
     "scene.targets[0].rcs"),
    # 100 pulses whose fBm path overflowed exp, then exited 5; both edges of the rule
    ({("foliage", "hurst"): 0.99, ("platform", "aperture_s"): 1000, ("platform", "prf_hz"): 0.1},
     "platform.aperture_s"),
    ({("platform", "aperture_s"): 1e8, ("platform", "prf_hz"): 1e-6}, "platform.aperture_s"),
    ({("foliage", "hurst"): 0.99, ("platform", "aperture_s"): 67, ("platform", "prf_hz"): 1.5},
     None),
    ({("foliage", "hurst"): 0.99, ("platform", "aperture_s"): 68, ("platform", "prf_hz"): 1.5},
     "platform.aperture_s"),
], ids=["carrier_1.9GHz", "bandwidth_1e300", "snr_3090", "snr_-4000", "snr_-3100",
        "velocity_1e300", "azimuth_1e300", "reference_range_1e300",
        "reference_range_and_antenna_1e300", "antenna_1e300_carrier_2^70",
        "carrier_1e300_azimuth_1e150",
        "snr_-1541", "snr_-1542", "snr_3082", "snr_3083", "carrier_2GHz",
        "rcs_1e300", "rcs_at_bound", "rcs_past_bound",
        "fbm_hurst_0.99_aperture_1000", "fbm_aperture_1e8", "fbm_inside_bound",
        "fbm_past_bound"])
def test_float_range_rules(tmp_path, edits, field):
    doc = base_document()
    for path, value in edits.items():
        _set(doc, path, value)
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    code, err = run_cli(["metrics", "--scenario", str(tmp_path / "doc.json"),
                         "--out", str(tmp_path / "out")])
    if field is None:
        assert code == 0
    else:
        assert code == 2 and err.startswith(f"error: {field}: "), (code, err)


HEADER = struct.Struct("<4sIII16s")  # fileio's container header
HEADER_VALUES = (0, 1, 2, 31, 32, 33, 47, 48, 49, 350, 2**31, 2**32 - 1)


def mutated_header(rng: random.Random, blob: bytes) -> bytes:
    """blob with one header field replaced, or cut short."""
    fields = list(HEADER.unpack(blob[:HEADER.size]))
    which = rng.randrange(len(fields) + 1)
    if which == len(fields):
        return blob[:rng.randrange(len(blob))]
    if which == 0:
        fields[0] = rng.choice([b"FSAR", b"FIMG", b"\0\0\0\0", b"fsar"])
    elif which == 4:
        fields[4] = bytes(rng.randrange(256) for _ in range(16))
    else:
        fields[which] = rng.choice(HEADER_VALUES)
    return HEADER.pack(*fields) + blob[HEADER.size:]


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    """(scenario path, out dir, readers): the readers run `image --raw` on the
    FSAR and `metrics --image` on the FIMG file of base_document()'s run."""
    tmp = tmp_path_factory.mktemp("containers")
    scen, out = str(tmp / "doc.json"), tmp / "out"
    (tmp / "doc.json").write_text(json.dumps(base_document()))
    for command in ("simulate", "image"):
        assert run_cli([command, "--scenario", scen, "--out", str(out)])[0] == 0
    readers = [("image", "--raw", (out / "ofdm-foliage_HH-seed0_raw.fsar").read_bytes()),
               ("metrics", "--image", (out / "ofdm-foliage_HH-seed0_image.fimg").read_bytes())]
    return scen, str(out), readers


def test_container_headers_exit_cleanly(containers, tmp_path):
    scen, out, readers = containers
    rng = random.Random(0)
    path = tmp_path / "input.bin"
    bad = []
    for k in range(N_HEADERS):
        command, flag, blob = readers[k % 2]
        path.write_bytes(mutated_header(rng, blob))
        code, _ = run_cli([command, "--scenario", scen, flag, str(path), "--out", out])
        if code not in EXITS:
            bad.append((command, k, repr(code)))
    assert bad == []


# Payload values: non-finite ones, ones whose squares leave the float64 range,
# and the smallest subnormal.
PAYLOAD_VALUES = (math.nan, math.inf, -math.inf, 1e300, -1e300, 1e160, 5e-324)
N_PAYLOAD_POSITIONS = 4


def with_payload_value(rng: random.Random, blob: bytes, value: float) -> bytes:
    """blob with value written over one float64 of its payload."""
    at = HEADER.size + 8 * rng.randrange((len(blob) - HEADER.size) // 8)
    return blob[:at] + struct.pack("<d", value) + blob[at + 8:]


@pytest.mark.parametrize("value", PAYLOAD_VALUES, ids=repr)
def test_container_payloads_exit_cleanly(value, containers, tmp_path):
    scen, out, readers = containers
    rng = random.Random(repr(value))
    path = tmp_path / "input.bin"
    bad = []
    for command, flag, blob in readers:
        for _ in range(N_PAYLOAD_POSITIONS):
            path.write_bytes(with_payload_value(rng, blob, value))
            code, _ = run_cli([command, "--scenario", scen, flag, str(path), "--out", out])
            if code not in EXITS:
                bad.append((command, repr(code)))
    assert bad == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for edits, code, error in fuzz_documents(tmp, int(sys.argv[1])):
            print(edits, repr(code), error, sep="\t")
