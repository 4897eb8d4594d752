"""Every file format the simulator reads or writes, on plain arrays.

FSAR (raw echoes) and FIMG (focused images) are one binary container that
differs only in its magic number: a 32-byte header (magic, version u32,
rows u32, cols u32, 16 reserved bytes), then row-major little-endian
complex128, i.e. float64 (Re, Im) pairs, written from an array or a block
at a time from a stream of row blocks, and read whole or a slice of rows
at a time. PGM and PNG hold an image's magnitude in dB re its peak as
16-bit gray levels. Every CSV (raw matrix, foliage F, image profiles,
per-seed metrics) goes through write_csv, which writes each number's repr,
so every value reads back bit for bit; the two [pulse, bin] CSVs form
their columns a row block at a time, never for the whole matrix at once.
JSON holds reports and manifests. Every file is written through
atomic_write: a reader sees the old file or the whole new one, never a part.
"""

import contextlib
import json
import os
import struct
import zlib

import numpy as np

VERSION = 1
_HEADER = struct.Struct("<4sIII16s")  # magic, version, rows, cols, reserved
FSAR_MAGIC = b"FSAR"
FIMG_MAGIC = b"FIMG"


class FormatError(ValueError):
    """A container file that cannot be read; the message names the file."""


@contextlib.contextmanager
def atomic_write(path, mode="w"):
    """Yield a file open for writing at path + ".tmp"; rename it onto path
    when the block succeeds, and remove it when the block or the rename
    fails. Text mode writes line ends as given."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def write_container(path, magic: bytes, data) -> None:
    """Write a 2-D complex matrix: header, then the samples of each (first_row, rows)
    block of data.blocks() in turn (a RawDataMatrix, or a SimulationConfig that
    synthesizes each block as it is written), or of data itself when it is an array,
    which is one block."""
    rows, cols = data.shape
    blocks = data.blocks() if hasattr(data, "blocks") else [(0, data)]
    with atomic_write(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, VERSION, rows, cols, b"\0" * 16))
        for _, block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<c16"))


def _read_shape(fh, path, magic: bytes) -> tuple[int, int]:
    """(rows, cols) from the header of the open file fh, once the header and the
    payload size it implies check out."""
    name = magic.decode()
    head = fh.read(_HEADER.size)
    if len(head) != _HEADER.size:
        raise FormatError(f"{path}: truncated {name} header "
                          f"({len(head)} of {_HEADER.size} bytes)")
    got, version, rows, cols, _ = _HEADER.unpack(head)
    if got != magic:
        raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: {name} version {version} is not supported "
                          f"(expected {VERSION})")
    size = os.fstat(fh.fileno()).st_size - _HEADER.size
    if size != rows * cols * 16:
        raise FormatError(f"{path}: {name} payload has {size} bytes, "
                          f"expected {rows * cols * 16} for {rows} x {cols}")
    return rows, cols


def container_shape(path, magic: bytes) -> tuple[int, int]:
    """The (rows, cols) of a matrix written by write_container with the same magic,
    checked as read_container checks it; no sample is read."""
    with open(path, "rb") as fh:
        return _read_shape(fh, path, magic)


def read_container(path, magic: bytes, rows: slice = slice(None)) -> np.ndarray:
    """Read a matrix written by write_container with the same magic into one array:
    the rows of the slice rows (consecutive, clipped to the matrix), all by default."""
    with open(path, "rb") as fh:
        n_rows, cols = _read_shape(fh, path, magic)
        span = range(n_rows)[rows]
        if span.step != 1:
            raise ValueError(f"rows {rows} are not consecutive")
        data = np.empty((len(span), cols), dtype="<c16")
        fh.seek(_HEADER.size + 16 * cols * span.start)
        if fh.readinto(data.reshape(-1).view(np.uint8)) != data.nbytes:
            raise FormatError(f"{path}: {magic.decode()} payload changed while it was read")
    return data.astype(complex, copy=False)


def write_fsar(path, data) -> None:
    """Write a raw matrix [pulse, sample] as FSAR: an array, or a RawDataMatrix or
    SimulationConfig written a block at a time."""
    write_container(path, FSAR_MAGIC, data)


def read_fsar(path, rows: slice = slice(None)) -> np.ndarray:
    """Read an FSAR file's complex matrix, or the rows of the slice rows."""
    return read_container(path, FSAR_MAGIC, rows)


def write_fimg(path, pixels: np.ndarray) -> None:
    """Write a focused image [azimuth, range cell] as FIMG."""
    write_container(path, FIMG_MAGIC, pixels)


def read_fimg(path) -> np.ndarray:
    """Read a FIMG file's complex matrix."""
    return read_container(path, FIMG_MAGIC)


def _db_levels(pixels: np.ndarray, floor_db: float) -> np.ndarray:
    """Magnitude in dB re the image peak, clipped at floor_db, as big-endian
    16-bit levels (floor_db -> 0, peak -> 65535), formed in the one magnitude buffer."""
    level = np.abs(pixels)
    peak = level.max()
    if peak == 0:
        return np.zeros(level.shape, ">u2")
    level /= peak
    np.log10(np.maximum(level, 10.0 ** (floor_db / 20.0), out=level), out=level)
    level *= 20.0  # dB
    level -= floor_db
    level /= -floor_db
    level *= 65535.0
    return np.round(level, out=level).astype(">u2")


def write_pgm(path, pixels: np.ndarray, floor_db: float) -> None:
    """16-bit binary PGM of the dB-scaled magnitude."""
    levels = _db_levels(pixels, floor_db)
    with atomic_write(path, "wb") as fh:
        fh.write(f"P5\n{levels.shape[1]} {levels.shape[0]}\n65535\n".encode())
        fh.write(levels)


def write_png(path, pixels: np.ndarray, floor_db: float) -> None:
    """16-bit grayscale PNG of the dB-scaled magnitude (stdlib encoder)."""
    levels = _db_levels(pixels, floor_db)
    h, w = levels.shape
    rows = np.zeros((h, 1 + 2 * w), np.uint8)  # filter byte 0, then the row
    rows[:, 1:] = levels.view(np.uint8)
    with atomic_write(path, "wb") as fh:
        def chunk(tag, payload):
            fh.write(struct.pack(">I", len(payload)) + tag)
            fh.write(payload)
            fh.write(struct.pack(">I", zlib.crc32(payload, zlib.crc32(tag))))

        fh.write(b"\x89PNG\r\n\x1a\n")
        chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 16, 0, 0, 0, 0))  # 16-bit gray
        chunk(b"IDAT", zlib.compress(rows, 6))
        chunk(b"IEND", b"")


# Rows per formatted CSV block: a block's Python numbers and text stay near 1 MB.
CSV_BLOCK_ROWS = 4096


def write_csv(path, header: list[str], blocks) -> None:
    """Write CSV rows under a header line in csv.writer's bytes: each number's repr,
    CRLF line ends, nothing quoted (no header name or number holds a comma, quote or
    line break). blocks are lists of equal-length columns, one per header name, whose
    rows follow on; each goes CSV_BLOCK_ROWS rows at a time into one % string with a
    %r per number, the numbers made Python ints and floats."""
    line = ",".join(["%r"] * len(header)) + "\r\n"
    with atomic_write(path) as fh:
        fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
                rows = np.column_stack([np.asarray(c[start:start + CSV_BLOCK_ROWS],
                                                   dtype=object) for c in columns])
                fh.write(line * len(rows) % tuple(rows.ravel()))


def _matrix_columns(blocks):
    """Yield each row block's (row, col, re, im) columns, row-major, rows counted on from 0."""
    first = 0
    for block in blocks:
        row, col = np.indices(block.shape)
        yield [(row + first).ravel(), col.ravel(), block.real.ravel(), block.imag.ravel()]
        first += len(block)


def write_raw_csv(path, data: np.ndarray) -> None:
    """CSV export of a small raw matrix: pulse, sample, re, im. Its columns are formed
    from row slices of about CSV_BLOCK_ROWS samples each (at least one row), so none
    spans the whole matrix."""
    height = max(1, CSV_BLOCK_ROWS // data.shape[1])
    write_csv(path, ["pulse", "sample", "re", "im"],
              _matrix_columns(data[i:i + height] for i in range(0, len(data), height)))


def dump_realizations_csv(path, blocks) -> None:
    """CSV export of a foliage response F[pulse, bin]: pulse_index, bin, re, im.
    blocks are F's row blocks from pulse 0 on (FoliageChannel.blocks()), so F
    need not be held whole; a whole F is the one block [F]."""
    write_csv(path, ["pulse_index", "bin", "re", "im"], _matrix_columns(blocks))


def write_json(path, doc) -> None:
    """Write a JSON document with sorted keys, two-space indent and a final newline."""
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
