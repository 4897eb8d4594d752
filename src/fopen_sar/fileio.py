"""Every file format the simulator reads or writes, on plain arrays.

FSAR (raw echoes) and FIMG (focused images) are one binary container that
differs only in its magic number: a 32-byte header (magic, version u32,
rows u32, cols u32, 16 reserved bytes), then row-major little-endian
complex128, i.e. float64 (Re, Im) pairs. PGM and PNG hold an image's
magnitude in dB re its peak as 16-bit gray levels. CSV (raw matrix, foliage
F, image profiles) writes each number's repr, a block of rows at a time, so
every value reads back bit for bit; JSON holds reports and manifests. Every
file is written through atomic_write: a reader sees the old file or the
whole new one, never a part.
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


def write_container(path, magic: bytes, data: np.ndarray) -> None:
    """Write a 2-D complex matrix: header, then the samples streamed from data."""
    rows, cols = data.shape
    with atomic_write(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, VERSION, rows, cols, b"\0" * 16))
        fh.write(np.ascontiguousarray(data, dtype="<c16"))


def read_container(path, magic: bytes) -> np.ndarray:
    """Read a matrix written by write_container with the same magic into one array."""
    name = magic.decode()
    with open(path, "rb") as fh:
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
        data = np.empty((rows, cols), dtype="<c16")
        if fh.readinto(data.reshape(-1).view(np.uint8)) != size:
            raise FormatError(f"{path}: {name} payload changed while it was read")
    return data.astype(complex, copy=False)


def write_fsar(path, data: np.ndarray) -> None:
    """Write a raw matrix [pulse, sample] as FSAR."""
    write_container(path, FSAR_MAGIC, data)


def read_fsar(path) -> np.ndarray:
    """Read an FSAR file's complex matrix."""
    return read_container(path, FSAR_MAGIC)


def write_fimg(path, pixels: np.ndarray) -> None:
    """Write a focused image [azimuth, range cell] as FIMG."""
    write_container(path, FIMG_MAGIC, pixels)


def read_fimg(path) -> np.ndarray:
    """Read a FIMG file's complex matrix."""
    return read_container(path, FIMG_MAGIC)


def _db_levels(pixels: np.ndarray, floor_db: float) -> np.ndarray:
    """Magnitude in dB re the image peak, clipped at floor_db, as big-endian
    16-bit levels (floor_db -> 0, peak -> 65535)."""
    mag = np.abs(pixels)
    peak = mag.max()
    if peak == 0:
        return np.zeros(mag.shape, ">u2")
    db = 20.0 * np.log10(np.maximum(mag / peak, 10.0 ** (floor_db / 20.0)))
    return np.round((db - floor_db) / (-floor_db) * 65535.0).astype(">u2")


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


def _write_rows(fh, columns) -> None:
    """Write equal-length columns of numbers as CSV rows, CSV_BLOCK_ROWS at a
    time: a block's numbers become Python ints and floats, and one % string
    with a %r per number writes their reprs."""
    line = ",".join(["%r"] * len(columns)) + "\r\n"
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = np.column_stack([np.asarray(c[start:start + CSV_BLOCK_ROWS], dtype=object)
                                 for c in columns])
        fh.write(line * len(block) % tuple(block.ravel()))


def write_csv(path, header: list[str], columns) -> None:
    """Write equal-length columns of numbers as CSV rows under a header line,
    in csv.writer's bytes: each number's repr, CRLF line ends, nothing
    quoted (no header name or number holds a comma, quote or line break)."""
    with atomic_write(path) as fh:
        fh.write(",".join(header) + "\r\n")
        _write_rows(fh, columns)


def _matrix_csv(path, row_name: str, col_name: str, blocks) -> None:
    """One CSV row per entry of a complex matrix, row-major: row, col, re, im.
    blocks are the matrix's row blocks from row 0 on, written as they come."""
    with atomic_write(path) as fh:
        fh.write(f"{row_name},{col_name},re,im\r\n")
        first = 0
        for block in blocks:
            row, col = np.indices(block.shape)
            _write_rows(fh, [(row + first).ravel(), col.ravel(), block.real.ravel(),
                             block.imag.ravel()])
            first += len(block)


def write_raw_csv(path, data: np.ndarray) -> None:
    """CSV export of a small raw matrix: pulse, sample, re, im."""
    _matrix_csv(path, "pulse", "sample", (data,))


def dump_realizations_csv(path, blocks) -> None:
    """CSV export of a foliage response F[pulse, bin]: pulse_index, bin, re, im.
    blocks are F's row blocks from pulse 0 on (FoliageChannel.blocks()), so F
    need not be held whole; a whole F is the one block [F]."""
    _matrix_csv(path, "pulse_index", "bin", blocks)


def write_json(path, doc) -> None:
    """Write a JSON document with sorted keys, two-space indent and a final newline."""
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
