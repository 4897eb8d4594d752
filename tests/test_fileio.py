import re
import tracemalloc
import types

import numpy as np
import pytest

from fopen_sar import echo, fileio
from fopen_sar.echo import SimulationConfig, synthesize_raw
from fopen_sar.fileio import (FormatError, dump_realizations_csv, read_fimg, read_fsar,
                              write_csv, write_fimg, write_fsar, write_pgm, write_png,
                              write_raw_csv)
from fopen_sar.geometry import PointTarget, Scene


def _config(tiny_spec, tiny_platform, **kw):
    """One target in cell 4 of the tiny fixtures' eight."""
    return SimulationConfig(waveform_kind=kw.pop("kind", "ofdm"), ofdm=tiny_spec,
                            scene=Scene((PointTarget(4),), 8), platform=tiny_platform, **kw)


class TestFsarIo:
    def test_round_trip(self, tiny_spec, tiny_platform, tmp_path):
        cfg = _config(tiny_spec, tiny_platform, kind="noise", master_seed=8)
        raw = synthesize_raw(cfg)
        path = tmp_path / "raw.fsar"
        write_fsar(path, raw.data)
        data = read_fsar(path)
        np.testing.assert_array_equal(data, raw.data)

    def test_header_size_and_magic(self, tiny_spec, tiny_platform, tmp_path):
        cfg = _config(tiny_spec, tiny_platform)
        raw = synthesize_raw(cfg)
        path = tmp_path / "raw.fsar"
        write_fsar(path, raw.data)
        blob = path.read_bytes()
        assert blob[:4] == b"FSAR"
        assert len(blob) == 32 + raw.data.size * 16

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.fsar"
        path.write_bytes(b"XSAR" + b"\0" * 28)
        with pytest.raises(FormatError, match=re.escape(f"{path}: bad magic")):
            read_fsar(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.fsar"
        path.write_bytes(b"FSAR\0\0")
        with pytest.raises(FormatError, match=re.escape(f"{path}: truncated FSAR header")):
            read_fsar(path)

    def _written(self, tiny_spec, tiny_platform, tmp_path):
        path = tmp_path / "raw.fsar"
        write_fsar(path, synthesize_raw(_config(tiny_spec, tiny_platform)).data)
        return path

    def test_short_payload_rejected(self, tiny_spec, tiny_platform, tmp_path):
        path = self._written(tiny_spec, tiny_platform, tmp_path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(FormatError, match=re.escape(f"{path}: FSAR payload has")):
            read_fsar(path)

    def test_long_payload_rejected(self, tiny_spec, tiny_platform, tmp_path):
        path = self._written(tiny_spec, tiny_platform, tmp_path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match=re.escape(f"{path}: FSAR payload has")):
            read_fsar(path)

    def test_future_version_rejected(self, tiny_spec, tiny_platform, tmp_path):
        path = self._written(tiny_spec, tiny_platform, tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + (2).to_bytes(4, "little") + blob[8:])
        with pytest.raises(FormatError, match=re.escape(f"{path}: FSAR version 2")):
            read_fsar(path)

    def test_streams_write_and_read_the_array_bytes(self, tiny_spec, tiny_platform, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(echo, "block_rows", lambda rows, length: 5)  # 16 = 5 + 5 + 5 + 1
        cfg = _config(tiny_spec, tiny_platform, kind="noise", master_seed=3, snr_db=20.0)
        raw = synthesize_raw(cfg)
        assert [len(rows) for _, rows in cfg.blocks()] == [5, 5, 5, 1]
        for name, source in (("array", raw.data), ("matrix", raw), ("stream", cfg)):
            write_fsar(tmp_path / f"{name}.fsar", source)
        blob = (tmp_path / "array.fsar").read_bytes()
        assert (tmp_path / "matrix.fsar").read_bytes() == blob
        assert (tmp_path / "stream.fsar").read_bytes() == blob
        path = tmp_path / "array.fsar"
        assert fileio.container_shape(path, fileio.FSAR_MAGIC) == raw.shape
        for rows in (slice(0, 3), slice(3, 8), slice(5, 99), slice(9, 12), slice(None)):
            np.testing.assert_array_equal(read_fsar(path, rows), raw.data[rows])
        with pytest.raises(ValueError, match="not consecutive"):
            read_fsar(path, slice(0, 4, 2))

    def test_payload_that_shrinks_while_it_is_read_rejected(self, tiny_spec, tiny_platform,
                                                             tmp_path, monkeypatch):
        # the size check passes on the size fstat reports; the read then finds
        # fewer bytes than it promised, as when the file is cut short meanwhile
        path = self._written(tiny_spec, tiny_platform, tmp_path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-16])
        monkeypatch.setattr(fileio.os, "fstat",
                            lambda fd: types.SimpleNamespace(st_size=size))
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: FSAR payload changed while it was read")):
            read_fsar(path)

    def test_shape_is_checked_as_a_read_is(self, tiny_spec, tiny_platform, tmp_path):
        path = self._written(tiny_spec, tiny_platform, tmp_path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(FormatError, match=re.escape(f"{path}: FSAR payload has")):
            fileio.container_shape(path, fileio.FSAR_MAGIC)
        with pytest.raises(FormatError, match=re.escape(f"{path}: bad magic b'FSAR'")):
            fileio.container_shape(path, fileio.FIMG_MAGIC)


def _csv_writer_bytes(path, header, rows) -> bytes:
    """The bytes csv.writer writes for a header and rows of Python numbers."""
    import csv  # the reference; the package does not import it
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path.read_bytes()


class TestCsvIo:
    def test_write_csv_matches_csv_writer(self, tmp_path):
        header = ["n", "x", "power_db"]
        columns = [np.arange(-3, 4),
                   np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308, 0.1]),
                   np.array([1, -2, 3, -4, 5, -6, 7]) / 3]
        write_csv(tmp_path / "got.csv", header, [columns])
        assert (tmp_path / "got.csv").read_bytes() == _csv_writer_bytes(
            tmp_path / "want.csv", header, zip(*(c.tolist() for c in columns)))

    def test_blocks_follow_on_across_csv_blocks(self, tmp_path):
        # the middle block is longer than a CSV block, so it is written in two; the
        # blocks' rows follow on, and the columns may be lists or arrays
        rng = np.random.default_rng(4)
        sizes = [5, fileio.CSV_BLOCK_ROWS + 3, 1]
        blocks = [[list(range(n)), rng.standard_normal(n)] for n in sizes]
        write_csv(tmp_path / "got.csv", ["i", "x"], blocks)
        rows = [(i, x) for i_col, x_col in blocks for i, x in zip(i_col, x_col.tolist())]
        assert (tmp_path / "got.csv").read_bytes() == _csv_writer_bytes(
            tmp_path / "want.csv", ["i", "x"], rows)

    def test_matrix_row_blocks_number_rows_from_the_whole_matrix(self, tmp_path):
        # F's uneven row blocks of 1, 5 and 2 pulses x 1000 bins; the 5000-entry
        # block straddles a CSV_BLOCK_ROWS boundary, and each block's pulses count
        # on from the last block's
        rng = np.random.default_rng(5)
        f = rng.standard_normal((8, 1000)) + 1j * rng.standard_normal((8, 1000))
        assert 5 * 1000 > fileio.CSV_BLOCK_ROWS > 1000
        dump_realizations_csv(tmp_path / "got.csv", [f[:1], f[1:6], f[6:]])
        rows = [(p, k, v.real, v.imag) for p, row in enumerate(f.tolist())
                for k, v in enumerate(row)]
        assert (tmp_path / "got.csv").read_bytes() == _csv_writer_bytes(
            tmp_path / "want.csv", ["pulse_index", "bin", "re", "im"], rows)

    @pytest.mark.parametrize("shape", [(187, 350), (3, fileio.CSV_BLOCK_ROWS + 5)],
                             ids=["rows_of_a_csv_block", "row_longer_than_a_csv_block"])
    def test_raw_csv_streams_its_columns(self, shape, tmp_path):
        # the small preset at 187 pulses: the columns of the whole 1 MiB matrix at
        # once took the write's peak to 3.32 MiB; a line longer than a CSV block
        # still goes a row at a time
        rng = np.random.default_rng(6)
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        tracemalloc.start()
        try:
            write_raw_csv(tmp_path / "got.csv", data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= data.nbytes + 2**20, peak / 2**20
        rows = [(p, k, v.real, v.imag) for p, row in enumerate(data.tolist())
                for k, v in enumerate(row)]
        assert (tmp_path / "got.csv").read_bytes() == _csv_writer_bytes(
            tmp_path / "want.csv", ["pulse", "sample", "re", "im"], rows)


class TestImageIo:
    def _image(self):
        rng = np.random.default_rng(0)
        return rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))

    def test_fimg_round_trip(self, tmp_path):
        px = self._image()
        path = tmp_path / "img.fimg"
        write_fimg(path, px)
        np.testing.assert_array_equal(read_fimg(path), px)

    def test_fimg_round_trip_keeps_every_bit(self, tmp_path):
        px = np.array([[complex(-0.0, 1.0), complex(1.0, np.inf)]])
        path = tmp_path / "img.fimg"
        write_fimg(path, px)
        assert read_fimg(path).tobytes() == px.tobytes()

    def test_fsar_is_not_an_image(self, tmp_path):
        path = tmp_path / "raw.fsar"
        write_fsar(path, self._image())
        msg = f"{path}: bad magic b'FSAR', expected b'FIMG'"
        with pytest.raises(FormatError, match=re.escape(msg)):
            read_fimg(path)

    def test_pgm_format(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, self._image(), -50.0)
        blob = path.read_bytes()
        header = b"P5\n6 8\n65535\n"
        assert blob.startswith(header)
        assert len(blob) == len(header) + 8 * 6 * 2

    def test_png_structure(self, tmp_path):
        import struct
        import zlib
        path = tmp_path / "img.png"
        write_png(path, self._image(), -50.0)
        blob = path.read_bytes()
        assert blob[:8] == b"\x89PNG\r\n\x1a\n"
        w, h = struct.unpack(">II", blob[16:24])
        assert (w, h) == (6, 8)
        idat = blob.index(b"IDAT")
        size = struct.unpack(">I", blob[idat - 4:idat])[0]
        raw = zlib.decompress(blob[idat + 4:idat + 4 + size])
        assert len(raw) == 8 * (1 + 6 * 2)

    def test_pgm_peak_location_matches_image(self, tmp_path):
        px = np.full((5, 7), 0.01, complex)
        px[3, 2] = 1.0
        path = tmp_path / "img.pgm"
        write_pgm(path, px, -50.0)
        blob = path.read_bytes()
        header = b"P5\n7 5\n65535\n"
        vals = np.frombuffer(blob[len(header):], dtype=">u2").reshape(5, 7)
        assert np.unravel_index(np.argmax(vals), vals.shape) == (3, 2)

    def test_pgm_levels_are_the_db_formula_bit_for_bit(self, tmp_path):
        # the levels are formed in place in one buffer; they must be the formula's
        rng = np.random.default_rng(6)
        px = (rng.standard_normal((40, 30)) + 1j * rng.standard_normal((40, 30))) * 10.0 ** (
            rng.uniform(-4, 0, (40, 30)))
        mag = np.abs(px)
        db = 20.0 * np.log10(np.maximum(mag / mag.max(), 10.0 ** (-50.0 / 20.0)))
        want = np.round((db + 50.0) / 50.0 * 65535.0).astype(">u2")
        assert 0 < (want == 0).sum() < want.size  # some pixels sit below the floor
        write_pgm(tmp_path / "img.pgm", px, -50.0)
        assert (tmp_path / "img.pgm").read_bytes() == b"P5\n30 40\n65535\n" + want.tobytes()
