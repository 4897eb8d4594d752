import importlib.util
import math
import pathlib
import subprocess
import sys

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bit_identity.py"


def _bit_identity():
    spec = importlib.util.spec_from_file_location("bit_identity", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBitIdentity:
    def test_one_run_twice_gives_the_same_line(self):
        bi = _bit_identity()
        one = [next(bi.runs())]
        first = list(bi.lines(one))
        assert first == list(bi.lines(one))
        assert len(first) == 1
        assert first[0].startswith("small ofdm-foliage_off seed=0 raw=")
        assert " image=" in first[0] and "islr_range_db=" in first[0]

    def test_header_names_numpy_and_each_kernel_target(self):
        bi = _bit_identity()
        build = bi.numpy_build()
        words = bi.header().split()
        assert words[:2] == ["numpy", build["version"]]
        assert words[2:] == [f"{k}={v}" for k, v in sorted(build["dispatch"].items())]

    def test_file_mode_hashes_every_written_file_the_same_twice(self, tmp_path):
        bi = _bit_identity()
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = list(bi.file_lines(str(tmp_path / "a")))
        assert first == list(bi.file_lines(str(tmp_path / "b")))  # timings_s left out
        # the zero scene has no peak for its profiles: image-zero must write no file,
        # and its rerun into image-rerun must leave the first run's files whole
        assert [line for line in first if " exit=" in line] == [
            f"{name} exit={5 if '{dir}/zero.json' in argv else 0}"
            for name, argv in bi.FILE_COMMANDS]
        names = {line.split()[0] for line in first if " exit=" not in line}
        assert not [name for name in names if name.startswith("image-zero/")]
        failed = first.index("image-rerun exit=5")  # the last command
        earlier = first[first.index("image-rerun exit=0") + 1:failed]
        assert first[failed + 1:] == earlier
        assert "image-rerun/image_manifest.json" in {line.split()[0] for line in earlier}
        for name in ("simulate-small/ofdm-foliage_off-seed0_raw.csv",
                     "simulate-foliage/ofdm-foliage_HH-seed0_foliage.csv",
                     "simulate-full/ofdm-foliage_off-seed0_raw.fsar",
                     "image-full/ofdm-foliage_off-seed0_image.png",
                     "image-full/ofdm-foliage_off-seed0_range_profile.csv",
                     "metrics-full/metrics_manifest.json", "compare-small/compare.json"):
            assert name in names
        assert all(len(line.split()[1]) == 64 for line in first if " exit=" not in line)


class TestAb:
    def test_one_round_of_this_checkout_against_itself(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        src = str(root / "src")
        out = subprocess.run([sys.executable, str(root / "tools" / "ab.py"), "--a", src,
                              "--b", src, "--workload", "table", "--rounds", "1"],
                             capture_output=True, text=True, check=True).stdout.splitlines()
        assert out[0] == "workload table, 1 thread(s), 1 rounds"
        rates = [float(line.split()[-1]) for line in out[1:3]]
        assert [line.split()[0] for line in out[1:3]] == ["a", "b"] and min(rates) > 0.0
        assert out[3].startswith("median ratio b/a ") and float(out[3].split()[-1]) > 0.0
        assert out[4] in ("b wins 0/1", "b wins 1/1")
        assert [line.split()[1] for line in out[5:]] == [
            f"{kind}-foliage_{pol}" for kind in ("ofdm", "noise") for pol in ("off", "HH", "VV")]
        for line in out[5:]:
            words = line.split()
            assert words[0] == "config" and words[-4] == "a" and words[-2] == "b"
            assert min(float(words[-3]), float(words[-1])) > 0.0

    def test_one_setup_round_of_this_checkout_against_itself(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        src = str(root / "src")
        out = subprocess.run([sys.executable, str(root / "tools" / "ab.py"), "--a", src,
                              "--b", src, "--workload", "table", "--rounds", "1", "--setup"],
                             capture_output=True, text=True, check=True).stdout.splitlines()
        assert len(out) == 5 and out[0] == "setup workload table, 1 rounds"
        for side, line in zip("ab", out[1:3]):
            words = line.split()
            assert words[:2] == [side, "setup_s"] and words[3] == "import_s"
            assert float(words[2]) > float(words[4]) > 0.0
        assert out[3].startswith("median paired difference b-a ms ")
        assert math.isfinite(float(out[3].split()[-1]))
        assert out[4] in ("b faster 0/1", "b faster 1/1")
