import importlib.util
import pathlib

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
