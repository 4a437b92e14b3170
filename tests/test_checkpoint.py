"""Round-trip and error tests for the checkpoint container."""

import numpy as np
import pytest

from finehash.checkpoint import MAGIC, load_arrays, save_arrays
from finehash.errors import FileFormatError


class TestRoundTrip:
    def test_preserves_values_shapes_and_order(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "backbone.0.kernel": rng.standard_normal((3, 3, 3, 8)),
            "hash.weight": rng.standard_normal((12, 40)),
            "meta.iteration": np.array(7.0),
            "bias": np.zeros(5),
        }
        path = tmp_path / "model.fht1"
        save_arrays(path, arrays)
        loaded = load_arrays(path)
        assert list(loaded) == list(arrays)
        for name in arrays:
            assert loaded[name].dtype == np.float64
            assert np.array_equal(loaded[name], arrays[name])

    def test_empty_container(self, tmp_path):
        path = tmp_path / "empty.fht1"
        save_arrays(path, {})
        assert load_arrays(path) == {}

    def test_unicode_names(self, tmp_path):
        path = tmp_path / "u.fht1"
        save_arrays(path, {"weights/étape": np.arange(3.0)})
        assert "weights/étape" in load_arrays(path)


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fht1"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FileFormatError):
            load_arrays(path)

    def test_truncated_values(self, tmp_path):
        path = tmp_path / "trunc.fht1"
        save_arrays(path, {"w": np.ones((4, 4))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(FileFormatError):
            load_arrays(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc2.fht1"
        path.write_bytes(MAGIC + b"\x05\x00")
        with pytest.raises(FileFormatError):
            load_arrays(path)


class TestCrashSafety:
    def test_interrupted_write_keeps_previous_checkpoint(self, tmp_path):
        class Interrupt:
            def __array__(self, dtype=None, copy=None):
                raise RuntimeError("write interrupted")

        path = tmp_path / "model.fht1"
        save_arrays(path, {"w": np.arange(3.0)})
        with pytest.raises(RuntimeError):
            # the first block is written before the second one raises
            save_arrays(path, {"w": np.ones(4), "late": Interrupt()})
        assert list(tmp_path.iterdir()) == [path]
        assert list(load_arrays(path)) == ["w"]
        assert np.array_equal(load_arrays(path)["w"], np.arange(3.0))
