"""Round-trip and error tests for the checkpoint container."""

import struct

import numpy as np
import pytest

from finehash import checkpoint
from finehash.checkpoint import MAGIC, load_arrays, save_arrays
from finehash.data import Dataset, write_dataset
from finehash.errors import FileFormatError
from finehash.retrieval import pack_codes, save_features, save_labels, save_packed


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

    def test_repeated_name_rejected(self, tmp_path):
        def block(name, values):
            encoded = name.encode("utf-8")
            return (struct.pack("<I", len(encoded)) + encoded + struct.pack("<IQ", 1, len(values))
                    + np.asarray(values, dtype="<f8").tobytes())

        path = tmp_path / "twice.fht1"
        path.write_bytes(MAGIC + block("w", [1.0]) + block("b", [0.0, 0.0]) + block("w", [2.0]))
        with pytest.raises(FileFormatError, match=r"twice\.fht1: checkpoint entry 'w' appears"):
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


class _FailingWrites:
    """File wrapper whose second write raises, as a full disk would."""

    def __init__(self, fh):
        self._fh, self._writes = fh, 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError("no space left on device")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


def _write_manifest(path, value):
    names = ["a", "b"] if value > 0 else ["c", "d"]
    dataset = Dataset(images=np.zeros((2, 4, 4, 3)), labels=np.array([0, 1]),
                      splits=np.array(["train-db", "query"]), label_names=names)
    write_dataset(dataset, path.parent)


# each writer called with a value that changes what it writes
WRITERS = {
    "save_packed": lambda path, v: save_packed(path, pack_codes(np.full((3, 8), v))),
    "save_features": lambda path, v: save_features(path, np.full((3, 4), v)),
    "save_labels": lambda path, v: save_labels(path, np.full(3, int(v))),
}


def _fail_second_write(monkeypatch):
    monkeypatch.setattr(checkpoint, "open",
                        lambda *args, **kwargs: _FailingWrites(open(*args, **kwargs)),
                        raising=False)


@pytest.mark.parametrize("writer", list(WRITERS))
def test_failed_artifact_write_keeps_previous_file(writer, tmp_path, monkeypatch):
    path = tmp_path / "artifact"
    WRITERS[writer](path, 1.0)
    before = path.read_bytes()
    _fail_second_write(monkeypatch)
    with pytest.raises(OSError):
        WRITERS[writer](path, -1.0)
    assert path.read_bytes() == before
    assert not path.with_name(path.name + ".tmp").exists()


def test_failed_manifest_rewrite_leaves_no_manifest(tmp_path, monkeypatch):
    # by the manifest write a rewrite has replaced the images the old
    # manifest listed, so neither manifest may be left to load
    path = tmp_path / "manifest.csv"
    _write_manifest(path, 1.0)
    _fail_second_write(monkeypatch)
    with pytest.raises(OSError):
        _write_manifest(path, -1.0)
    assert not path.exists()
    assert not path.with_name(path.name + ".tmp").exists()
