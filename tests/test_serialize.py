"""Binary-container round-trip and corruption tests."""

import struct

import numpy as np
import pytest

from infoalign.errors import CorruptFileError
from infoalign.serialize import read_container, write_container


def test_round_trip(tmp_path):
    p = tmp_path / "c.bin"
    arrays = [np.arange(12, dtype=np.float64).reshape(3, 4),
              np.array([1, 2, 3], dtype="<f4"),
              np.zeros(0, dtype="<f4")]
    meta = {"name": "x", "nested": {"k": [1, 2]}}
    write_container(p, b"TEST", meta, arrays)
    meta2, arrays2 = read_container(p, b"TEST")
    assert meta2 == meta
    for a, b in zip(arrays, arrays2):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_rewrite_byte_identical(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    arr = [np.linspace(0, 1, 7)]
    write_container(a, b"TEST", {"k": 1}, arr)
    write_container(b, b"TEST", {"k": 1}, arr)
    assert a.read_bytes() == b.read_bytes()


def test_bad_magic(tmp_path):
    p = tmp_path / "c.bin"
    write_container(p, b"AAAA", {}, [])
    with pytest.raises(CorruptFileError, match="magic"):
        read_container(p, b"BBBB")


def test_bad_version(tmp_path):
    p = tmp_path / "c.bin"
    write_container(p, b"TEST", {}, [np.ones(3)])
    raw = bytearray(p.read_bytes())
    struct.pack_into("<I", raw, 4, 99)  # overwrite version field
    p.write_bytes(bytes(raw))
    with pytest.raises(CorruptFileError, match="version"):
        read_container(p, b"TEST")


def test_truncated(tmp_path):
    p = tmp_path / "c.bin"
    write_container(p, b"TEST", {"k": 1}, [np.ones(100)])
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 10])
    with pytest.raises(CorruptFileError):
        read_container(p, b"TEST")
    p.write_bytes(raw[:8])
    with pytest.raises(CorruptFileError):
        read_container(p, b"TEST")


def test_bit_flip(tmp_path):
    p = tmp_path / "c.bin"
    write_container(p, b"TEST", {"k": 1}, [np.ones(10)])
    raw = bytearray(p.read_bytes())
    raw[-1] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(CorruptFileError, match="checksum"):
        read_container(p, b"TEST")


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    """A write that raises midway leaves the old file intact and no temp file."""
    import builtins

    import infoalign.serialize as ser

    p = tmp_path / "c.bin"
    write_container(p, b"TEST", {"k": 1}, [np.arange(5.0)])
    before = p.read_bytes()

    class FailingFile:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, data):
            self.writes += 1
            if self.writes == 2:
                raise OSError("disk full")
            return self.fh.write(data)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

    monkeypatch.setattr(ser, "open", lambda *a, **k: FailingFile(builtins.open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        write_container(p, b"TEST", {"k": 2}, [np.arange(9.0)])
    assert p.read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["c.bin"]
    monkeypatch.undo()
    write_container(p, b"TEST", {"k": 2}, [np.arange(9.0)])
    assert read_container(p, b"TEST")[0] == {"k": 2}
    assert sorted(f.name for f in tmp_path.iterdir()) == ["c.bin"]
