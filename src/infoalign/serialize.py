"""File reading and writing shared by the package.

`text_lines` and `table_rows` read the text inputs (tables, SMILES lists,
configs). The binary container is a magic + version + checksum header, a JSON
metadata block, then raw little-endian arrays. Both the context-graph cache
("CTXG") and model checkpoints ("IAPT") use it. The metadata records each
array's dtype and shape, so the payload can be reconstructed bit-exactly.
Writes are atomic: a temp file next to the target is renamed over it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import struct
import zlib
from pathlib import Path
from typing import Iterator, List, Tuple

import numpy as np

from .errors import CorruptFileError, TableFormatError

_HEADER = struct.Struct("<4sIQQI")  # magic, version, meta_len, payload_len, crc32
VERSION = 1


def text_lines(path) -> Iterator[Tuple[int, str]]:
    """(line number, line without its newline) of each line of a UTF-8 text
    file, split as text-mode reading splits. Bytes that are not UTF-8 raise
    TableFormatError naming the file and the line that holds them."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise TableFormatError(f"{path}:{line}: not UTF-8 text: byte {raw[exc.start]:#04x} "
                               f"at offset {exc.start}") from None
    return enumerate((line.rstrip("\n") for line in io.StringIO(text, newline=None)), 1)


def table_rows(path) -> Iterator[Tuple[int, List[str]]]:
    """(line number, tab-separated columns) of each `text_lines` line that is
    neither blank nor a '#' comment."""
    return ((n, line.split("\t")) for n, line in text_lines(path)
            if line and not line.startswith("#"))


def write_container(path, magic: bytes, meta: dict, arrays: List[np.ndarray]) -> None:
    assert len(magic) == 4
    arrays = [np.ascontiguousarray(a) for a in arrays]
    meta = dict(meta)
    meta["__arrays__"] = [
        {"dtype": a.dtype.str, "shape": list(a.shape)} for a in arrays
    ]
    meta_blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = b"".join(a.astype(a.dtype.newbyteorder("<")).tobytes() for a in arrays)
    crc = zlib.crc32(meta_blob + payload) & 0xFFFFFFFF
    # Write a sibling temp file and rename it over `path`, so a failed write
    # leaves the previous file as it was.
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(magic, VERSION, len(meta_blob), len(payload), crc))
            fh.write(meta_blob)
            fh.write(payload)
            fh.flush()
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_container(path, magic: bytes) -> Tuple[dict, List[np.ndarray]]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise CorruptFileError(f"{path}: file shorter than header")
    got_magic, version, meta_len, payload_len, crc = _HEADER.unpack_from(raw)
    if got_magic != magic:
        raise CorruptFileError(f"{path}: bad magic {got_magic!r}, expected {magic!r}")
    if version != VERSION:
        raise CorruptFileError(f"{path}: unsupported version {version}, expected {VERSION}")
    body = raw[_HEADER.size :]
    if len(body) != meta_len + payload_len:
        raise CorruptFileError(f"{path}: truncated file")
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CorruptFileError(f"{path}: checksum mismatch")
    try:
        meta = json.loads(body[:meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptFileError(f"{path}: corrupt metadata block") from exc
    arrays = []
    offset = meta_len
    for spec in meta.pop("__arrays__", []):
        dtype = np.dtype(spec["dtype"])
        count = int(np.prod(spec["shape"])) if spec["shape"] else 1
        nbytes = dtype.itemsize * count
        arr = np.frombuffer(body[offset : offset + nbytes], dtype=dtype).reshape(spec["shape"])
        arrays.append(arr.copy())
        offset += nbytes
    if offset != meta_len + payload_len:
        raise CorruptFileError(f"{path}: payload length mismatch")
    return meta, arrays
