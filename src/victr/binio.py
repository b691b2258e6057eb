"""The binary container and payload formats of every artifact file.

Container: 7-byte magic + '\\n', u32 header length, UTF-8 JSON header (an
object), raw payload, u32 CRC32 of the payload. All integers little-endian.
Every header also holds ``"version": 1``. Payload arrays follow one another
in the order listed, each in row order, with no padding.

``VICTRG1`` relational graph (``graphstore``):
  header: ``kind`` (str), ``n`` nodes, ``nnz`` records, ``vocab``:
  ``words`` and ``kinds`` (n strings each; kinds are object, relation or
  attribute), ``super`` (object node id as a decimal string -> super-class).
  payload: nnz records of (src <u4, dst <u4, count <u8, weight <f8),
  strictly ascending in (src, dst).
``VICTRE1`` embeddings and E_vs matrices (``gcn``):
  header: ``n`` rows, ``h`` width, ``vocab_hash`` (str).
  payload <f4: rows (n, h).
``VICTRE1`` text features (``fusion``):
  header: ``kind`` = "text_features", ``l`` >= 1 words, ``d`` width.
  payload <f4: words (l, d), sentence (d,).
``VICTRF1`` fused caption (``fusion``):
  header: ``caption_id`` (str), ``l`` words, ``d`` text width, ``v``
  visual width, ``n_obj`` objects.
  payload <f4: attention (l, n_obj), words (l, d + v), sentence (d + v,).
``VICTRS1`` scene-graph corpus (``sceneparse``), the kept captions in id order:
  header: ``n`` captions; ``objects``, ``attributes``, ``relations``, ``tokens``
  rows; ``text`` bytes of the string table.
  payload <i4: captions (n, 2) (caption id, image id); offsets (n + 1, 4), each
  caption's first row of objects, attributes, relations, tokens, then the row
  counts; objects (word, super-class); attributes (object row, word); relations
  (subject row, predicate, object row); tokens. Then ``text``: the string table,
  a compact JSON list. Words, classes and ids are positions in it. It is
  payload, not header, so that the CRC covers it.

Header counts are ints >= 0 (``header_ints``). ``unpack`` checks the
payload size the header implies and that every value is finite.
"""

import itertools
import json
import math
import os
import struct
import zlib

import numpy as np


class FormatError(ValueError):
    """Raised when a binary artifact file is malformed or corrupted."""


GRAPH_MAGIC = b"VICTRG1"
EMBED_MAGIC = b"VICTRE1"
FUSED_MAGIC = b"VICTRF1"
CORPUS_MAGIC = b"VICTRS1"

VERSION = 1


def write_container(path, magic: bytes, header: dict, payload: bytes) -> None:
    head = json.dumps(dict(header, version=VERSION), sort_keys=True, separators=(",", ":")).encode()
    write_file(path, b"".join((magic, b"\n", struct.pack("<I", len(head)), head, payload,
                               struct.pack("<I", zlib.crc32(payload)))))


def write_file(path, data: bytes) -> None:
    """Create or truncate path and write data to it, unbuffered."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        data = memoryview(data)
        while data:  # one write, unless the file system takes less
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def read_container(path, magic: bytes) -> tuple[dict, bytes]:
    with open(path, "rb", buffering=0) as f:
        blob = f.read()
    if len(blob) < len(magic) + 1 + 8:
        raise FormatError(f"{path}: truncated file")
    if blob[: len(magic) + 1] != magic + b"\n":
        raise FormatError(
            f"{path}: wrong magic {blob[:len(magic)]!r}, expected {magic!r}"
        )
    off = len(magic) + 1
    (hlen,) = struct.unpack_from("<I", blob, off)
    off += 4
    if off + hlen + 4 > len(blob):
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(blob[off : off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: bad header ({e})") from e
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    if header.get("version") != VERSION:
        raise FormatError(
            f"{path}: unsupported version {header.get('version')}, expected {VERSION}"
        )
    off += hlen
    payload = blob[off:-4]
    (crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise FormatError(f"{path}: checksum failure")
    return header, payload


def pack(arrays, dtype: str) -> bytes:
    """The arrays as dtype, each in row order, one after another."""
    return b"".join(np.ascontiguousarray(a, dtype=dtype).tobytes() for a in arrays)


def header_ints(header: dict, path, *names: str) -> list[int]:
    """The named header fields, each required to be an int >= 0 (not a bool)."""
    values = [header.get(name) for name in names]
    for name, value in zip(names, values):
        if type(value) is not int or value < 0:
            got = repr(value) if name in header else "no such field"
            raise FormatError(f"{path}: header field {name!r} must be an integer >= 0, got {got}")
    return values


def unpack(payload: bytes, path, dtype: str, *shapes: tuple) -> list[np.ndarray]:
    """The payload as float64 arrays of the given shapes, in order; FormatError
    naming the path when its size differs or a value is NaN or infinite."""
    sizes = [math.prod(shape) for shape in shapes]
    expected = sum(sizes) * np.dtype(dtype).itemsize
    if len(payload) != expected:
        raise FormatError(f"{path}: payload size {len(payload)}, expected {expected}")
    flat = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    if not np.isfinite(flat).all():
        raise FormatError(f"{path}: payload holds non-finite values")
    ends = itertools.accumulate(sizes)
    return [flat[end - size : end].reshape(shape) for shape, size, end in zip(shapes, sizes, ends)]
