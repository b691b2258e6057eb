import re
import struct
import zlib

import numpy as np
import pytest
from helpers import random_scene_graphs
from hypothesis import given, settings
from hypothesis import strategies as st

from victr.binio import (
    EMBED_MAGIC,
    FUSED_MAGIC,
    GRAPH_MAGIC,
    FormatError,
    read_container,
    write_container,
)
from victr.fusion import fuse, load_fused, load_text_features, save_fused, save_text_features
from victr.gcn import load_embeddings, save_embeddings
from victr.graphstore import (
    EDGE_DTYPE,
    accumulate_counts,
    build_vocabulary,
    compute_weights,
    deserialize_graph,
    serialize_graph,
)


def _container(path, payload):
    write_container(path, GRAPH_MAGIC, {"n": len(payload)}, payload)
    blob = path.read_bytes()
    return blob, len(blob) - len(payload) - 4  # bytes before the payload


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=1, max_size=256), st.data())
def test_bit_flip_in_payload_raises(tmp_path_factory, payload, data):
    path = tmp_path_factory.mktemp("binio") / "c.bin"
    blob, start = _container(path, payload)
    bit = data.draw(st.integers(0, 8 * len(payload) - 1))
    flipped = bytearray(blob)
    flipped[start + bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(flipped))
    with pytest.raises(FormatError, match="checksum"):
        read_container(path, GRAPH_MAGIC)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=256), st.data())
def test_truncated_container_raises(tmp_path_factory, payload, data):
    path = tmp_path_factory.mktemp("binio") / "c.bin"
    blob, start = _container(path, payload)
    cut = data.draw(st.integers(0, len(blob) - 1))
    path.write_bytes(blob[:cut])
    if cut == start + 4 and blob[start:cut] == b"\0\0\0\0":
        # The format stores no payload length: the magic, the header and 4 zero
        # bytes are a well-formed container of an empty payload, whose CRC-32 is
        # 0. Readers reject it by the payload size their header implies
        # (test_truncated_graph_file_rejected).
        return
    with pytest.raises(FormatError):
        read_container(path, GRAPH_MAGIC)


def _write_raw(path, magic, head: bytes, payload: bytes):
    """A container with the given header bytes, which write_container would not write."""
    path.write_bytes(magic + b"\n" + struct.pack("<I", len(head)) + head + payload
                     + struct.pack("<I", zlib.crc32(payload)))


def test_header_not_an_object_raises(tmp_path):
    path = tmp_path / "c.bin"
    _write_raw(path, GRAPH_MAGIC, b'["version", 1]', b"abcd")
    with pytest.raises(FormatError, match=f"{path}: header is not a JSON object"):
        read_container(path, GRAPH_MAGIC)


def _write_embeddings(path):
    save_embeddings(np.arange(6.0).reshape(3, 2), path, vocab_hash="cafe")


def _write_text_features(path):
    save_text_features(np.ones((3, 4)), np.ones(4), path)


def _write_fused(path):
    words = np.ones((3, 4))
    fused = fuse(words, words.mean(axis=0), np.ones((3, 2)), np.eye(2))
    save_fused(fused, path, caption_id="9", text_dim=4, visual_dim=2)


def _write_graph(path):
    corpus = random_scene_graphs(3, n_graphs=4)
    serialize_graph(compute_weights(accumulate_counts(corpus, build_vocabulary(corpus))), path)


# reader name -> (writer, reader, magic, header fields it reads, payload item bytes)
READERS = {
    "embeddings": (_write_embeddings, load_embeddings, EMBED_MAGIC, ("n", "h"), 4),
    "text_features": (_write_text_features, lambda p: load_text_features(p, expect_dim=4),
                      EMBED_MAGIC, ("l", "d"), 4),
    "fused": (_write_fused, load_fused, FUSED_MAGIC, ("l", "d", "v", "n_obj"), 4),
    "graph": (_write_graph, deserialize_graph, GRAPH_MAGIC, ("n", "nnz"),
              EDGE_DTYPE.itemsize),
}
_DROP = object()
HEADER_EDITS = {
    "dropped": lambda v: _DROP,
    "float": float,
    "negative": lambda v: -1,
    "true": lambda v: True,
    "string": str,
    "list": lambda v: [v],
}


def _rewrite(path, magic, edit):
    """Apply edit(header, payload) -> (header, payload), keeping a valid checksum."""
    header, payload = read_container(path, magic)
    write_container(path, magic, *edit(header, payload))


def _edit_field(name, change):
    def edit(header, payload):
        value = change(header.pop(name))
        if value is not _DROP:
            header[name] = value
        return header, payload
    return edit


def _plant_nan(header, payload, item):
    if item == EDGE_DTYPE.itemsize:  # a graph: the first record's weight
        records = np.frombuffer(payload, dtype=EDGE_DTYPE).copy()
        records["weight"][0] = np.nan
        return header, records.tobytes()
    values = np.frombuffer(payload, dtype=f"<f{item}").copy()
    values[0] = np.nan
    return header, values.tobytes()


def _reader_cases():
    for reader, (_, _, _, fields, _) in READERS.items():
        for field in fields:
            for edit in HEADER_EDITS:
                yield pytest.param(reader, field, edit, id=f"{reader}-{field}-{edit}")
        for corruption in ("header_list", "payload_cut", "payload_nan"):
            yield pytest.param(reader, None, corruption, id=f"{reader}-{corruption}")


@pytest.mark.parametrize("reader, field, edit", list(_reader_cases()))
def test_reader_rejects_malformed_file_naming_path(tmp_path, reader, field, edit):
    write, read, magic, _, item = READERS[reader]
    path = tmp_path / "artifact.bin"
    write(path)
    read(path)  # the file is well-formed before the edit
    if field is not None:
        _rewrite(path, magic, _edit_field(field, HEADER_EDITS[edit]))
    elif edit == "header_list":
        _write_raw(path, magic, b'["version", 1]', read_container(path, magic)[1])
    elif edit == "payload_cut":
        _rewrite(path, magic, lambda header, payload: (header, payload[:-item]))
    else:
        _rewrite(path, magic, lambda header, payload: _plant_nan(header, payload, item))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read(path)


def _set_vocab(key, value):
    def edit(header, payload):
        if key is None:
            header["vocab"] = value
        else:
            header["vocab"][key] = value(header["vocab"]) if callable(value) else value
        return header, payload
    return edit


def _first_of_kind(vocab, kind):
    return str(vocab["kinds"].index(kind))


@pytest.mark.parametrize("edit", [
    _set_vocab(None, [1, 2]),
    _set_vocab("words", 3),
    _set_vocab("words", lambda v: v["words"][:-1]),
    _set_vocab("words", lambda v: v["words"][:-1] + [7]),
    _set_vocab("kinds", lambda v: v["kinds"] + ["object"]),
    _set_vocab("kinds", None),
    _set_vocab("super", [1]),
    _set_vocab("super", lambda v: {**v["super"], "x": "animal"}),
    _set_vocab("super", lambda v: {**v["super"], str(len(v["words"])): "animal"}),
    _set_vocab("super", lambda v: {**v["super"], _first_of_kind(v, "relation"): "animal"}),
    _set_vocab("super", lambda v: {**v["super"], _first_of_kind(v, "object"): 5}),
    lambda h, p: ({k: v for k, v in h.items() if k != "kind"}, p),
], ids=["vocab_list", "words_int", "words_short", "word_not_string", "kinds_long",
        "kinds_missing", "super_list", "super_key_not_id", "super_id_out_of_range",
        "super_of_relation", "super_not_string", "kind_missing"])
def test_graph_header_vocabulary_checked(tmp_path, edit):
    path = tmp_path / "basic.victrg"
    _write_graph(path)
    _rewrite(path, GRAPH_MAGIC, edit)
    with pytest.raises(ValueError, match=re.escape(f"{path}: header")):
        deserialize_graph(path)
