import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from victr.binio import GRAPH_MAGIC, FormatError, read_container, write_container


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
