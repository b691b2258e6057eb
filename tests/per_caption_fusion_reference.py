"""The fuse stage as it ran caption by caption, kept as the reference the
block version (``fusion.fuse`` over many captions) is compared against.

``attend``, ``fuse`` and the payload of ``save_fused`` are verbatim but for
their names (the ``per_caption_`` prefix) and line breaks; the loop of
``per_caption_fused_files`` is the stage's loop of the time, less its file
checks, returning each fused file's bytes where it wrote them.
"""

import json
import struct
import zlib

import numpy as np

from victr.binio import FUSED_MAGIC, VERSION, pack
from victr.fusion import builtin_text_features


def per_caption_attend(queries: np.ndarray, vs_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    length, v = queries.shape
    if vs_rows.size == 0:
        return np.zeros((length, v)), np.zeros((length, 0))
    if vs_rows.ndim != 2 or vs_rows.shape[1] != v:
        raise ValueError(f"visual rows width {vs_rows.shape} does not match W width {v}")
    scores = queries @ vs_rows.T
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attention = e / e.sum(axis=1, keepdims=True)
    return attention @ vs_rows, attention


def per_caption_fuse(words, sentence, queries, vs_rows):
    """(word rows, sentence row, attention) of one caption."""
    attended, attention = per_caption_attend(queries, vs_rows)
    return (np.concatenate([words, attended], axis=1),
            np.concatenate([sentence, attended.sum(axis=0)]), attention)


def per_caption_distinct_tokens(token_lists):
    index: dict[str, int] = {}
    ids = [np.array([index.setdefault(t, len(index)) for t in tokens], dtype=np.intp)
           for tokens in token_lists]
    return list(index), ids


def _container(magic: bytes, header: dict, payload: bytes) -> bytes:
    head = json.dumps({**header, "version": VERSION}, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return (magic + b"\n" + struct.pack("<I", len(head)) + head + payload
            + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def per_caption_fused_files(caption_ids, token_lists, vs_rows, w, seed, text_dim,
                            features=None) -> dict[str, bytes]:
    """Caption id -> the bytes of its fused file. token_lists holds each
    caption's token surfaces, vs_rows its E_vs rows as read (float64), and
    features, if given, its (words, sentence) as read from its text-features file."""
    visual_dim = w.shape[1]
    if features is None:
        tokens, token_rows = per_caption_distinct_tokens(token_lists)
        table = builtin_text_features(tokens, seed=seed, dim=text_dim)
        queries = table @ w
    files = {}
    for i, cid in enumerate(caption_ids):
        if features is not None:
            words, sentence = features[i]
            query = words @ w
        else:
            words, query = table[token_rows[i]], queries[token_rows[i]]
            sentence = words.mean(axis=0)
        word_repr, sentence_repr, attention = per_caption_fuse(words, sentence, query, vs_rows[i])
        length, n_obj = attention.shape
        header = {"caption_id": cid, "l": length, "d": text_dim, "v": visual_dim, "n_obj": n_obj}
        files[cid] = _container(FUSED_MAGIC, header,
                                pack((attention, word_repr, sentence_repr), "<f4"))
    return files
