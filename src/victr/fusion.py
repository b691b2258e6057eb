"""Attention fusion of text features with per-object visual semantic vectors.

A caption's text features are an (L, D) word matrix and a (D,) sentence
vector. Word features attend over the scene's visual semantic rows (queries
are the words @ W; keys and values are the visual rows). Each VICTR word is
its feature concatenated with its attended visual vector, (L, D + V), and
the VICTR sentence is the sentence feature concatenated with the sum of
those vectors, (D + V,). The built-in features and their queries are
evaluated once per distinct token and gathered per block. ``fuse`` takes
a block of captions at once; each number rounds as it does for its caption
alone, so no output depends on how the captions are blocked.
"""

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .binio import (EMBED_MAGIC, FUSED_MAGIC, header_ints, pack, read_container, unpack,
                    write_container)


@dataclass
class FusedRepresentation:
    """Captions one after another (load_fused reads one): caption c has lengths[c] word rows,
    n_obj[c] objects, sentence row c, and its (l, n_obj) attention as the next l * n_obj values."""
    word_repr: np.ndarray  # (L, D + V)
    sentence_repr: np.ndarray  # (C, D + V)
    attention: np.ndarray  # (sum of l * n_obj,)
    lengths: np.ndarray  # (C,)
    n_obj: np.ndarray  # (C,)


def init_fusion_parameters(text_dim: int, visual_dim: int, seed: int) -> np.ndarray:
    """The default fusion weight matrix W, (text_dim, visual_dim), Glorot-uniform."""
    rng = np.random.default_rng(seed)
    lim = np.sqrt(6.0 / (text_dim + visual_dim))
    return rng.uniform(-lim, lim, size=(text_dim, visual_dim))


def fuse(words: np.ndarray, sentences, queries: np.ndarray, vs_rows: list,
         lengths: np.ndarray) -> FusedRepresentation:
    """Fuse captions, one after another, with their visual rows.

    Caption c owns the next lengths[c] >= 1 rows of words (L, D) and of
    queries (their rows of words @ W), vs_rows[c], its (n, V) visual rows,
    and row c of sentences (C, D), or its mean word if sentences is None.
    Its attention is q_c @ vs_c.T, row-softmaxed together with the rows of
    the captions with as many objects (so each row rounds as alone); its
    attended rows are attention @ vs_c, zero with no objects.
    """
    v, n_list = queries.shape[1], [len(vs) for vs in vs_rows]
    if any(vs.shape[1] != v for vs in vs_rows) or not len(queries) == len(words) == lengths.sum():
        raise ValueError(f"visual rows or {queries.shape} queries do not fit {len(words)} words")
    spans = [(end - n, end) for end, n in zip(lengths.cumsum().tolist(), lengths.tolist())]
    att = [queries[a:b] @ vs.T for (a, b), vs in zip(spans, vs_rows)]  # scores, then weights
    for n in set(n_list) - {0}:
        members = [c for c, m in enumerate(n_list) if m == n]
        e = np.concatenate([att[c] for c in members])
        e = np.exp(e - e.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
        for c, end in zip(members, np.cumsum([len(att[c]) for c in members]).tolist()):
            att[c] = e[end - len(att[c]):end]
    attended = np.empty((len(words), v))
    for (a, b), att_c, vs in zip(spans, att, vs_rows):
        np.matmul(att_c, vs, out=attended[a:b])
    # caption by caption, so each sum rounds as alone; np.add.reduceat adds in another order
    sums = lambda rows: np.array([np.add.reduce(rows[a:b]) for a, b in spans])  # noqa: E731
    if sentences is None:
        sentences = sums(words) / lengths[:, None]
    return FusedRepresentation(np.concatenate([words, attended], axis=1),
                               np.concatenate([sentences, sums(attended)], axis=1),
                               np.concatenate([a.ravel() for a in att]), lengths, np.array(n_list))


def builtin_text_features(tokens, seed: int, dim: int) -> np.ndarray:
    """Deterministic stand-in encoder: per-token seeded unit vectors, (L, dim).

    Same tokens and seed always produce identical rows (hash-derived, not
    process-dependent), so the fuse stage evaluates it once per distinct
    token; a caption's sentence feature is the mean of its word rows.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    tokens = list(tokens)
    if not tokens:
        raise ValueError("builtin_text_features: empty token list")
    rows = np.zeros((len(tokens), dim))
    for i, tok in enumerate(tokens):
        digest = hashlib.sha256(f"{seed}\x00{tok}".encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        v = rng.standard_normal(dim)
        rows[i] = v / np.linalg.norm(v)
    return rows


def distinct_tokens(tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of tokens in first-seen order, and each token's position among them."""
    values, first, inverse = np.unique(tokens, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return values[order], np.argsort(order)[inverse]


def save_text_features(words: np.ndarray, sentence: np.ndarray, path) -> None:
    """Write the per-caption file that fuse --text-features reads; its only writer."""
    if words.ndim != 2 or words.shape[0] < 1 or sentence.shape != (words.shape[1],):
        raise ValueError(
            f"text features must be (L, D) words with L >= 1 and a (D,) sentence, "
            f"got {words.shape} and {sentence.shape}"
        )
    header = {"kind": "text_features", "l": words.shape[0], "d": words.shape[1]}
    write_container(path, EMBED_MAGIC, header, pack((words, sentence), "<f4"))


def load_text_features(path, expect_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The (L, D) float64 words and (D,) sentence of a text-features file."""
    header, payload = read_container(path, EMBED_MAGIC)
    length, dim = header_ints(header, path, "l", "d")
    if length < 1:
        raise ValueError(f"{path}: text features need l >= 1 words, got l = {length!r}")
    if dim != expect_dim:
        raise ValueError(f"{path}: file width {dim} != configured width {expect_dim}")
    return tuple(unpack(payload, path, "<f4", (length, dim), (dim,)))


def save_fused(fused: FusedRepresentation, directory, caption_ids, text_dim: int,
               visual_dim: int) -> None:
    """Write each caption of the block to directory/<caption id>.victrf: the
    block is cast to float32 once, then each payload is joined from slices."""
    att, words, sentences = (a.astype("<f4") for a in (
        fused.attention, fused.word_repr, fused.sentence_repr))
    lengths, n_obj = fused.lengths.tolist(), fused.n_obj.tolist()
    ends = np.cumsum(fused.lengths * fused.n_obj).tolist(), np.cumsum(lengths).tolist()
    for c, (cid, a, r, l, n) in enumerate(zip(caption_ids, *ends, lengths, n_obj)):
        write_container(os.path.join(directory, f"{cid}.victrf"), FUSED_MAGIC,
                        {"caption_id": cid, "l": l, "d": text_dim, "v": visual_dim, "n_obj": n},
                        b"".join((att[a - l * n:a], words[r - l:r], sentences[c])))


def load_fused(path) -> tuple[FusedRepresentation, dict]:
    header, payload = read_container(path, FUSED_MAGIC)
    length, d, v, n_obj = header_ints(header, path, "l", "d", "v", "n_obj")
    attention, word_repr, sentence_repr = unpack(
        payload, path, "<f4", (length * n_obj,), (length, d + v), (1, d + v))
    return FusedRepresentation(word_repr, sentence_repr, attention, np.array([length]),
                               np.array([n_obj])), header
