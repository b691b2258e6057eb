"""Attention fusion of text features with per-object visual semantic vectors.

A caption's text features are an (L, D) word matrix and a (D,) sentence
vector. Word features attend over the scene's visual semantic rows (queries
are the words @ W; keys and values are the visual rows). Each VICTR word is
its feature concatenated with its attended visual vector, (L, D + V), and
the VICTR sentence is the sentence feature concatenated with the sum of
those vectors, (D + V,). The built-in features and their queries are
evaluated once per distinct token and gathered per caption.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .binio import (EMBED_MAGIC, FUSED_MAGIC, header_ints, pack, read_container, unpack,
                    write_container)


@dataclass
class FusedRepresentation:
    word_repr: np.ndarray  # (L, D + V)
    sentence_repr: np.ndarray  # (D + V,)
    attention: np.ndarray  # (L, n_objects)


def init_fusion_parameters(text_dim: int, visual_dim: int, seed: int) -> np.ndarray:
    """The default fusion weight matrix W, (text_dim, visual_dim), Glorot-uniform."""
    rng = np.random.default_rng(seed)
    lim = np.sqrt(6.0 / (text_dim + visual_dim))
    return rng.uniform(-lim, lim, size=(text_dim, visual_dim))


def attend(queries: np.ndarray, vs_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Attention-pool the visual rows per word.

    queries are the words' rows of words @ W. scores = queries @ vs_rows.T,
    row-softmaxed into weights, then weights @ vs_rows. With no objects the
    pooled matrix is zero and the attention matrix is empty.
    """
    length, v = queries.shape
    if vs_rows.size == 0:
        return np.zeros((length, v)), np.zeros((length, 0))
    if vs_rows.ndim != 2 or vs_rows.shape[1] != v:
        raise ValueError(f"visual rows width {vs_rows.shape} does not match W width {v}")
    scores = queries @ vs_rows.T
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attention = e / e.sum(axis=1, keepdims=True)
    return attention @ vs_rows, attention


def fuse(words: np.ndarray, sentence: np.ndarray, queries: np.ndarray,
         vs_rows: np.ndarray) -> FusedRepresentation:
    """Fuse a caption's (L, D) words and (D,) sentence with its visual rows."""
    attended, attention = attend(queries, vs_rows)
    return FusedRepresentation(
        word_repr=np.concatenate([words, attended], axis=1),
        sentence_repr=np.concatenate([sentence, attended.sum(axis=0)]),
        attention=attention,
    )


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


def distinct_tokens(token_lists) -> tuple[list[str], list[np.ndarray]]:
    """The distinct tokens in first-seen order, and per list its tokens' rows in that order."""
    index: dict[str, int] = {}
    ids = [np.array([index.setdefault(t, len(index)) for t in tokens], dtype=np.intp)
           for tokens in token_lists]
    return list(index), ids


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


def save_fused(fused: FusedRepresentation, path, caption_id: str,
               text_dim: int, visual_dim: int) -> None:
    length, n_obj = fused.attention.shape
    header = {
        "caption_id": caption_id,
        "l": length,
        "d": text_dim,
        "v": visual_dim,
        "n_obj": n_obj,
    }
    write_container(path, FUSED_MAGIC, header,
                    pack((fused.attention, fused.word_repr, fused.sentence_repr), "<f4"))


def load_fused(path) -> tuple[FusedRepresentation, dict]:
    header, payload = read_container(path, FUSED_MAGIC)
    length, d, v, n_obj = header_ints(header, path, "l", "d", "v", "n_obj")
    attention, word_repr, sentence_repr = unpack(
        payload, path, "<f4", (length, n_obj), (length, d + v), (d + v,))
    return (
        FusedRepresentation(word_repr=word_repr, sentence_repr=sentence_repr,
                            attention=attention),
        header,
    )
