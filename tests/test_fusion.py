import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from victr.cli import cmd_fuse
from victr.config import PipelineConfig
from victr.fusion import (
    FusedRepresentation,
    attend,
    builtin_text_features,
    distinct_tokens,
    fuse,
    init_fusion_parameters,
    load_fused,
    load_text_features,
    save_fused,
    save_text_features,
)
from victr.gcn import save_embeddings


def _text(l=3, d=4, seed=0):
    """(L, D) words and their mean as the (D,) sentence."""
    rng = np.random.default_rng(seed)
    words = rng.standard_normal((l, d))
    return words, words.mean(axis=0)


# The per-caption attention the distinct-token path replaced, kept verbatim
# as the reference it must reproduce: built-in features evaluated per caption,
# queries as words @ W per caption.

@dataclass
class ReferenceParameters:
    w: np.ndarray  # (text_dim, visual_dim)


def reference_row_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def reference_attend(words: np.ndarray, vs_rows: np.ndarray,
                     params: ReferenceParameters) -> tuple[np.ndarray, np.ndarray]:
    length, d = words.shape
    if params.w.shape[0] != d:
        raise ValueError(f"W maps width {params.w.shape[0]}, text width is {d}")
    v = params.w.shape[1]
    if vs_rows.size == 0:
        return np.zeros((length, v)), np.zeros((length, 0))
    if vs_rows.ndim != 2 or vs_rows.shape[1] != v:
        raise ValueError(f"visual rows width {vs_rows.shape} does not match W width {v}")
    scores = (words @ params.w) @ vs_rows.T
    attention = reference_row_softmax(scores)
    return attention @ vs_rows, attention


def reference_fuse(words: np.ndarray, vs_rows: np.ndarray,
                   params: ReferenceParameters) -> FusedRepresentation:
    """Sentence feature = mean word, as the built-in path defines it."""
    attended, attention = reference_attend(words, vs_rows, params)
    return FusedRepresentation(
        word_repr=np.concatenate([words, attended], axis=1),
        sentence_repr=np.concatenate([words.mean(axis=0), attended.sum(axis=0)]),
        attention=attention,
    )


def distinct_token_fuse(captions, w, seed, dim):
    """The fuse stage's built-in path: features and queries once per distinct token."""
    tokens, ids = distinct_tokens(tokens for tokens, _ in captions)
    table = builtin_text_features(tokens, seed=seed, dim=dim)
    queries = table @ w
    return [fuse(table[rows], table[rows].mean(axis=0), queries[rows], vs_rows)
            for rows, (_, vs_rows) in zip(ids, captions)]


@st.composite
def _captions(draw):
    """Captions over a small alphabet, so tokens repeat within and across
    captions, each with its visual rows; some captions have no objects."""
    dim = draw(st.integers(1, 12))
    visual = draw(st.integers(1, 10))
    alphabet = [f"w{i}" for i in range(draw(st.integers(1, 8)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    captions = [
        (draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=9)),
         rng.standard_normal((draw(st.integers(0, 4)), visual)))
        for _ in range(draw(st.integers(1, 6)))
    ]
    return captions, dim, visual, rng


def _assert_fused_equal(got, want):
    assert np.array_equal(got.word_repr, want.word_repr)
    assert np.array_equal(got.sentence_repr, want.sentence_repr)
    assert np.array_equal(got.attention, want.attention)


@settings(max_examples=200, deadline=None)
@given(_captions(), st.integers(0, 5))
def test_distinct_token_path_equals_per_caption_path(drawn, seed):
    # BLAS picks its kernel by matrix size, so F @ W and F[ids] @ W may round
    # differently in the last bit. A W with one +-2**k per column makes every
    # query an exact product, so any difference left is a wrong row or mean.
    captions, dim, visual, rng = drawn
    w = np.zeros((dim, visual))
    w[rng.integers(0, dim, visual), np.arange(visual)] = (
        rng.choice([-1.0, 1.0], visual) * 2.0 ** rng.integers(-2, 3, visual))
    got = distinct_token_fuse(captions, w, seed, dim)
    for (tokens, vs_rows), fused in zip(captions, got):
        words = builtin_text_features(tokens, seed=seed, dim=dim)
        _assert_fused_equal(fused, reference_fuse(words, vs_rows, ReferenceParameters(w=w)))


@settings(max_examples=100, deadline=None)
@given(_captions(), st.integers(0, 5))
def test_distinct_token_path_matches_per_caption_path_any_w(drawn, seed):
    captions, dim, visual, rng = drawn
    w = init_fusion_parameters(dim, visual, seed=int(rng.integers(100)))
    got = distinct_token_fuse(captions, w, seed, dim)
    for (tokens, vs_rows), fused in zip(captions, got):
        words = builtin_text_features(tokens, seed=seed, dim=dim)
        want = reference_fuse(words, vs_rows, ReferenceParameters(w=w))
        assert np.array_equal(fused.word_repr[:, :dim], want.word_repr[:, :dim])
        assert np.array_equal(fused.sentence_repr[:dim], want.sentence_repr[:dim])
        for a, b in ((fused.word_repr, want.word_repr), (fused.sentence_repr, want.sentence_repr),
                     (fused.attention, want.attention)):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


def test_distinct_tokens_first_seen_order():
    tokens, ids = distinct_tokens([["a", "dog", "a"], [], ["cat", "dog"]])
    assert tokens == ["a", "dog", "cat"]
    assert [r.tolist() for r in ids] == [[0, 1, 0], [], [2, 1]]


def test_text_features_sentence_defaults_to_mean_word(tmp_path):
    # the fuse stage's built-in features: a caption's sentence is its mean word row
    (tmp_path / "tokens.json").write_text(
        json.dumps({"captions": [{"id": "5", "tokens": ["a", "dog", "a"]}]}), encoding="utf-8")
    (tmp_path / "evs").mkdir()
    save_embeddings(np.random.default_rng(26).standard_normal((2, 15)),
                    tmp_path / "evs" / "5.victre", vocab_hash="h")
    # E_vs rows are 2(B + 6P) + B = 15 wide
    cfg = PipelineConfig(out_dir=str(tmp_path), text_width=4, seed=3, basic_width=1,
                         positional_width=1)
    assert cmd_fuse(cfg, None, None) == 0
    fused, _ = load_fused(tmp_path / "fused" / "5.victrf")
    words = builtin_text_features(["a", "dog", "a"], seed=3, dim=4)
    assert np.array_equal(fused.word_repr[:, :4], words.astype(np.float32))
    assert np.array_equal(fused.sentence_repr[:4], words.mean(axis=0).astype(np.float32))


def test_attend_singleton_object():
    words, _ = _text(l=4, d=3, seed=1)
    vs = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
    w = init_fusion_parameters(3, 5, seed=2)
    attended, attention = attend(words @ w, vs)
    assert attention.shape == (4, 1)
    assert np.allclose(attention, 1.0)
    assert np.allclose(attended, np.tile(vs, (4, 1)))


def test_attend_zero_weight_gives_uniform_attention():
    words, _ = _text(l=2, d=3, seed=3)
    rng = np.random.default_rng(4)
    vs = rng.standard_normal((5, 6))
    attended, attention = attend(words @ np.zeros((3, 6)), vs)
    assert np.allclose(attention, 1.0 / 5)
    assert np.allclose(attended, np.tile(vs.mean(axis=0), (2, 1)))


def test_attend_matches_hand_oracle():
    # L=2, N_obj=2, tiny numbers worked through softmax by hand
    words = np.array([[1.0, 0.0], [0.0, 2.0]])
    w = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    vs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    q = words @ w  # [[1,0,1],[0,2,0]]
    attended, attention = attend(q, vs)
    scores = q @ vs.T  # [[1,1],[0,2]]
    for row in range(2):
        exps = [math.exp(v) for v in scores[row]]
        total = sum(exps)
        for col in range(2):
            assert attention[row, col] == pytest.approx(exps[col] / total, abs=1e-10)
    want = attention @ vs
    assert np.allclose(attended, want, atol=1e-10)


def test_attend_no_objects_degenerate():
    words, _ = _text(l=3, d=4, seed=5)
    w = init_fusion_parameters(4, 7, seed=6)
    attended, attention = attend(words @ w, np.zeros((0, 7)))
    assert attended.shape == (3, 7) and not attended.any()
    assert attention.shape == (3, 0)


def test_attend_width_mismatch():
    words, sentence = _text(l=2, d=3, seed=7)
    w = init_fusion_parameters(3, 5, seed=8)
    with pytest.raises(ValueError, match="width"):
        attend(words @ w, np.zeros((2, 4)))
    # query rows of another caption: one per word is required
    other, _ = _text(l=3, d=3, seed=9)
    with pytest.raises(ValueError, match="dimension 0"):
        fuse(words, sentence, other @ w, np.ones((2, 5)))


def test_victr_word_width():
    words, sentence = _text(l=5, d=256, seed=10)
    out = fuse(words, sentence, np.zeros((5, 1200)), np.zeros((0, 1200))).word_repr
    assert out.shape == (5, 1456)
    assert np.array_equal(out[:, :256], words)


def test_victr_word_zero_visual_padding():
    words, sentence = _text(l=2, d=3, seed=11)
    out = fuse(words, sentence, np.zeros((2, 6)), np.zeros((0, 6))).word_repr
    assert np.array_equal(out[:, 3:], np.zeros((2, 6)))


def test_victr_word_single_token():
    words, sentence = _text(l=1, d=3, seed=12)
    assert fuse(words, sentence, np.zeros((1, 6)), np.zeros((0, 6))).word_repr.shape == (1, 9)


def test_victr_word_row_mismatch():
    words, sentence = _text(l=2, d=3)
    with pytest.raises(ValueError, match="dimension 0"):
        fuse(words, sentence, np.zeros((3, 6)), np.zeros((0, 6)))


def test_victr_sentence_single_row_sum():
    # one object: every word attends to it alone, so the attended sum is its row
    words, sentence = _text(l=1, d=3, seed=13)
    vs = np.array([[1.0, 2.0, 3.0]])
    out = fuse(words, sentence, np.ones((1, 3)), vs).sentence_repr
    assert np.array_equal(out, np.concatenate([sentence, vs[0]]))


def test_victr_sentence_zero_visual():
    words, sentence = _text(l=4, d=3, seed=14)
    out = fuse(words, sentence, np.zeros((4, 6)), np.zeros((0, 6))).sentence_repr
    assert np.array_equal(out, np.concatenate([sentence, np.zeros(6)]))


def test_victr_sentence_hand_sum():
    # three words each attend to the one object [2, 0]: the sum is [6, 0]
    words, sentence = _text(l=3, d=2, seed=15)
    out = fuse(words, sentence, np.ones((3, 2)), np.array([[2.0, 0.0]])).sentence_repr
    assert np.allclose(out[2:], [6.0, 0.0])


def test_text_features_file_round_trip(tmp_path):
    words, sentence = _text(l=12, d=256, seed=16)
    path = tmp_path / "t.victre"
    save_text_features(words, sentence, path)
    got_words, got_sentence = load_text_features(path, expect_dim=256)
    assert got_words.shape == (12, 256) and got_sentence.shape == (256,)
    assert np.allclose(got_words, words, atol=1e-6)
    assert np.allclose(got_sentence, sentence, atol=1e-6)


@pytest.mark.parametrize("words, sentence", [
    (np.zeros((0, 4)), np.zeros(4)),  # no words
    (np.zeros(4), np.zeros(4)),  # words not a matrix
    (np.zeros((3, 4)), np.zeros(3)),  # sentence width
])
def test_save_text_features_rejects_malformed_shapes(tmp_path, words, sentence):
    path = tmp_path / "t.victre"
    with pytest.raises(ValueError, match="text features must be"):
        save_text_features(words, sentence, path)
    assert not path.exists()


def test_text_features_truncated(tmp_path):
    words, sentence = _text(l=3, d=4, seed=17)
    path = tmp_path / "t.victre"
    save_text_features(words, sentence, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-12])  # drop payload bytes (and the crc)
    with pytest.raises(ValueError):
        load_text_features(path, expect_dim=4)


def test_text_features_width_mismatch_names_both(tmp_path):
    words, sentence = _text(l=3, d=4, seed=18)
    path = tmp_path / "t.victre"
    save_text_features(words, sentence, path)
    with pytest.raises(ValueError, match=r"4.*256|256.*4"):
        load_text_features(path, expect_dim=256)


def test_builtin_features_deterministic():
    a = builtin_text_features(["a", "dog", "runs"], seed=9, dim=16)
    b = builtin_text_features(["a", "dog", "runs"], seed=9, dim=16)
    assert np.array_equal(a, b)
    c = builtin_text_features(["a", "dog", "runs"], seed=10, dim=16)
    assert not np.array_equal(a, c)


def test_builtin_features_single_token_sentence():
    words = builtin_text_features(["dog"], seed=1, dim=8)
    assert words.shape == (1, 8)
    assert np.array_equal(words.mean(axis=0), words[0])


def test_builtin_features_unit_norm():
    words = builtin_text_features([f"w{i}" for i in range(20)], seed=2, dim=32)
    norms = np.linalg.norm(words, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)


def test_attention_rows_sum_to_one_randomized():
    rng = np.random.default_rng(20)
    for _ in range(50):
        l, d, n, v = (int(rng.integers(1, 6)) for _ in range(4))
        v += 1
        words = rng.standard_normal((l, d))
        vs = rng.standard_normal((n, v))
        _, attention = attend(words @ rng.standard_normal((d, v)), vs)
        assert np.allclose(attention.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(attention > 0) and np.all(attention < 1 + 1e-12)


def test_softmax_shift_invariance():
    words, _ = _text(l=2, d=3, seed=21)
    rng = np.random.default_rng(22)
    vs = rng.standard_normal((4, 5))
    w = rng.standard_normal((3, 5))
    _, attention = attend(words @ w, vs)
    # shifting every score in a row is equivalent to translating all keys
    # along a direction orthogonal to nothing; emulate by direct computation
    scores = (words @ w) @ vs.T + 123.456
    shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
    shifted /= shifted.sum(axis=1, keepdims=True)
    assert np.allclose(attention, shifted, atol=1e-9)


def test_argmax_object_invariant_under_word_scaling():
    rng = np.random.default_rng(23)
    for _ in range(20):
        words = rng.standard_normal((4, 6))
        vs = rng.standard_normal((5, 7))
        w = rng.standard_normal((6, 7))
        _, att = attend(words @ w, vs)
        for c in (0.5, 2.0, 10.0):
            _, att_c = attend((c * words) @ w, vs)
            assert np.array_equal(att.argmax(axis=1), att_c.argmax(axis=1))


def test_fused_file_round_trip(tmp_path):
    words, sentence = _text(l=3, d=4, seed=24)
    rng = np.random.default_rng(25)
    vs = rng.standard_normal((2, 6))
    w = rng.standard_normal((4, 6))
    fused = fuse(words, sentence, words @ w, vs)
    path = tmp_path / "f.victrf"
    save_fused(fused, path, caption_id="77", text_dim=4, visual_dim=6)
    loaded, header = load_fused(path)
    assert header["caption_id"] == "77"
    assert loaded.word_repr.shape == (3, 10)
    assert np.allclose(loaded.attention, fused.attention, atol=1e-6)
    assert np.allclose(loaded.sentence_repr, fused.sentence_repr, atol=1e-5)
