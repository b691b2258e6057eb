"""The corpus file (``corpus.victrs``) and the stages' work over its columns.

Graph building and scene composition read the corpus as int32 columns; the
versions that walked ``SceneGraph`` tuples (``tuple_walk_reference``) must
give the same vocabulary, byte-identical edge records and byte-identical
E_vs rows. The container round-trips any words, and the reader refuses
every cut of the file and every flipped bit.
"""

import re

import numpy as np
import pytest
from helpers import box_rows, corpus_of, random_scene_graphs, unpack_scene_graph, unpack_tokens
from hypothesis import given, settings
from hypothesis import strategies as st
from tuple_walk_reference import (
    tuple_walk_accumulate_counts,
    tuple_walk_build_positional_graphs,
    tuple_walk_build_vocabulary,
    tuple_walk_scene_visual_semantics,
)

from victr.embedding import compose_tables, scene_visual_semantics
from victr.geometry import GEOMETRIC_RELATIONS
from victr.graphstore import (
    accumulate_counts,
    build_positional_graphs,
    build_vocabulary,
    compute_weights,
)
from victr.ingest import caption_id_fault
from victr.sceneparse import SceneGraph, load_corpus, pack_corpus, save_corpus


@st.composite
def _graphs_with_boxes(draw):
    graphs = random_scene_graphs(draw(st.integers(0, 10**6)), n_graphs=draw(st.integers(1, 8)))
    # a small grid, so touching, nested, equal and same-centre boxes all occur
    coord, side = st.integers(0, 40).map(float), st.integers(1, 20).map(float)
    box = st.tuples(coord, coord, side, side)
    matches = [draw(st.dictionaries(st.sampled_from([oid for oid, _, _ in sg.objects]), box))
               for sg in graphs]
    return graphs, matches


@settings(max_examples=100, deadline=None)
@given(_graphs_with_boxes())
def test_graph_building_equals_tuple_walk(case):
    graphs, matches = case
    corpus = corpus_of(graphs)
    want, got = tuple_walk_build_vocabulary(graphs), build_vocabulary(corpus)
    assert got.nodes == want.nodes
    assert got.object_super_class == want.object_super_class
    want_graphs = {"basic": compute_weights(tuple_walk_accumulate_counts(graphs, want)),
                   **tuple_walk_build_positional_graphs(graphs, want, matches)}
    got_graphs = {"basic": compute_weights(accumulate_counts(corpus, got)),
                  **build_positional_graphs(corpus, got, box_rows(graphs, matches))}
    for name in ("basic",) + GEOMETRIC_RELATIONS:
        assert got_graphs[name].edges.tobytes() == want_graphs[name].edges.tobytes(), name


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_scene_composition_equals_tuple_walk(seed):
    rng = np.random.default_rng(seed)
    graphs = random_scene_graphs(seed, n_graphs=12)
    vocab = build_vocabulary(corpus_of(graphs))
    b, p = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    tables = compose_tables(vocab, rng.standard_normal((len(vocab), b)),
                            {name: rng.standard_normal((len(vocab), p))
                             for name in GEOMETRIC_RELATIONS})
    corpus = corpus_of(graphs)
    want = tuple_walk_scene_visual_semantics(graphs, tables).rows
    assert scene_visual_semantics(corpus, tables).rows.tobytes() == want.tobytes()
    lo, hi = sorted(rng.choice(len(graphs) + 1, size=2, replace=False).tolist())
    part = scene_visual_semantics(corpus.select(lo, hi), tables).rows
    want = tuple_walk_scene_visual_semantics(graphs[lo:hi], tables).rows
    assert part.tobytes() == want.tobytes()


# words the container must carry unchanged: quotes, backslashes, control
# characters, NUL, non-ASCII, the empty word
WORDS = st.one_of(st.sampled_from(['"', "it's", "back\\slash", "tab\there", "nul\x00", "\x7f",
                                   "line\nbreak", "café", "日本", "😀", ""]),
                  st.text(max_size=5))
CAPTION_IDS = st.text(min_size=1, max_size=8).filter(lambda cid: caption_id_fault(cid) is None)


@st.composite
def _captions(draw):
    """Scene graphs, one super-class per object word, and their token lists."""
    super_of, graphs, tokens = {}, [], []
    for cid in draw(st.lists(CAPTION_IDS, max_size=5, unique=True)):
        words = draw(st.lists(WORDS, max_size=5))
        objects = tuple((k, w, super_of.setdefault(w, draw(WORDS))) for k, w in enumerate(words))
        k = len(objects)
        attributes = (draw(st.lists(st.tuples(st.integers(0, k - 1), WORDS), max_size=4))
                      if k else [])
        relations = draw(st.lists(st.tuples(st.integers(0, k - 1), WORDS, st.integers(0, k - 1))
                                  .filter(lambda t: t[0] != t[2]), max_size=4, unique=True)
                         ) if k > 1 else []
        graphs.append(SceneGraph(cid, draw(WORDS), objects, tuple(attributes), tuple(relations)))
        tokens.append(draw(st.lists(WORDS, max_size=6)))
    return graphs, tokens


@settings(max_examples=200, deadline=None)
@given(_captions())
def test_pack_save_load_round_trip(tmp_path_factory, case):
    graphs, tokens = case
    path = tmp_path_factory.mktemp("corpus") / "corpus.victrs"
    save_corpus(pack_corpus(graphs, tokens), path)
    corpus = load_corpus(path)
    assert corpus.caption_ids == [sg.caption_id for sg in graphs]
    assert [unpack_scene_graph(corpus, i) for i in range(len(graphs))] == graphs
    assert [unpack_tokens(corpus, i) for i in range(len(graphs))] == tokens


@pytest.fixture(scope="module")
def small_corpus_file(tmp_path_factory):
    graphs = [SceneGraph("7", "1", ((0, "man", "person"), (1, "café", "place")),
                         ((1, "small"),), ((0, 'in "the"', 1),)),
              SceneGraph("8", "1", ((0, "日本", "other"),), (), ())]
    path = tmp_path_factory.mktemp("small") / "corpus.victrs"
    save_corpus(pack_corpus(graphs, [["a", "man", "in"], ["x"]]), path)
    return path


def test_every_cut_is_rejected(small_corpus_file, tmp_path):
    blob = small_corpus_file.read_bytes()
    path = tmp_path / "cut.victrs"
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_corpus(path)


def test_every_bit_flip_is_rejected(small_corpus_file, tmp_path):
    blob = small_corpus_file.read_bytes()
    path = tmp_path / "flipped.victrs"
    for bit in range(8 * len(blob)):
        i = bit // 8
        path.write_bytes(blob[:i] + bytes([blob[i] ^ 1 << bit % 8]) + blob[i + 1:])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_corpus(path)
