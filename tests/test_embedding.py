import numpy as np
import pytest
from helpers import random_scene_graphs

from victr.cli import COMPOSE_BLOCK_ROWS
from victr.embedding import (
    compose_tables,
    pca_project,
    projection_rows,
    scene_visual_semantics,
)
from victr.geometry import GEOMETRIC_RELATIONS
from victr.graphstore import ATTRIBUTE, OBJECT, RELATION, build_vocabulary
from victr.sceneparse import SceneGraph


def sg(cid, objects, relations=(), attributes=()):
    return SceneGraph(
        caption_id=str(cid), image_id=str(cid),
        objects=tuple((i, w, "other") for i, w in enumerate(objects)),
        relations=tuple(relations),
        attributes=tuple(attributes),
    )


BASE_SG = sg(1, ["man", "horse"], relations=[(0, "ride", 1)],
             attributes=[(1, "brown")])


def _tables(b=200, p=50, seed=0, positional_zero=False):
    vocab = build_vocabulary([BASE_SG])
    rng = np.random.default_rng(seed)
    basic = rng.standard_normal((len(vocab), b))
    positional = {}
    for name in GEOMETRIC_RELATIONS:
        rows = rng.standard_normal((len(vocab), p))
        positional[name] = 0.0 * rows if positional_zero else rows
    return vocab, basic, positional


def _vector(tables, word, kind):
    """The composed vector of (word, kind): basic segment only for attributes."""
    width = tables.basic_width if kind == ATTRIBUTE else tables.full_width
    return tables.vectors[tables.vocab.require(word, kind), :width]


def test_composed_widths_default_dims():
    vocab, basic, positional = _tables()
    tables = compose_tables(vocab, basic, positional)
    assert tables.full_width == 500
    assert tables.vectors.shape == (len(vocab) + 1, 500)
    assert _vector(tables, "man", OBJECT).shape == (500,)
    assert _vector(tables, "brown", ATTRIBUTE).shape == (200,)
    assert tables.scene_width == 1200


def test_missing_positional_entries_zero_filled():
    vocab, basic, positional = _tables(positional_zero=True)
    tables = compose_tables(vocab, basic, positional)
    v = _vector(tables, "man", OBJECT)
    assert v.shape == (500,)
    assert v[:200].any() and not v[200:].any()


def test_unknown_words_map_to_zero_vectors():
    vocab, basic, positional = _tables()
    tables = compose_tables(vocab, basic, positional)
    # a known word under another kind is unknown too
    graph = sg(1, ["zzyzx", "brown"], relations=[(0, "man", 1)],
               attributes=[(0, "zzyzx"), (1, "horse")])
    rows = scene_visual_semantics([graph], tables).rows
    assert rows.shape == (2, 1200)
    assert not rows.any()


def test_width_mismatch_rejected():
    vocab, basic, positional = _tables()
    positional["above"] = np.zeros((len(vocab), 49))
    with pytest.raises(ValueError, match="widths"):
        compose_tables(vocab, basic, positional)


def test_table_size_mismatch_rejected():
    vocab, basic, positional = _tables()
    with pytest.raises(ValueError, match="does not match vocabulary"):
        compose_tables(vocab, basic[:-1], positional)


def test_positional_segment_order_is_fixed():
    vocab, basic, positional = _tables(b=2, p=1)
    tables = compose_tables(vocab, basic, positional)
    idx = vocab.require("man", "object")
    want = np.concatenate(
        [basic[idx]] + [positional[name][idx] for name in GEOMETRIC_RELATIONS]
    )
    assert np.array_equal(_vector(tables, "man", OBJECT), want)


def test_scene_row_layout_no_attributes():
    vocab, basic, positional = _tables()
    tables = compose_tables(vocab, basic, positional)
    vs = scene_visual_semantics([BASE_SG], tables)
    assert vs.rows.shape == (2, 1200)
    man_row = vs.rows[0]
    assert np.array_equal(man_row[:500], _vector(tables, "man", OBJECT))
    assert not man_row[500:700].any()  # man has no attributes
    assert np.array_equal(man_row[700:], _vector(tables, "ride", RELATION))


def test_scene_row_mean_pools_attributes():
    graph = sg(1, ["dog"], attributes=[(0, "brown"), (0, "big")])
    vocab = build_vocabulary([graph])
    rng = np.random.default_rng(1)
    basic = rng.standard_normal((len(vocab), 4))
    positional = {name: np.zeros((len(vocab), 2)) for name in GEOMETRIC_RELATIONS}
    tables = compose_tables(vocab, basic, positional)
    vs = scene_visual_semantics([graph], tables)
    want = (_vector(tables, "brown", ATTRIBUTE) + _vector(tables, "big", ATTRIBUTE)) / 2
    fw = tables.full_width
    assert np.allclose(vs.rows[0, fw : fw + 4], want)


def test_scene_rows_differ_for_duplicate_words_with_different_attributes():
    graph = SceneGraph(
        caption_id="1", image_id="1",
        objects=((0, "dog", "other"), (1, "dog", "other")),
        attributes=((0, "brown"),),
        relations=(),
    )
    vocab = build_vocabulary([graph])
    rng = np.random.default_rng(2)
    basic = rng.standard_normal((len(vocab), 4))
    positional = {name: np.zeros((len(vocab), 2)) for name in GEOMETRIC_RELATIONS}
    tables = compose_tables(vocab, basic, positional)
    vs = scene_visual_semantics([graph], tables)
    assert not np.array_equal(vs.rows[0], vs.rows[1])


def test_scene_relation_segment_pools_both_sides():
    graph = sg(1, ["man", "horse"], relations=[(0, "ride", 1)])
    vocab = build_vocabulary([graph])
    rng = np.random.default_rng(3)
    basic = rng.standard_normal((len(vocab), 4))
    positional = {name: rng.standard_normal((len(vocab), 2)) for name in GEOMETRIC_RELATIONS}
    tables = compose_tables(vocab, basic, positional)
    vs = scene_visual_semantics([graph], tables)
    fw, bw = tables.full_width, tables.basic_width
    # horse is the object side of the triple; it still pools "ride"
    assert np.array_equal(vs.rows[1, fw + bw :], _vector(tables, "ride", RELATION))


def test_scene_empty_graph():
    graph = sg(1, [])
    vocab, basic, positional = _tables()
    tables = compose_tables(vocab, basic, positional)
    vs = scene_visual_semantics([graph], tables)
    assert vs.rows.shape == (0, 1200)


def test_scene_permutation_equivariant():
    graph = sg(1, ["man", "horse", "dog"], relations=[(0, "ride", 1)],
               attributes=[(2, "brown")])
    flipped = SceneGraph(
        caption_id="1", image_id="1",
        objects=(graph.objects[2], graph.objects[0], graph.objects[1]),
        relations=graph.relations,
        attributes=graph.attributes,
    )
    vocab = build_vocabulary([graph])
    rng = np.random.default_rng(4)
    basic = rng.standard_normal((len(vocab), 4))
    positional = {name: rng.standard_normal((len(vocab), 2)) for name in GEOMETRIC_RELATIONS}
    tables = compose_tables(vocab, basic, positional)
    a = scene_visual_semantics([graph], tables)
    b = scene_visual_semantics([flipped], tables)
    assert np.array_equal(b.rows[1], a.rows[0])
    assert np.array_equal(b.rows[0], a.rows[2])


def test_pca_identical_vectors_project_to_origin():
    coords = pca_project(np.ones((3, 5)), out_dim=2)
    assert np.allclose(coords, 0.0)


def test_pca_rank_one_spread():
    x = np.zeros((4, 2))
    x[:, 0] = [0.0, 1.0, 2.0, 3.0]
    coords = pca_project(x, out_dim=2)
    assert np.allclose(coords[:, 1], 0.0)
    assert not np.allclose(coords[:, 0], 0.0)


def test_pca_matches_svd_oracle():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((10, 6))
    coords = pca_project(x, out_dim=2)
    centered = x - x.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    oracle = centered @ vt[:2].T
    for k in range(2):
        sign = 1.0 if np.allclose(coords[:, k], oracle[:, k], atol=1e-8) else -1.0
        assert np.allclose(coords[:, k], sign * oracle[:, k], atol=1e-8)


def test_pca_retained_variance_matches_top_eigenvalues():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 5))
    coords = pca_project(x, out_dim=2)
    centered = x - x.mean(axis=0)
    eigvals = np.sort(np.linalg.eigvalsh(centered.T @ centered / 29))[::-1]
    got = coords.var(axis=0, ddof=1).sum()
    assert got == pytest.approx(eigvals[:2].sum(), rel=1e-10)


def test_pca_non_expansive_pairwise_distances():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((12, 9))
    coords = pca_project(x, out_dim=2)
    for i in range(12):
        for j in range(i + 1, 12):
            orig = np.linalg.norm(x[i] - x[j])
            proj = np.linalg.norm(coords[i] - coords[j])
            assert proj <= orig + 1e-9


def test_pca_too_few_vectors():
    with pytest.raises(ValueError, match="at least 2"):
        pca_project(np.ones((1, 4)), out_dim=2)


def test_pca_deterministic():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((9, 4))
    assert np.array_equal(pca_project(x), pca_project(x.copy()))


def test_projection_rows_kinds():
    vocab, basic, positional = _tables(b=4, p=2)
    tables = compose_tables(vocab, basic, positional)
    words, rows = projection_rows(tables, "object")
    assert words == ["horse", "man"]
    assert rows.shape == (2, 16)
    assert np.array_equal(rows[1], _vector(tables, "man", OBJECT))
    words, rows = projection_rows(tables, "attribute")
    assert words == ["brown"]
    assert rows.shape == (1, 4)
    with pytest.raises(ValueError, match="unknown projection kind"):
        projection_rows(tables, "everything")


# Reference: the dict-of-vectors composition that the (V + 1, width) array
# replaced, kept to show that the array path gives bit-identical rows.

def _reference_tables(vocab, basic, positional):
    tables = [positional[name] for name in GEOMETRIC_RELATIONS]

    def concat(idx):
        return np.concatenate([basic[idx]] + [t[idx] for t in tables])

    return {
        OBJECT: {w: concat(i) for i, w in vocab.words_of_kind(OBJECT)},
        RELATION: {w: concat(i) for i, w in vocab.words_of_kind(RELATION)},
        ATTRIBUTE: {w: np.asarray(basic[i]) for i, w in vocab.words_of_kind(ATTRIBUTE)},
    }


def _reference_rows(sg, ref, bw, fw):
    def vector(kind, word):
        v = ref[kind].get(word)
        return np.zeros(bw if kind == ATTRIBUTE else fw) if v is None else v

    attrs_by_obj, rels_by_obj = {}, {}
    for oid, word in sg.attributes:
        attrs_by_obj.setdefault(oid, []).append(word)
    for s, p, o in sg.relations:
        rels_by_obj.setdefault(s, []).append(p)
        rels_by_obj.setdefault(o, []).append(p)
    rows = np.zeros((len(sg.objects), 2 * fw + bw))
    for i, (oid, word, _) in enumerate(sg.objects):
        rows[i, :fw] = vector(OBJECT, word)
        if oid in attrs_by_obj:
            rows[i, fw : fw + bw] = np.mean(
                [vector(ATTRIBUTE, w) for w in attrs_by_obj[oid]], axis=0)
        if oid in rels_by_obj:
            rows[i, fw + bw :] = np.mean(
                [vector(RELATION, w) for w in rels_by_obj[oid]], axis=0)
    return rows


def _random_scene_graph(rng, cid, n=None):
    """Up to 6 objects (or n) with repeated words, attributes and predicates;
    the pools reach past random_scene_graphs' vocabulary (obj10, rel6, attr5...)."""
    n = int(rng.integers(0, 7)) if n is None else n
    objects = tuple((i, f"obj{int(rng.integers(12))}", "c") for i in range(n))
    attributes = tuple((int(rng.integers(n)), f"attr{int(rng.integers(7))}")
                       for _ in range(int(rng.integers(0, 8 + n // 2)))) if n else ()
    relations = set()
    for _ in range(int(rng.integers(0, 10 + n)) if n >= 2 else 0):
        s, o = rng.choice(n, size=2, replace=False)
        relations.add((int(s), f"rel{int(rng.integers(8))}", int(o)))
    return SceneGraph(caption_id=str(cid), image_id=str(cid), objects=objects,
                      attributes=attributes, relations=tuple(sorted(relations)))


@pytest.mark.parametrize("seed", range(4))
def test_array_composition_matches_dict_reference(seed):
    rng = np.random.default_rng(seed)
    vocab = build_vocabulary(random_scene_graphs(seed, n_graphs=30))
    b, p = int(rng.integers(1, 9)), int(rng.integers(1, 5))
    basic = rng.standard_normal((len(vocab), b))
    basic[rng.random(len(vocab)) < 0.2] = -0.0  # np.mean of -0.0 rows is +0.0
    positional = {}
    for name in GEOMETRIC_RELATIONS:
        rows = rng.standard_normal((len(vocab), p))
        rows[rng.random(len(vocab)) < 0.5] = 0.0  # nodes outside this graph
        rows[rng.random(len(vocab)) < 0.2] = -0.0
        positional[name] = rows
    tables = compose_tables(vocab, basic, positional)
    ref = _reference_tables(vocab, basic, positional)

    graphs = [_random_scene_graph(rng, cid) for cid in range(60)]
    graphs[30:30] = [sg(60, []), _random_scene_graph(rng, 61, n=COMPOSE_BLOCK_ROWS + 44)]
    assert any(w not in ref[OBJECT] for sg in graphs for _, w, _ in sg.objects)
    assert any(len(sg.attributes) > len({oid for oid, _ in sg.attributes}) for sg in graphs)
    got = scene_visual_semantics(graphs, tables).rows
    assert got.shape == (sum(len(g.objects) for g in graphs), tables.scene_width)
    want = np.concatenate([_reference_rows(g, ref, tables.basic_width, tables.full_width)
                           for g in graphs])
    assert np.array_equal(got.view("<u8"), want.view("<u8"))  # -0.0 is not 0.0 here
    assert (got.view("<u8") == np.float64(-0.0).view("<u8")).any()
    start = 0
    for g in graphs:  # a graph composed alone gives its slice of the block
        stop = start + len(g.objects)
        assert np.array_equal(scene_visual_semantics([g], tables).rows, got[start:stop])
        start = stop
    for kind in (OBJECT, RELATION, ATTRIBUTE):
        words, rows = projection_rows(tables, kind)
        items = sorted(ref[kind].items())
        assert words == [w for w, _ in items]
        assert np.array_equal(rows, np.array([v for _, v in items]))
