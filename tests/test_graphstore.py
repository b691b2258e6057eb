import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import random_scene_graphs

from victr.binio import GRAPH_MAGIC, FormatError, read_container
from victr.errors import InvariantError
from victr.geometry import GEOMETRIC_RELATIONS, BoundingBox, classify_geometric_relation
from victr.graphstore import (
    ATTRIBUTE,
    EDGE_DTYPE,
    EDGE_KINDS,
    KINDS,
    OBJECT,
    RELATION,
    RelationalGraph,
    Vocabulary,
    accumulate_counts,
    build_positional_graphs,
    build_vocabulary,
    compute_weights,
    deserialize_graph,
    normalized_adjacency,
    serialize_graph,
    verify_weight_sums,
)
from victr.sceneparse import SceneGraph


def sg(cid, objects, relations=(), attributes=(), supers=None):
    supers = supers or {}
    return SceneGraph(
        caption_id=str(cid), image_id=str(cid),
        objects=tuple((i, w, supers.get(w, "other")) for i, w in enumerate(objects)),
        relations=tuple(relations),
        attributes=tuple(attributes),
    )


def edge_dict(graph, column):
    """{(src, dst): value} over the graph's records whose ``column`` is nonzero."""
    e = graph.edges
    return {(s, d): v for s, d, v in
            zip(e["src"].tolist(), e["dst"].tolist(), e[column].tolist()) if v}


MAN_RIDE_HORSE = sg(1, ["man", "horse"], relations=[(0, "ride", 1)])
TOY_CORPUS = [
    MAN_RIDE_HORSE,
    sg(2, ["man", "bike"], relations=[(0, "ride", 1)]),
    sg(3, ["man", "kite"], relations=[(0, "hold", 1)]),
]


def test_vocabulary_triple_order():
    vocab = build_vocabulary([MAN_RIDE_HORSE])
    assert vocab.nodes == [("man", OBJECT), ("ride", RELATION), ("horse", OBJECT)]


def test_vocabulary_dedup_across_graphs():
    vocab = build_vocabulary(TOY_CORPUS)
    assert [n for n in vocab.nodes if n == ("man", OBJECT)] == [("man", OBJECT)]


def test_vocabulary_shared_attribute_node():
    corpus = [
        sg(1, ["dog"], attributes=[(0, "brown")]),
        sg(2, ["horse"], attributes=[(0, "brown")]),
    ]
    vocab = build_vocabulary(corpus)
    assert sum(1 for n in vocab.nodes if n == ("brown", ATTRIBUTE)) == 1


def test_vocabulary_empty_corpus():
    with pytest.raises(ValueError):
        build_vocabulary([])


def test_vocabulary_majority_super_class_with_tie():
    corpus = [
        sg(1, ["bat"], supers={"bat": "animal"}),
        sg(2, ["bat"], supers={"bat": "equipment"}),
        sg(3, ["bat"], supers={"bat": "equipment"}),
        sg(4, ["ball"], supers={"ball": "toy"}),
        sg(5, ["ball"], supers={"ball": "equipment"}),
    ]
    vocab = build_vocabulary(corpus)
    assert vocab.object_super_class[vocab.require("bat", OBJECT)] == "equipment"
    # tie between toy and equipment breaks lexicographically
    assert vocab.object_super_class[vocab.require("ball", OBJECT)] == "equipment"


def test_counts_single_triple():
    vocab = build_vocabulary([MAN_RIDE_HORSE])
    g = accumulate_counts([MAN_RIDE_HORSE], vocab)
    man, ride, horse = (vocab.require(*n) for n in
                        [("man", OBJECT), ("ride", RELATION), ("horse", OBJECT)])
    assert edge_dict(g, "count") == {(man, ride): 1, (ride, horse): 1}


def test_counts_hand_tallied_toy_corpus():
    vocab = build_vocabulary(TOY_CORPUS)
    g = accumulate_counts(TOY_CORPUS, vocab)
    man = vocab.require("man", OBJECT)
    ride = vocab.require("ride", RELATION)
    hold = vocab.require("hold", RELATION)
    assert edge_dict(g, "count")[(man, ride)] == 2
    assert edge_dict(g, "count")[(man, hold)] == 1


def test_attribute_counts_hand_tallied():
    corpus = [
        sg(1, ["dog"], attributes=[(0, "brown")]),
        sg(2, ["dog"], attributes=[(0, "brown")]),
        sg(3, ["horse"], attributes=[(0, "brown")]),
    ]
    vocab = build_vocabulary(corpus)
    g = accumulate_counts(corpus, vocab)
    dog = vocab.require("dog", OBJECT)
    horse = vocab.require("horse", OBJECT)
    brown = vocab.require("brown", ATTRIBUTE)
    # display edge object->attribute carries the attribute->object tally
    assert edge_dict(g, "count")[(dog, brown)] == 2
    assert edge_dict(g, "count")[(horse, brown)] == 1


def test_out_of_vocabulary_errors():
    vocab = build_vocabulary([MAN_RIDE_HORSE])
    with pytest.raises(KeyError, match="bike"):
        accumulate_counts([sg(9, ["man", "bike"], relations=[(0, "ride", 1)])], vocab)


def test_weights_eq1_hand_computed():
    vocab = build_vocabulary(TOY_CORPUS)
    g = compute_weights(accumulate_counts(TOY_CORPUS, vocab))
    man = vocab.require("man", OBJECT)
    ride = vocab.require("ride", RELATION)
    hold = vocab.require("hold", RELATION)
    assert edge_dict(g, "weight")[(man, ride)] == pytest.approx(2 / 3, abs=1e-12)
    assert edge_dict(g, "weight")[(man, hold)] == pytest.approx(1 / 3, abs=1e-12)


def test_weights_singleton_successor_is_one():
    vocab = build_vocabulary([MAN_RIDE_HORSE])
    g = compute_weights(accumulate_counts([MAN_RIDE_HORSE], vocab))
    ride = vocab.require("ride", RELATION)
    horse = vocab.require("horse", OBJECT)
    assert edge_dict(g, "weight")[(ride, horse)] == 1.0


def test_weights_eq3_attribute_conditioned():
    corpus = [
        sg(1, ["dog"], attributes=[(0, "brown")]),
        sg(2, ["dog"], attributes=[(0, "brown")]),
        sg(3, ["horse"], attributes=[(0, "brown")]),
    ]
    vocab = build_vocabulary(corpus)
    g = compute_weights(accumulate_counts(corpus, vocab))
    dog = vocab.require("dog", OBJECT)
    horse = vocab.require("horse", OBJECT)
    brown = vocab.require("brown", ATTRIBUTE)
    assert edge_dict(g, "weight")[(dog, brown)] == pytest.approx(2 / 3, abs=1e-12)
    assert edge_dict(g, "weight")[(horse, brown)] == pytest.approx(1 / 3, abs=1e-12)


def test_self_weights_present_and_in_range():
    vocab = build_vocabulary(TOY_CORPUS)
    g = compute_weights(accumulate_counts(TOY_CORPUS, vocab))
    weights = edge_dict(g, "weight")
    for i in range(len(vocab)):
        assert weights[(i, i)] == 1.0
    assert all(0 < w <= 1 for w in g.weights)


def test_weight_families_sum_to_one_randomized():
    for seed in range(25):
        corpus = random_scene_graphs(seed, n_graphs=6)
        vocab = build_vocabulary(corpus)
        g = compute_weights(accumulate_counts(corpus, vocab))
        verify_weight_sums(g)


def test_verify_weight_sums_catches_breakage():
    vocab = build_vocabulary(TOY_CORPUS)
    g = compute_weights(accumulate_counts(TOY_CORPUS, vocab))
    man = vocab.require("man", OBJECT)
    ride = vocab.require("ride", RELATION)
    g.weights[(g.edges["src"] == man) & (g.edges["dst"] == ride)] += 0.5
    with pytest.raises(InvariantError):
        verify_weight_sums(g)


def test_counts_additive_split_merge():
    corpus = random_scene_graphs(7, n_graphs=10)
    vocab = build_vocabulary(corpus)
    whole = accumulate_counts(corpus, vocab)
    merged = edge_dict(accumulate_counts(corpus[:4], vocab), "count")
    for key, c in edge_dict(accumulate_counts(corpus[4:], vocab), "count").items():
        merged[key] = merged.get(key, 0) + c
    assert edge_dict(whole, "count") == merged


def _boxes(rel):
    layouts = {
        "left_of": ((0, 0, 10, 10), (30, 0, 10, 10)),
        "above": ((0, 0, 10, 10), (0, 30, 10, 10)),
        "inside": ((5, 5, 2, 2), (0, 0, 20, 20)),
    }
    (sx, sy, sw, sh), (ox, oy, ow, oh) = layouts[rel]
    return BoundingBox(sx, sy, sw, sh), BoundingBox(ox, oy, ow, oh)


def test_positional_single_assignment():
    vocab = build_vocabulary([MAN_RIDE_HORSE])
    s_box, o_box = _boxes("left_of")
    graphs = build_positional_graphs([MAN_RIDE_HORSE], vocab, [{0: s_box, 1: o_box}])
    man = vocab.require("man", OBJECT)
    ride = vocab.require("ride", RELATION)
    horse = vocab.require("horse", OBJECT)
    assert edge_dict(graphs["left_of"], "count") == {(man, ride): 1, (ride, horse): 1}
    for name in GEOMETRIC_RELATIONS:
        if name != "left_of":
            assert edge_dict(graphs[name], "count") == {}


def test_positional_empty_matches():
    vocab = build_vocabulary([MAN_RIDE_HORSE])
    graphs = build_positional_graphs([MAN_RIDE_HORSE], vocab, [{}])
    assert all(edge_dict(g, "count") == {} for g in graphs.values())


def test_positional_same_pair_two_images():
    corpus = [
        sg(1, ["cup", "table"], relations=[(0, "on", 1)]),
        sg(2, ["cup", "table"], relations=[(0, "on", 1)]),
    ]
    vocab = build_vocabulary(corpus)
    inside = _boxes("inside")
    above = _boxes("above")
    graphs = build_positional_graphs(
        corpus, vocab, [{0: inside[0], 1: inside[1]}, {0: above[0], 1: above[1]}]
    )
    cup = vocab.require("cup", OBJECT)
    on = vocab.require("on", RELATION)
    assert edge_dict(graphs["inside"], "count")[(cup, on)] == 1
    assert edge_dict(graphs["above"], "count")[(cup, on)] == 1


def test_positional_partition_exactly_one_graph():
    rng = np.random.default_rng(5)
    corpus = random_scene_graphs(11, n_graphs=8)
    vocab = build_vocabulary(corpus)
    matches = []
    for g in corpus:
        m = {}
        for oid, _, _ in g.objects:
            x, y = rng.integers(0, 200, 2)
            w, h = rng.integers(1, 80, 2)
            m[oid] = BoundingBox(float(x), float(y), float(w), float(h))
        matches.append(m)
    graphs = build_positional_graphs(corpus, vocab, matches)
    total_triples = sum(len(g.relations) for g in corpus)
    # each triple contributes one o->r and one r->o count somewhere
    total_counts = sum(sum(edge_dict(g, "count").values()) for g in graphs.values())
    assert total_counts == 2 * total_triples


# Dict-based reference: graph building as it was while edges were held in
# {(src, dst): value} maps. The record-based code must match it bit for bit.

def _ref_bump(counts, *edges):
    for key in edges:
        counts[key] = counts.get(key, 0) + 1


def _ref_basic_counts(corpus, vocab):
    counts = {}
    for sg in corpus:
        words = {oid: word for oid, word, _ in sg.objects}
        for s, p, o in sg.relations:
            si = vocab.require(words[s], OBJECT)
            pi = vocab.require(p, RELATION)
            oi = vocab.require(words[o], OBJECT)
            _ref_bump(counts, (si, pi), (pi, oi))
        for oid, attr in sg.attributes:
            oi = vocab.require(words[oid], OBJECT)
            _ref_bump(counts, (oi, vocab.require(attr, ATTRIBUTE)))
    return counts


def _ref_positional_counts(corpus, vocab, box_matches):
    graphs = {name: {} for name in GEOMETRIC_RELATIONS}
    for sg, matches in zip(corpus, box_matches):
        words = {oid: word for oid, word, _ in sg.objects}
        for s, p, o in sg.relations:
            if s in matches and o in matches:
                si = vocab.require(words[s], OBJECT)
                pi = vocab.require(p, RELATION)
                oi = vocab.require(words[o], OBJECT)
                label = classify_geometric_relation(matches[s], matches[o])
                _ref_bump(graphs[label], (si, pi), (pi, oi))
    return graphs


def _ref_weights(counts, vocab):
    def family(s, d):
        return ("attribute", d) if vocab.nodes[d][1] == ATTRIBUTE else ("successor", s)

    totals = {}
    for (s, d), c in counts.items():
        totals[family(s, d)] = totals.get(family(s, d), 0) + c
    weights = {(s, d): c / totals[family(s, d)] for (s, d), c in counts.items()}
    weights.update({(i, i): 1.0 for i in range(len(vocab))})
    return weights


def _ref_records(counts, weights):
    keys = sorted(set(counts) | set(weights))
    records = np.zeros(len(keys), dtype=EDGE_DTYPE)
    for i, (s, d) in enumerate(keys):
        records[i] = (s, d, counts.get((s, d), 0), weights.get((s, d), 0.0))
    return records


@st.composite
def _corpus_with_boxes(draw):
    corpus = random_scene_graphs(draw(st.integers(0, 10**6)), n_graphs=draw(st.integers(1, 8)))
    # a small grid, so touching, nested, equal and same-centre boxes all occur
    coord, side = st.integers(0, 40).map(float), st.integers(1, 20).map(float)
    box = st.builds(BoundingBox, coord, coord, side, side)
    matches = [draw(st.dictionaries(st.sampled_from([oid for oid, _, _ in sg.objects]), box))
               for sg in corpus]
    return corpus, matches


@settings(max_examples=100, deadline=None)
@given(_corpus_with_boxes())
def test_record_graphs_match_dict_reference(tmp_path_factory, case):
    corpus, matches = case
    vocab = build_vocabulary(corpus)
    want = {"basic": _ref_basic_counts(corpus, vocab),
            **_ref_positional_counts(corpus, vocab, matches)}
    got = {"basic": compute_weights(accumulate_counts(corpus, vocab)),
           **build_positional_graphs(corpus, vocab, matches)}
    path = tmp_path_factory.mktemp("graphs") / "graph.victrg"
    for name, g in got.items():
        counts, weights = want[name], _ref_weights(want[name], vocab)
        assert edge_dict(g, "count") == counts, name
        assert edge_dict(g, "weight") == weights, name  # floats bit for bit
        verify_weight_sums(g)
        serialize_graph(g, path)
        assert read_container(path, GRAPH_MAGIC)[1] == _ref_records(counts, weights).tobytes()


def test_normalized_adjacency_isolated_node():
    corpus = [sg(1, ["man", "horse"], relations=[(0, "ride", 1)]),
              sg(2, ["rock"])]
    vocab = build_vocabulary(corpus)
    g = compute_weights(accumulate_counts(corpus, vocab))
    a_hat = normalized_adjacency(g).toarray()
    rock = vocab.require("rock", OBJECT)
    row = np.zeros(len(vocab))
    row[rock] = 1.0
    assert np.allclose(a_hat[rock], row)


def test_normalized_adjacency_hand_example():
    # A = [[1, 1], [0, 1]] -> D = diag(2, 1) -> A_hat = [[1/2, 1/sqrt(2)], [0, 1]]
    vocab = build_vocabulary([MAN_RIDE_HORSE])
    g = _graph(vocab, {(0, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0, (2, 2): 1.0})
    a_hat = normalized_adjacency(g).toarray()
    assert a_hat[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert a_hat[0, 1] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert a_hat[1, 0] == 0.0
    assert a_hat[1, 1] == pytest.approx(1.0, abs=1e-12)


def test_normalized_adjacency_entrywise_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        corpus = random_scene_graphs(int(rng.integers(1000)), n_graphs=4)
        vocab = build_vocabulary(corpus)
        g = compute_weights(accumulate_counts(corpus, vocab))
        a_hat = normalized_adjacency(g).toarray()
        n = len(vocab)
        a = np.zeros((n, n))
        for (s, d), w in edge_dict(g, "weight").items():
            a[s, d] = w
        deg = a.sum(axis=1)
        for i in range(n):
            for j in range(n):
                assert a_hat[i, j] == pytest.approx(
                    a[i, j] / np.sqrt(deg[i] * deg[j]), abs=1e-12
                )
        assert np.all(a_hat >= 0) and np.all(a_hat <= 1 + 1e-12)


def test_serialize_round_trip(tmp_path):
    vocab = build_vocabulary(TOY_CORPUS)
    g = compute_weights(accumulate_counts(TOY_CORPUS, vocab))
    path = tmp_path / "basic.victrg"
    serialize_graph(g, path)
    loaded = deserialize_graph(path)
    assert loaded.kind == g.kind
    assert loaded.vocab.nodes == vocab.nodes
    assert loaded.vocab.object_super_class == vocab.object_super_class
    assert edge_dict(loaded, "count") == edge_dict(g, "count")
    assert edge_dict(loaded, "weight") == edge_dict(g, "weight")
    assert loaded.edges.dtype == EDGE_DTYPE
    assert loaded.edges.tobytes() == g.edges.tobytes()


def test_serialize_deterministic_bytes(tmp_path):
    vocab = build_vocabulary(TOY_CORPUS)
    g = compute_weights(accumulate_counts(TOY_CORPUS, vocab))
    p1, p2 = tmp_path / "a.victrg", tmp_path / "b.victrg"
    serialize_graph(g, p1)
    serialize_graph(g, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.victrg"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(FormatError, match="magic"):
        deserialize_graph(path)


def test_corrupted_payload_rejected(tmp_path):
    vocab = build_vocabulary(TOY_CORPUS)
    g = compute_weights(accumulate_counts(TOY_CORPUS, vocab))
    path = tmp_path / "basic.victrg"
    serialize_graph(g, path)
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="checksum"):
        deserialize_graph(path)


def test_truncated_graph_file_rejected(tmp_path):
    # Cut after the header plus 4 bytes, the file is a well-formed container of
    # an empty payload: those bytes are the first record's src, node 0, which
    # equals the CRC-32 of nothing. The edge count in the header catches it.
    vocab = build_vocabulary(TOY_CORPUS)
    path = tmp_path / "basic.victrg"
    serialize_graph(compute_weights(accumulate_counts(TOY_CORPUS, vocab)), path)
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError):
            deserialize_graph(path)


def test_deserialize_then_compute_weights_noop(tmp_path):
    vocab = build_vocabulary(TOY_CORPUS)
    g = compute_weights(accumulate_counts(TOY_CORPUS, vocab))
    path = tmp_path / "basic.victrg"
    serialize_graph(g, path)
    loaded = deserialize_graph(path)
    before = loaded.edges.tobytes()
    compute_weights(loaded)
    assert loaded.edges.tobytes() == before


def test_deserialize_unknown_node_kind_rejected(tmp_path):
    g = compute_weights(accumulate_counts(TOY_CORPUS, build_vocabulary(TOY_CORPUS)))
    g.vocab = Vocabulary(nodes=[(w, "colour" if i == 1 else k)
                                for i, (w, k) in enumerate(g.vocab.nodes)])
    path = tmp_path / "basic.victrg"
    serialize_graph(g, path)
    with pytest.raises(ValueError, match=f"{path}: unknown node kind 'colour'"):
        deserialize_graph(path)


def _dense_reference(n, weights):
    a = np.zeros((n, n))
    for (s, d), w in weights.items():
        a[s, d] = w
    deg = a.sum(axis=1)
    return a / np.sqrt(np.outer(deg, deg))


def _graph(vocab, weights):
    """A graph whose records are exactly the {(src, dst): weight} given, count 0."""
    edges = np.zeros(len(weights), dtype=EDGE_DTYPE)
    for i, ((s, d), w) in enumerate(sorted(weights.items())):
        edges[i] = (s, d, 0, w)
    return RelationalGraph(vocab=vocab, kind="basic", edges=edges)


def _weight_graph(kinds, weights):
    """Nodes of the given kinds, self-weight 1 on each, plus the weights given."""
    vocab = Vocabulary(nodes=[(f"w{i}", k) for i, k in enumerate(kinds)])
    return _graph(vocab, {**{(i, i): 1.0 for i in range(len(kinds))}, **weights})


def _kind_case(seed, n, mix, density, width):
    """A graph whose n nodes draw their kinds from ``mix`` and whose edges
    join only the kind pairs ``EDGE_KINDS`` allows, each present with
    probability ``density``; and a (n, width) input."""
    rng = np.random.default_rng(seed)
    kinds = [mix[i] for i in rng.integers(len(mix), size=n)]
    codes = np.array([KINDS.index(k) for k in kinds])
    present = EDGE_KINDS[codes[:, None], codes[None, :]] & (rng.random((n, n)) < density)
    weights = {(s, d): rng.uniform(0.01, 1.0) for s, d in zip(*np.nonzero(present))}
    return _weight_graph(kinds, weights), rng.uniform(-10, 10, size=(n, width))


_MIXES = [KINDS, (OBJECT, RELATION), (OBJECT, ATTRIBUTE), (RELATION, ATTRIBUTE), (OBJECT,)]


@st.composite
def _weighted_graphs(draw):
    return _kind_case(draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 40)),
                      draw(st.sampled_from(_MIXES)),
                      draw(st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0])),
                      draw(st.integers(1, 4)))


def _connected(g):
    return {i for s, d in edge_dict(g, "weight") if s != d for i in (s, d)}


@settings(max_examples=200, deadline=None)
@given(_weighted_graphs())
@example(_kind_case(1, 220, KINDS, 0.05, 3))
@example(_kind_case(2, 180, (OBJECT, RELATION), 0.1, 2))
@example(_kind_case(3, 30, KINDS, 0.0, 2))
def test_adjacency_operator_matches_dense_reference(case):
    g, x = case
    n = len(g.vocab)
    a_hat = normalized_adjacency(g)
    dense = a_hat.toarray()
    assert a_hat.shape == (n, n) and a_hat.size == n * n
    assert a_hat.T.shape == (n, n) and a_hat.T.T is a_hat
    assert np.allclose(dense, _dense_reference(n, edge_dict(g, "weight")),
                       rtol=0, atol=1e-12)
    assert np.allclose(a_hat @ x, dense @ x, rtol=0, atol=1e-12)
    assert np.allclose(a_hat.T @ x, dense.T @ x, rtol=0, atol=1e-12)
    assert np.array_equal(a_hat.T.toarray(), dense.T)
    assert sorted(a_hat.nodes.tolist()) == sorted(_connected(g))
    isolated = sorted(set(range(n)) - _connected(g))
    assert np.array_equal((a_hat @ x)[isolated], x[isolated])
    assert np.array_equal((a_hat.T @ x)[isolated], x[isolated])


def test_adjacency_dense_reference_reaches_wide_graphs():
    # the explicit examples above cover more than 150 connected nodes
    assert len(_connected(_kind_case(1, 220, KINDS, 0.05, 3)[0])) > 150
    assert len(_connected(_kind_case(2, 180, (OBJECT, RELATION), 0.1, 2)[0])) > 150


def test_adjacency_edgeless_graph_is_identity():
    g = _weight_graph([OBJECT, RELATION, ATTRIBUTE, OBJECT, RELATION], {})
    a_hat = normalized_adjacency(g)
    x = np.arange(15.0).reshape(5, 3)
    assert len(a_hat.nodes) == 0 and a_hat.diag.shape == (0, 1)
    assert [b.shape for _, _, b in a_hat.blocks] == [(0, 0), (0, 0)]
    assert np.array_equal(a_hat.toarray(), np.eye(5))
    assert np.array_equal(a_hat @ x, x) and np.array_equal(a_hat.T @ x, x)
    assert a_hat @ x is not x


def test_adjacency_all_connected_is_two_kind_blocks():
    # 0 man -> 1 ride -> 2 horse; 3 dog -> 1 ride; 2 horse -> 4 brown; 3 dog -> 4 brown
    kinds = [OBJECT, RELATION, OBJECT, OBJECT, ATTRIBUTE]
    weights = {(0, 1): 1.0, (1, 2): 1.0, (3, 1): 1.0, (2, 4): 0.5, (3, 4): 0.5}
    g = _weight_graph(kinds, weights)
    a_hat = normalized_adjacency(g)
    # out-only objects man and dog, then horse (in and out), then ride, then brown
    assert a_hat.nodes.tolist() == [0, 3, 2, 1, 4]
    (rows1, cols1, b1), (rows2, cols2, b2) = a_hat.blocks
    assert (rows1, cols1) == (slice(0, 3), slice(3, 5))  # man, dog, horse x ride, brown
    assert (rows2, cols2) == (slice(3, 4), slice(2, 3))  # ride x horse
    ref = _dense_reference(5, edge_dict(g, "weight"))
    assert np.allclose(b1, ref[np.ix_([0, 3, 2], [1, 4])], rtol=0, atol=1e-15)
    assert np.allclose(b2, ref[np.ix_([1], [2])], rtol=0, atol=1e-15)
    assert np.allclose(a_hat.diag[:, 0], np.diag(ref)[[0, 3, 2, 1, 4]], rtol=0, atol=1e-15)
    assert np.allclose(a_hat.toarray(), ref, rtol=0, atol=1e-15)
    x = np.random.default_rng(3).standard_normal((5, 2))
    assert np.allclose(a_hat @ x, ref @ x, rtol=0, atol=1e-12)
    assert np.allclose(a_hat.T @ x, ref.T @ x, rtol=0, atol=1e-12)


def test_adjacency_holds_only_the_kind_blocks():
    corpus = [sg(1, ["man", "horse"], relations=[(0, "ride", 1)], attributes=[(1, "brown")]),
              sg(2, ["rock", "tree", "sky"])]
    vocab = build_vocabulary(corpus)
    a_hat = normalized_adjacency(compute_weights(accumulate_counts(corpus, vocab)))
    assert list(a_hat.nodes) == [vocab.require(w, k) for w, k in
                                 (("man", OBJECT), ("horse", OBJECT), ("ride", RELATION),
                                  ("brown", ATTRIBUTE))]
    # B1: man and horse x ride and brown; B2: ride x horse
    assert [b.shape for _, _, b in a_hat.blocks] == [(2, 2), (1, 1)]
    assert a_hat.nbytes == (a_hat.nodes.nbytes + a_hat.diag.nbytes
                            + sum(b.nbytes for _, _, b in a_hat.blocks))
    assert a_hat.nbytes < a_hat.toarray().nbytes


def test_adjacency_missing_self_weight_rejected():
    vocab = Vocabulary(nodes=[("man", OBJECT), ("ride", RELATION), ("horse", OBJECT)])
    g = _graph(vocab, {(0, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0})  # node 2 has no self-weight
    with pytest.raises(InvariantError, match="non-finite"):
        normalized_adjacency(g)


@pytest.mark.parametrize("edge", [(0, 2), (1, 3), (3, 0)],
                         ids=["object_object", "relation_attribute", "attribute_object"])
def test_adjacency_edge_outside_kind_blocks_rejected(edge):
    g = _weight_graph([OBJECT, RELATION, OBJECT, ATTRIBUTE], {edge: 1.0})
    with pytest.raises(InvariantError, match="outside the kind blocks"):
        normalized_adjacency(g)
