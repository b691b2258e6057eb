import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from victr.binio import FormatError
from victr.errors import InvariantError
from victr.geometry import GEOMETRIC_RELATIONS, BoundingBox
from victr.graphstore import (
    ATTRIBUTE,
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
from victr.synthetic import random_scene_graphs


def sg(cid, objects, relations=(), attributes=(), supers=None):
    supers = supers or {}
    return SceneGraph(
        caption_id=str(cid), image_id=str(cid),
        objects=tuple((i, w, supers.get(w, "other")) for i, w in enumerate(objects)),
        relations=tuple(relations),
        attributes=tuple(attributes),
    )


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
    assert g.counts == {(man, ride): 1, (ride, horse): 1}


def test_counts_hand_tallied_toy_corpus():
    vocab = build_vocabulary(TOY_CORPUS)
    g = accumulate_counts(TOY_CORPUS, vocab)
    man = vocab.require("man", OBJECT)
    ride = vocab.require("ride", RELATION)
    hold = vocab.require("hold", RELATION)
    assert g.counts[(man, ride)] == 2
    assert g.counts[(man, hold)] == 1


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
    assert g.counts[(dog, brown)] == 2
    assert g.counts[(horse, brown)] == 1


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
    assert g.weights[(man, ride)] == pytest.approx(2 / 3, abs=1e-12)
    assert g.weights[(man, hold)] == pytest.approx(1 / 3, abs=1e-12)


def test_weights_singleton_successor_is_one():
    vocab = build_vocabulary([MAN_RIDE_HORSE])
    g = compute_weights(accumulate_counts([MAN_RIDE_HORSE], vocab))
    ride = vocab.require("ride", RELATION)
    horse = vocab.require("horse", OBJECT)
    assert g.weights[(ride, horse)] == 1.0


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
    assert g.weights[(dog, brown)] == pytest.approx(2 / 3, abs=1e-12)
    assert g.weights[(horse, brown)] == pytest.approx(1 / 3, abs=1e-12)


def test_self_weights_present_and_in_range():
    vocab = build_vocabulary(TOY_CORPUS)
    g = compute_weights(accumulate_counts(TOY_CORPUS, vocab))
    for i in range(len(vocab)):
        assert g.weights[(i, i)] == 1.0
    assert all(0 < w <= 1 for w in g.weights.values())


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
    g.weights[(man, ride)] += 0.5
    with pytest.raises(InvariantError):
        verify_weight_sums(g)


def test_counts_additive_split_merge():
    corpus = random_scene_graphs(7, n_graphs=10)
    vocab = build_vocabulary(corpus)
    whole = accumulate_counts(corpus, vocab)
    merged = dict(accumulate_counts(corpus[:4], vocab).counts)
    for key, c in accumulate_counts(corpus[4:], vocab).counts.items():
        merged[key] = merged.get(key, 0) + c
    assert whole.counts == merged


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
    assert graphs["left_of"].counts == {(man, ride): 1, (ride, horse): 1}
    for name in GEOMETRIC_RELATIONS:
        if name != "left_of":
            assert graphs[name].counts == {}


def test_positional_empty_matches():
    vocab = build_vocabulary([MAN_RIDE_HORSE])
    graphs = build_positional_graphs([MAN_RIDE_HORSE], vocab, [{}])
    assert all(g.counts == {} for g in graphs.values())


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
    assert graphs["inside"].counts[(cup, on)] == 1
    assert graphs["above"].counts[(cup, on)] == 1


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
    total_counts = sum(sum(g.counts.values()) for g in graphs.values())
    assert total_counts == 2 * total_triples


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
    g = RelationalGraph(vocab=vocab, kind="basic")
    g.weights = {(0, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0, (2, 2): 1.0}
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
        for (s, d), w in g.weights.items():
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
    assert loaded.counts == g.counts
    assert loaded.weights == g.weights
    assert {type(i) for key in loaded.weights for i in key} == {int}
    assert {type(c) for c in loaded.counts.values()} == {int}
    assert {type(w) for w in loaded.weights.values()} == {float}


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


def test_deserialize_then_compute_weights_noop(tmp_path):
    vocab = build_vocabulary(TOY_CORPUS)
    g = compute_weights(accumulate_counts(TOY_CORPUS, vocab))
    path = tmp_path / "basic.victrg"
    serialize_graph(g, path)
    loaded = deserialize_graph(path)
    before = dict(loaded.weights)
    compute_weights(loaded)
    assert loaded.weights == before


def _dense_reference(n, weights):
    a = np.zeros((n, n))
    for (s, d), w in weights.items():
        a[s, d] = w
    deg = a.sum(axis=1)
    return a / np.sqrt(np.outer(deg, deg))


def _weight_graph(n, weights):
    vocab = Vocabulary(nodes=[(f"w{i}", OBJECT) for i in range(n)])
    return RelationalGraph(vocab=vocab, kind="basic",
                           weights={**{(i, i): 1.0 for i in range(n)}, **weights})


@st.composite
def _weighted_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    weights = draw(st.dictionaries(pairs, st.floats(0.01, 1.0), max_size=3 * n))
    width = draw(st.integers(1, 4))
    x = draw(arrays(np.float64, (n, width), elements=st.floats(-10, 10)))
    return _weight_graph(n, weights), x


@settings(max_examples=200, deadline=None)
@given(_weighted_graphs())
def test_adjacency_operator_matches_dense_reference(case):
    g, x = case
    n = len(g.vocab)
    a_hat = normalized_adjacency(g)
    dense = a_hat.toarray()
    assert a_hat.shape == (n, n) and a_hat.size == n * n
    assert a_hat.T.shape == (n, n)
    assert np.allclose(dense, _dense_reference(n, g.weights), rtol=0, atol=1e-12)
    assert np.allclose(a_hat @ x, dense @ x, rtol=0, atol=1e-12)
    assert np.allclose(a_hat.T @ x, dense.T @ x, rtol=0, atol=1e-12)
    connected = {i for s, d in g.weights if s != d for i in (s, d)}
    isolated = sorted(set(range(n)) - connected)
    assert np.array_equal((a_hat @ x)[isolated], x[isolated])
    assert np.array_equal((a_hat.T @ x)[isolated], x[isolated])


def test_adjacency_edgeless_graph_is_identity():
    g = _weight_graph(5, {})
    a_hat = normalized_adjacency(g)
    x = np.arange(15.0).reshape(5, 3)
    assert len(a_hat.nodes) == 0 and a_hat.block.shape == (0, 0)
    assert np.array_equal(a_hat.toarray(), np.eye(5))
    assert np.array_equal(a_hat @ x, x) and np.array_equal(a_hat.T @ x, x)
    assert a_hat @ x is not x


def test_adjacency_all_connected_is_one_block():
    weights = {(0, 1): 0.5, (1, 2): 1.0, (2, 0): 0.25, (3, 2): 1.0}
    g = _weight_graph(4, weights)
    a_hat = normalized_adjacency(g)
    assert np.array_equal(a_hat.nodes, np.arange(4))
    assert np.array_equal(a_hat.toarray(), a_hat.block)
    assert np.allclose(a_hat.block, _dense_reference(4, g.weights), rtol=0, atol=1e-12)
    x = np.random.default_rng(3).standard_normal((4, 2))
    assert np.array_equal(a_hat @ x, a_hat.block @ x)
    assert np.array_equal(a_hat.T @ x, a_hat.block.T @ x)


def test_adjacency_holds_only_the_block():
    corpus = [sg(1, ["man", "horse"], relations=[(0, "ride", 1)]),
              sg(2, ["rock", "tree", "sky"])]
    vocab = build_vocabulary(corpus)
    a_hat = normalized_adjacency(compute_weights(accumulate_counts(corpus, vocab)))
    assert list(a_hat.nodes) == [vocab.require(w, k) for w, k in
                                 (("man", OBJECT), ("ride", RELATION), ("horse", OBJECT))]
    assert a_hat.nbytes == a_hat.block.nbytes + a_hat.nodes.nbytes
    assert a_hat.nbytes < a_hat.toarray().nbytes


def test_adjacency_missing_self_weight_rejected():
    g = _weight_graph(3, {(0, 1): 1.0})
    del g.weights[(2, 2)]
    with pytest.raises(InvariantError, match="non-finite"):
        normalized_adjacency(g)
