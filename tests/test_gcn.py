import math

import numpy as np
import pytest
from helpers import corpus_of, gradient_check, masked_cross_entropy, two_clique_scene_graphs
from hypothesis import given, settings
from hypothesis import strategies as st

from victr.config import PipelineConfig
from victr.gcn import (
    GcnModel,
    TrainingDiverged,
    _label_arrays,
    _loss_and_grads,
    accuracy,
    extract_embeddings,
    forward,
    init_model,
    load_embeddings,
    object_labels,
    save_embeddings,
    train,
)
from victr.geometry import GEOMETRIC_RELATIONS
from victr.graphstore import (
    ATTRIBUTE,
    EDGE_DTYPE,
    OBJECT,
    RELATION,
    RelationalGraph,
    Vocabulary,
    accumulate_counts,
    build_vocabulary,
    compute_weights,
    deserialize_graph,
    normalized_adjacency,
)


def _random_setup(seed, n=6, hidden=5, mu=3):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 1, size=(n, n))
    a[np.arange(n), np.arange(n)] = 1.0
    deg = a.sum(axis=1)
    a_hat = a / np.sqrt(np.outer(deg, deg))
    model = GcnModel(
        w1=rng.standard_normal((n, hidden)),
        b1=rng.standard_normal(hidden),
        w2=rng.standard_normal((hidden, mu)),
        b2=rng.standard_normal(mu),
    )
    labels = {i: int(rng.integers(mu)) for i in range(0, n, 2)}
    return a_hat, model, labels


def _clique_fixture():
    corpus = corpus_of(two_clique_scene_graphs())
    vocab = build_vocabulary(corpus)
    graph = compute_weights(accumulate_counts(corpus, vocab))
    a_hat = normalized_adjacency(graph)
    labels, classes = object_labels(vocab)
    return vocab, a_hat, labels, classes


def test_forward_zero_parameters():
    a_hat, model, _ = _random_setup(0)
    zero = GcnModel(np.zeros_like(model.w1), np.zeros_like(model.b1),
                    np.zeros_like(model.w2), np.zeros_like(model.b2))
    h1, logits = forward(zero, a_hat)
    assert not h1.any() and not logits.any()


def test_forward_identity_adjacency_disables_propagation():
    _, model, _ = _random_setup(1)
    model.b1[:] = 0.0
    h1, _ = forward(model, np.eye(model.n))
    assert np.allclose(h1, np.maximum(model.w1, 0.0))


def test_forward_matches_dense_oracle():
    # independent straight-line oracle: explicit loops over matrix products
    for seed in range(5):
        a_hat, model, _ = _random_setup(seed, n=6, hidden=4, mu=3)
        n, h, mu = 6, 4, 3
        pre1 = np.zeros((n, h))
        for i in range(n):
            for k in range(h):
                pre1[i, k] = sum(a_hat[i, j] * model.w1[j, k] for j in range(n)) + model.b1[k]
        h1 = np.where(pre1 > 0, pre1, 0.0)
        z = np.zeros((n, h))
        for i in range(n):
            for k in range(h):
                z[i, k] = sum(a_hat[i, j] * h1[j, k] for j in range(n))
        logits = np.zeros((n, mu))
        for i in range(n):
            for c in range(mu):
                logits[i, c] = sum(z[i, k] * model.w2[k, c] for k in range(h)) + model.b2[c]
        got_h1, got_logits = forward(model, a_hat)
        assert np.max(np.abs(got_h1 - h1)) < 1e-12
        assert np.max(np.abs(got_logits - logits)) < 1e-12


def test_forward_shape_mismatch():
    a_hat, model, _ = _random_setup(2)
    with pytest.raises(ValueError, match="shape"):
        forward(model, np.eye(model.n + 1))


def test_cross_entropy_uniform_logits():
    logits = np.zeros((3, 12))
    assert masked_cross_entropy(logits, {0: 3, 2: 7}) == pytest.approx(
        math.log(12), abs=1e-12
    )


def test_cross_entropy_saturated():
    logits = np.zeros((2, 3))
    logits[0, 1] = 10.0
    logits[1, 2] = 10.0
    assert masked_cross_entropy(logits, {0: 1, 1: 2}) < 1e-4


def test_cross_entropy_hand_softmax():
    logits = np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0]])
    want = 0.0
    for row, label in ((0, 1), (1, 2)):
        z = logits[row]
        want += -math.log(math.exp(z[label]) / sum(math.exp(v) for v in z))
    want /= 2
    assert masked_cross_entropy(logits, {0: 1, 1: 2}) == pytest.approx(want, abs=1e-10)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        masked_cross_entropy(np.zeros((2, 3)), {0: 3})


@st.composite
def _logits_and_labels(draw):
    n, c = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    logits = np.array(draw(st.lists(st.floats(-50, 50), min_size=n * c, max_size=n * c)))
    nodes = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return logits.reshape(n, c), {v: draw(st.integers(0, c - 1)) for v in nodes}


@settings(max_examples=200, deadline=None)
@given(_logits_and_labels())
def test_training_loss_matches_reference(case):
    # A_hat = I, W1 = I and zero biases make H1 = I, so the logits are W2
    logits, labels = case
    n, c = logits.shape
    model = GcnModel(w1=np.eye(n), b1=np.zeros(n), w2=logits, b2=np.zeros(c))
    loss, _ = _loss_and_grads(model, np.eye(n), *_label_arrays(labels))
    assert loss == pytest.approx(masked_cross_entropy(logits, labels), rel=1e-9, abs=1e-12)


def test_train_config_rejects_zero_epochs():
    with pytest.raises(ValueError, match="epochs"):
        PipelineConfig(epochs=0)


def test_train_two_clique_reaches_full_accuracy():
    _, a_hat, labels, classes = _clique_fixture()
    cfg = PipelineConfig()  # defaults: lr 0.02, 200 epochs, seed 7
    model = init_model(a_hat.shape[0], 8, len(classes), cfg.seed)
    trained, history = train(model, a_hat, labels, cfg)
    assert len(history) == cfg.epochs
    assert accuracy(trained, a_hat, labels) == 1.0


def test_train_loss_monotone_after_burn_in():
    _, a_hat, labels, classes = _clique_fixture()
    cfg = PipelineConfig()
    model = init_model(a_hat.shape[0], 8, len(classes), cfg.seed)
    _, history = train(model, a_hat, labels, cfg)
    tail = history[-50:]
    assert all(b - a <= 1e-6 for a, b in zip(tail, tail[1:]))


def test_train_deterministic_bit_identical():
    _, a_hat, labels, classes = _clique_fixture()
    cfg = PipelineConfig(epochs=40)
    runs = []
    for _ in range(2):
        model = init_model(a_hat.shape[0], 8, len(classes), cfg.seed)
        trained, history = train(model, a_hat, labels, cfg)
        runs.append((trained, history))
    a, b = runs
    assert np.array_equal(a[0].w1, b[0].w1)
    assert np.array_equal(a[0].w2, b[0].w2)
    assert a[1] == b[1]


def test_train_nan_aborts():
    _, a_hat, labels, classes = _clique_fixture()
    cfg = PipelineConfig(epochs=5)
    model = init_model(a_hat.shape[0], 8, len(classes), cfg.seed)
    model.w1[0, 0] = np.nan
    with pytest.raises(TrainingDiverged, match="epoch 0"):
        train(model, a_hat, labels, cfg)


def test_extract_embeddings_zero_model():
    a_hat, model, _ = _random_setup(3)
    zero = GcnModel(np.zeros_like(model.w1), np.zeros_like(model.b1),
                    np.zeros_like(model.w2), np.zeros_like(model.b2))
    rows = extract_embeddings(zero, a_hat)
    assert rows.shape == (a_hat.shape[0], model.hidden)
    assert not rows.any()


def test_extract_embeddings_tied_duplicate_nodes():
    # two nodes with identical in/out edges and tied first-layer rows
    a = np.array(
        [
            [1.0, 0.0, 0.5],
            [0.0, 1.0, 0.5],
            [0.3, 0.3, 1.0],
        ]
    )
    deg = a.sum(axis=1)
    a_hat = a / np.sqrt(np.outer(deg, deg))
    # rows 0 and 1 of A are also permutation-symmetric in columns 0/1; tie W1 rows
    rng = np.random.default_rng(8)
    w1 = rng.standard_normal((3, 4))
    w1[1] = w1[0]
    model = GcnModel(w1=w1, b1=rng.standard_normal(4),
                     w2=rng.standard_normal((4, 2)), b2=np.zeros(2))
    rows = extract_embeddings(model, a_hat)
    assert np.allclose(rows[0], rows[1])


def test_embeddings_cluster_by_clique():
    _, a_hat, labels, classes = _clique_fixture()
    cfg = PipelineConfig()
    model = init_model(a_hat.shape[0], 8, len(classes), cfg.seed)
    trained, _ = train(model, a_hat, labels, cfg)
    rows = extract_embeddings(trained, a_hat)
    groups = {0: [], 1: []}
    for node, cls in labels.items():
        groups[cls].append(rows[node])

    def cos(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v) + 1e-12))

    intra, inter = [], []
    for c, vs in groups.items():
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                intra.append(cos(vs[i], vs[j]))
    for u in groups[0]:
        for v in groups[1]:
            inter.append(cos(u, v))
    assert np.mean(intra) > np.mean(inter)


def test_gradient_check_small_error():
    a_hat, model, labels = _random_setup(4)
    err = gradient_check(model, a_hat, labels, epsilon=1e-5, n_coords=120, seed=1)
    assert err < 1e-4


def _isolated_kind_graph(seed):
    """Eight nodes: 1 -> 2 -> 6 -> 4 -> 1 object/relation cycle, attribute 5 on
    objects 1 and 6, and isolated nodes 0, 3 and 7; random weights."""
    kinds = [OBJECT, OBJECT, RELATION, OBJECT, RELATION, ATTRIBUTE, OBJECT, OBJECT]
    pairs = [(1, 2), (2, 6), (6, 4), (4, 1), (1, 5), (6, 5)] + [(i, i) for i in range(8)]
    edges = np.zeros(len(pairs), dtype=EDGE_DTYPE)
    edges["src"], edges["dst"] = np.array(sorted(pairs)).T
    edges["weight"] = np.random.default_rng(seed).uniform(0.1, 1.0, len(pairs))
    vocab = Vocabulary(nodes=[(f"w{i}", k) for i, k in enumerate(kinds)])
    return RelationalGraph(vocab=vocab, kind="basic", edges=edges)


@pytest.mark.parametrize("operator", [False, True], ids=["dense", "adjacency"])
def test_gradient_check_few_classes_wide_hidden(operator):
    # C << H, as in the pipeline, where the second layer propagates at width C
    a_hat, model, labels = _random_setup(15, n=8, hidden=32, mu=3)
    if operator:  # nodes 0, 3 and 7 are isolated: identity rows of the operator
        a_hat = normalized_adjacency(_isolated_kind_graph(16))
        assert sorted(a_hat.nodes.tolist()) == [1, 2, 4, 5, 6]
        assert np.array_equal(a_hat.toarray()[[0, 3, 7]], np.eye(8)[[0, 3, 7]])
    labels[7] = 1
    err = gradient_check(model, a_hat, labels, epsilon=1e-5, n_coords=200, seed=4)
    assert err < 1e-4


def test_gradient_check_zero_epsilon():
    a_hat, model, labels = _random_setup(5)
    with pytest.raises(ValueError, match="epsilon"):
        gradient_check(model, a_hat, labels, epsilon=0.0)


def test_gradient_check_dead_relu_guarded():
    a_hat, model, labels = _random_setup(6)
    model.w1 = -np.abs(model.w1)  # all first-layer paths dead
    model.b1 = -np.abs(model.b1) - 1.0
    err = gradient_check(model, a_hat, labels, epsilon=1e-5, n_coords=60, seed=2)
    assert err < 1e-4


def test_forward_permutation_equivariance():
    a_hat, model, _ = _random_setup(9)
    n = a_hat.shape[0]
    rng = np.random.default_rng(10)
    perm = rng.permutation(n)
    p = np.eye(n)[perm]
    permuted_model = GcnModel(w1=model.w1[perm], b1=model.b1,
                              w2=model.w2, b2=model.b2)
    h1, logits = forward(model, a_hat)
    h1_p, logits_p = forward(permuted_model, p @ a_hat @ p.T)
    assert np.allclose(h1_p, h1[perm], atol=1e-12)
    assert np.allclose(logits_p, logits[perm], atol=1e-12)


def test_embedding_file_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    dense = rng.standard_normal((5, 3)).astype(np.float32).astype(np.float64)
    path = tmp_path / "e.victre"
    save_embeddings(dense, path, vocab_hash="cafe")
    loaded, vh = load_embeddings(path)
    assert vh == "cafe"
    assert loaded.dtype == np.float64
    assert np.array_equal(loaded, dense)
    save_embeddings(np.zeros((0, 7)), path, vocab_hash="cafe")  # a caption with no objects
    assert load_embeddings(path)[0].shape == (0, 7)


@pytest.fixture(scope="module")
def toy_graphs(tmp_path_factory, toy_paths):
    """The seven graphs that build-graphs writes for the toy corpus."""
    from victr.cli import main

    tmp = tmp_path_factory.mktemp("toy")
    cfg = tmp / "config.txt"
    cfg.write_text(
        f"conllu = {toy_paths['conllu']}\n"
        f"captions = {toy_paths['captions']}\n"
        f"instances = {toy_paths['instances']}\n"
        f"superclass_lexicon = {toy_paths['superclasses']}\n"
        f"quantifier_lexicon = {toy_paths['quantifiers']}\n"
        f"alias_table = {toy_paths['aliases']}\n"
        f"out_dir = {tmp / 'out'}\n",
        encoding="utf-8",
    )
    assert main(["parse", "--config", str(cfg)]) == 0
    assert main(["build-graphs", "--config", str(cfg)]) == 0
    return {
        name: deserialize_graph(tmp / "out" / "graphs" / f"{name}.victrg")
        for name in ("basic",) + GEOMETRIC_RELATIONS
    }


def test_adjacency_operator_trains_like_dense(toy_graphs):
    # the positional graphs exercise the identity rows, the basic graph every kind block
    assert any(len(normalized_adjacency(g).nodes) < len(g.vocab)
               for g in toy_graphs.values())
    cfg = PipelineConfig()
    for name, graph in toy_graphs.items():
        labels, classes = object_labels(graph.vocab)
        hidden = 200 if name == "basic" else 50
        a_hat = normalized_adjacency(graph)
        model = init_model(len(graph.vocab), hidden, len(classes), cfg.seed)
        got, got_history = train(model, a_hat, labels, cfg)
        want, want_history = train(model, a_hat.toarray(), labels, cfg)
        assert np.allclose(got_history, want_history, rtol=0, atol=1e-12), name
        assert np.allclose(extract_embeddings(got, a_hat),
                           extract_embeddings(want, a_hat.toarray()),
                           rtol=0, atol=1e-12), name
        assert accuracy(got, a_hat, labels) == accuracy(want, a_hat.toarray(), labels)


def test_gradient_check_with_adjacency_operator(toy_graphs):
    graph = toy_graphs["left_of"]
    a_hat = normalized_adjacency(graph)
    assert 0 < len(a_hat.nodes) < len(graph.vocab)
    labels, classes = object_labels(graph.vocab)
    rng = np.random.default_rng(14)
    n, hidden = len(graph.vocab), 6
    model = GcnModel(w1=rng.standard_normal((n, hidden)), b1=rng.standard_normal(hidden),
                     w2=rng.standard_normal((hidden, len(classes))),
                     b2=rng.standard_normal(len(classes)))
    err = gradient_check(model, a_hat, labels, epsilon=1e-5, n_coords=200, seed=3)
    assert err < 1e-4


def _reference_loss_and_grads(model, a_hat, labels):
    """The earlier product order: both second-layer products at hidden width."""
    pre1 = a_hat @ model.w1 + model.b1
    h1 = np.maximum(pre1, 0.0)
    z = a_hat @ h1
    logits = z @ model.w2 + model.b2
    rows = np.fromiter(labels.keys(), dtype=int)
    cols = np.fromiter(labels.values(), dtype=int)
    shifted = logits[rows] - logits[rows].max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(len(rows)), cols].mean())
    g = np.zeros_like(logits)
    probs = np.exp(logp)
    probs[np.arange(len(rows)), cols] -= 1.0
    g[rows] = probs / len(rows)
    dpre1 = (a_hat.T @ (g @ model.w2.T)) * (pre1 > 0)
    return loss, (a_hat.T @ dpre1, dpre1.sum(axis=0), z.T @ g, g.sum(axis=0))


def test_class_width_propagation_matches_reference_order(toy_graphs):
    cfg = PipelineConfig()
    for name, graph in toy_graphs.items():
        labels, classes = object_labels(graph.vocab)
        hidden = 200 if name == "basic" else 50
        a_hat = normalized_adjacency(graph)
        model = init_model(len(graph.vocab), hidden, len(classes), cfg.seed)
        got, got_history = train(model, a_hat, labels, cfg)

        want, want_history = model.copy(), []
        for _ in range(cfg.epochs):
            loss, grads = _reference_loss_and_grads(want, a_hat, labels)
            want_history.append(loss)
            for param, grad in zip((want.w1, want.b1, want.w2, want.b2), grads):
                param -= cfg.learning_rate * grad

        assert np.allclose(got_history, want_history, rtol=0, atol=1e-12), name
        for a, b in ((got.w1, want.w1), (got.b1, want.b1),
                     (got.w2, want.w2), (got.b2, want.b2)):
            assert np.allclose(a, b, rtol=0, atol=1e-12), name
        assert np.allclose(extract_embeddings(got, a_hat),
                           extract_embeddings(want, a_hat),
                           rtol=0, atol=1e-12), name
