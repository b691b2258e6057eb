"""Test-only code: the built-in quantifier lexicon, small scene-graph
corpora, a GCN gradient check and loss reference, the inverse of each
geometric relation, a CoNLL-U writer.

``random_scene_graphs`` draws seeded random graphs for property checks of
graph building; ``two_clique_scene_graphs`` gives two disconnected
communities whose object super-classes a GCN can separate. The benchmark
generates its own corpora (``perfbench/corpus.py``).
"""

import numpy as np

from victr.config import PipelineConfig
from victr.gcn import GcnModel, _label_arrays, _loss_and_grads
from victr.sceneparse import QuantifierLexicon, SceneGraph


INVERSE_RELATION = {
    "left_of": "right_of",
    "right_of": "left_of",
    "above": "below",
    "below": "above",
    "inside": "surrounding",
    "surrounding": "inside",
}


def default_quantifiers(**values) -> QuantifierLexicon:
    """The built-in quantifier lexicon at PipelineConfig's values, any of them overridden."""
    cfg = PipelineConfig(**values)
    return QuantifierLexicon.default(cfg.many_value, cfg.max_duplication)


def random_scene_graphs(seed: int, n_graphs: int) -> list[SceneGraph]:
    """Small random scene graphs for normalization property checks."""
    rng = np.random.default_rng(seed)
    object_pool = [f"obj{i}" for i in range(10)]
    relation_pool = [f"rel{i}" for i in range(6)]
    attribute_pool = [f"attr{i}" for i in range(5)]
    supers = {w: f"class{i % 3}" for i, w in enumerate(object_pool)}

    graphs = []
    for g in range(n_graphs):
        n_obj = int(rng.integers(2, 5))
        words = list(rng.choice(object_pool, size=n_obj, replace=False))
        objects = tuple((i, w, supers[w]) for i, w in enumerate(words))
        relations = []
        seen = set()
        for _ in range(int(rng.integers(1, 4))):
            s, o = rng.choice(n_obj, size=2, replace=False)
            p = str(rng.choice(relation_pool))
            if (int(s), p, int(o)) not in seen:
                seen.add((int(s), p, int(o)))
                relations.append((int(s), p, int(o)))
        attributes = []
        attr_seen = set()
        for _ in range(int(rng.integers(0, 3))):
            oid = int(rng.integers(n_obj))
            a = str(rng.choice(attribute_pool))
            if (oid, a) not in attr_seen:
                attr_seen.add((oid, a))
                attributes.append((oid, a))
        graphs.append(
            SceneGraph(
                caption_id=str(g),
                image_id=str(g),
                objects=objects,
                attributes=tuple(attributes),
                relations=tuple(relations),
            )
        )
    return graphs


def two_clique_scene_graphs() -> list[SceneGraph]:
    """Two disconnected communities; object super-classes are separable."""
    specs = [
        ("animal", ["cat", "dog", "bird"], ["chase", "watch"]),
        ("vehicle", ["car", "truck", "boat"], ["tow", "carry"]),
    ]
    graphs = []
    cid = 0
    for sup, nouns, verbs in specs:
        triples = [
            (nouns[0], verbs[0], nouns[1]),
            (nouns[1], verbs[0], nouns[2]),
            (nouns[0], verbs[1], nouns[2]),
            (nouns[2], verbs[1], nouns[0]),
        ]
        for s, p, o in triples:
            graphs.append(
                SceneGraph(
                    caption_id=str(cid),
                    image_id=str(cid),
                    objects=((0, s, sup), (1, o, sup)),
                    attributes=(),
                    relations=((0, p, 1),),
                )
            )
            cid += 1
    return graphs


def masked_cross_entropy(logits: np.ndarray, labels: dict[int, int]) -> float:
    """Reference loss: mean negative log-likelihood over the labeled nodes only."""
    if not labels:
        raise ValueError("masked_cross_entropy: no labeled nodes")
    n_classes = logits.shape[1]
    total = 0.0
    for node, cls in labels.items():
        if not 0 <= cls < n_classes:
            raise ValueError(f"node {node}: label {cls} out of range 0..{n_classes - 1}")
        z = logits[node] - logits[node].max()
        total += np.log(np.exp(z).sum()) - z[cls]
    return float(total / len(labels))


def gradient_check(model: GcnModel, a_hat: np.ndarray, labels: dict[int, int],
                   epsilon: float, n_coords: int = 120, seed: int = 0) -> float:
    """Central finite differences vs analytic gradients on random coordinates.

    Returns the max relative error, floored at 1e-12 in the denominator so
    dead-relu coordinates (both gradients ~0) do not blow up.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    rows, cols = _label_arrays(labels)
    _, grads = _loss_and_grads(model, a_hat, rows, cols)
    params = [model.w1, model.b1, model.w2, model.b2]
    sizes = [p.size for p in params]
    total = sum(sizes)
    rng = np.random.default_rng(seed)
    picks = rng.choice(total, size=min(n_coords, total), replace=False)

    worst = 0.0
    for flat in np.sort(picks):
        pi, offset = 0, int(flat)
        while offset >= sizes[pi]:
            offset -= sizes[pi]
            pi += 1
        p = params[pi]
        orig = p.flat[offset]
        p.flat[offset] = orig + epsilon
        lo_plus = _loss_and_grads(model, a_hat, rows, cols)[0]
        p.flat[offset] = orig - epsilon
        lo_minus = _loss_and_grads(model, a_hat, rows, cols)[0]
        p.flat[offset] = orig
        numeric = (lo_plus - lo_minus) / (2 * epsilon)
        analytic = grads[pi].flat[offset]
        rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-12)
        worst = max(worst, rel)
    return worst


def to_conllu(graphs) -> str:
    """Serialize DependencyGraphs back to CoNLL-U (unused columns as '_').

    The pipeline never writes CoNLL-U; this is the inverse that the
    load_conllu round-trip tests check the reader against.
    """
    chunks = []
    for g in graphs:
        lines = [f"# caption_id = {g.caption_id}", f"# image_id = {g.image_id}"]
        for t in g.tokens:
            lines.append(
                "\t".join(
                    [
                        str(t.index),
                        t.surface,
                        t.lemma,
                        t.upos,
                        "_",
                        "_",
                        str(t.head),
                        t.deprel,
                        "_",
                        "_",
                    ]
                )
            )
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + ("\n" if chunks else "")
