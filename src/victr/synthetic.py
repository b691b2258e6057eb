"""Small deterministic scene-graph corpora for tests.

``random_scene_graphs`` draws seeded random graphs for property checks of
graph building; ``two_clique_scene_graphs`` gives two disconnected
communities whose object super-classes a GCN can separate. The benchmark
generates its own corpora (``perfbench/corpus.py``).
"""

import numpy as np

from .sceneparse import SceneGraph


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
