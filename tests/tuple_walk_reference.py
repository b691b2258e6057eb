"""Graph building and scene composition as they walked a list of
``SceneGraph`` tuples, kept as the reference the columnar versions, which
read a ``sceneparse.Corpus``, are compared against.

The functions are verbatim but for their names (the ``tuple_walk_`` prefix),
line breaks, one docstring that named the scene-graph reader of the time,
and ``vocab.index[word, kind]`` for the ``vocab.require(word, kind)`` that
raised on a word outside the vocabulary. ``classify_geometric_relation``,
the scalar classifier ``geometry.classify_geometric_relations`` replaced,
reads boxes as (x, y, w, h) tuples, where it read a ``BoundingBox``'s
``center`` and ``contains``; its float expressions are theirs.
"""

import numpy as np

from victr.embedding import ComposedTables, VisualSemanticMatrix, _segment_means
from victr.geometry import GEOMETRIC_RELATIONS
from victr.graphstore import (
    ATTRIBUTE,
    OBJECT,
    RELATION,
    RelationalGraph,
    Vocabulary,
    _count_edges,
    compute_weights,
)


def _contains(a, b) -> bool:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    return bx >= ax and by >= ay and bx + bw <= ax + aw and by + bh <= ay + ah


def classify_geometric_relation(s, o) -> str:
    """Label s relative to o: containment first, then the dominant center offset.

    Image coordinates (y grows downward). Identical boxes, and the
    measure-zero case of coincident centers, fall back to "inside".
    """
    if _contains(o, s):
        return "inside"
    if _contains(s, o):
        return "surrounding"
    sx, sy = s[0] + s[2] / 2.0, s[1] + s[3] / 2.0
    ox, oy = o[0] + o[2] / 2.0, o[1] + o[3] / 2.0
    dx, dy = ox - sx, oy - sy
    if abs(dx) >= abs(dy):
        if dx > 0:
            return "left_of"
        if dx < 0:
            return "right_of"
        return "inside"  # dx == dy == 0 without containment
    return "above" if dy > 0 else "below"


def tuple_walk_build_vocabulary(corpus) -> Vocabulary:
    """One node per distinct (word, kind), ordered by first appearance.

    Relation triples are walked subject, predicate, object, then
    attributes, then any leftover objects. An object node's super-class is
    that of the word's first occurrence; the scene-graph reader
    guarantees that every occurrence agrees.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("build_vocabulary: empty corpus")
    nodes: list[tuple[str, str]] = []
    index: dict[tuple[str, str], int] = {}
    super_class: dict[int, str] = {}

    def add(word: str, kind: str) -> int:
        key = (word, kind)
        if key not in index:
            index[key] = len(nodes)
            nodes.append(key)
        return index[key]

    def add_object(obj: tuple[int, str, str]) -> None:
        _, word, sup = obj
        super_class.setdefault(add(word, OBJECT), sup)

    for sg in corpus:
        objects = sg.objects
        for s, p, o in sg.relations:
            add_object(objects[s])
            add(p, RELATION)
            add_object(objects[o])
        for oid, attr in sg.attributes:
            add_object(objects[oid])
            add(attr, ATTRIBUTE)
        for obj in objects:
            add_object(obj)
    return Vocabulary(nodes=nodes, object_super_class=super_class)


def tuple_walk_relation_nodes(sg, vocab: Vocabulary) -> list[tuple[int, int, int]]:
    """sg's relation triples, in order, as (subject, predicate, object) node ids."""
    node = [vocab.index[word, OBJECT] for _, word, _ in sg.objects]
    return [(node[s], vocab.index[p, RELATION], node[o]) for s, p, o in sg.relations]


def tuple_walk_accumulate_counts(corpus, vocab: Vocabulary) -> RelationalGraph:
    """Sum edge occurrences over the whole corpus into the basic graph.

    Attribute counts live on the display edge object->attribute; the count
    of that edge equals the number of times the attribute modified the
    object, which is exactly the attribute->object occurrence count.
    """
    src, dst = [], []
    for sg in corpus:
        for si, pi, oi in tuple_walk_relation_nodes(sg, vocab):
            src += (si, pi)
            dst += (pi, oi)
        for oid, attr in sg.attributes:
            src.append(vocab.index[sg.objects[oid][1], OBJECT])
            dst.append(vocab.index[attr, ATTRIBUTE])
    return _count_edges(vocab, "basic", src, dst)


def tuple_walk_build_positional_graphs(corpus, vocab: Vocabulary, box_matches
                                       ) -> dict[str, RelationalGraph]:
    """Split relation-triple counts across six graphs keyed by box geometry.

    box_matches runs parallel to corpus: per caption, a map object_id ->
    (x, y, w, h) box (may be empty). A triple contributes only when both of its
    objects have boxes, and then to exactly one graph.
    """
    ids = {p: ([], []) for p in GEOMETRIC_RELATIONS}  # label -> (src ids, dst ids)
    for sg, matches in zip(corpus, box_matches):
        if not matches:
            continue
        for (s, _, o), (si, pi, oi) in zip(sg.relations, tuple_walk_relation_nodes(sg, vocab)):
            if s in matches and o in matches:
                src, dst = ids[classify_geometric_relation(matches[s], matches[o])]
                src += (si, pi)
                dst += (pi, oi)
    return {p: compute_weights(_count_edges(vocab, p, *ids[p]))
            for p in GEOMETRIC_RELATIONS}


def tuple_walk_scene_visual_semantics(scene_graphs,
                                      tables: ComposedTables) -> VisualSemanticMatrix:
    """One row per object of each scene graph, in order: E_o || mean E_a || mean E_r.

    The rows carry no ids: the scene graphs say which object each row is. A
    segment is zero when its object has no attributes or no relations; an
    object pools a relation whether it is its subject or its object.
    """
    fw, bw = tables.full_width, tables.basic_width
    row_of = tables.vocab.index  # (word, kind) -> row
    objects, attrs, attr_of, rels, rel_of = [], [], [], [], []
    for sg in scene_graphs:
        first = len(objects)  # the row of sg's object 0; object oid is row first + oid
        objects += [row_of[w, OBJECT] for _, w, _ in sg.objects]
        attrs += [row_of[w, ATTRIBUTE] for _, w in sg.attributes]
        attr_of += [first + oid for oid, _ in sg.attributes]
        rels += [row_of[p, RELATION] for _, p, _ in sg.relations]
        rel_of += [first + end for s, _, o in sg.relations for end in (s, o)]

    rows = np.zeros((len(objects), tables.scene_width))
    rows[:, :fw] = tables.vectors[objects]
    _segment_means(rows[:, fw : fw + bw], np.array(attr_of), np.array(attrs),
                   tables.vectors[:, :bw])
    # a triple pools into its subject, then its object
    _segment_means(rows[:, fw + bw :], np.array(rel_of), np.repeat(rels, 2), tables.vectors)
    return VisualSemanticMatrix(rows=rows)
