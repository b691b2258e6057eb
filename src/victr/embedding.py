"""Composed visual-semantic vectors and their 2-d principal-component views.

Every vocabulary node's composed vector concatenates its basic embedding
with its six positional embeddings (fixed order: left_of, right_of, above,
below, inside, surrounding); object and relation words use the whole
vector, attribute words its basic segment alone. A scene graph's
per-object rows append mean-pooled attribute and relation segments:
object || attributes || relations. Words outside the vocabulary map to a
zero vector.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import GEOMETRIC_RELATIONS
from .graphstore import ATTRIBUTE, OBJECT, RELATION, Vocabulary


@dataclass
class ComposedTables:
    vocab: Vocabulary
    vectors: np.ndarray  # (V + 1, B + 6P); the last row is zeros, for unknown words
    basic_width: int  # B

    @property
    def full_width(self) -> int:
        return self.vectors.shape[1]

    @property
    def scene_width(self) -> int:
        # object segment + attribute segment + relation segment
        return 2 * self.full_width + self.basic_width

    def row_of(self, word: str, kind: str) -> int:
        """Row of (word, kind) in vectors; the zero row when it is unknown."""
        return self.vocab.index.get((word, kind), len(self.vocab))


@dataclass
class VisualSemanticMatrix:
    rows: np.ndarray  # (n_objects, scene_width)
    object_ids: list[int]


def compose_tables(vocab: Vocabulary, basic: np.ndarray, positional) -> ComposedTables:
    """Concatenate per-node basic and positional embedding rows.

    basic is a (V, B) array; positional maps each geometric relation name to
    a (V, P) array, in which nodes outside that graph have zero rows.
    """
    tables = [positional[p] for p in GEOMETRIC_RELATIONS]
    widths = {t.shape[1] for t in tables}
    if len(widths) != 1:
        raise ValueError(f"positional widths differ: {sorted(widths)}")
    for t in tables + [basic]:
        if t.shape[0] != len(vocab):
            raise ValueError(f"table size {t.shape[0]} does not match vocabulary {len(vocab)}")
    vectors = np.zeros((len(vocab) + 1, basic.shape[1] + 6 * widths.pop()))
    np.concatenate([basic] + tables, axis=1, out=vectors[:-1])
    return ComposedTables(vocab=vocab, vectors=vectors, basic_width=basic.shape[1])


def scene_visual_semantics(sg, tables: ComposedTables) -> VisualSemanticMatrix:
    """One row per scene-graph object: E_o || mean E_a || mean E_r.

    Attribute and relation segments are zero when the object has none;
    relations count whether the object is subject or object of the triple.
    """
    fw, bw = tables.full_width, tables.basic_width
    vectors, row_of = tables.vectors, tables.row_of
    attrs_by_obj: dict[int, list[int]] = {}
    for oid, word in sg.attributes:
        attrs_by_obj.setdefault(oid, []).append(row_of(word, ATTRIBUTE))
    rels_by_obj: dict[int, list[int]] = {}
    for s, p, o in sg.relations:
        r = row_of(p, RELATION)
        rels_by_obj.setdefault(s, []).append(r)
        rels_by_obj.setdefault(o, []).append(r)

    rows = np.zeros((len(sg.objects), tables.scene_width))
    rows[:, :fw] = vectors[[row_of(word, OBJECT) for _, word, _ in sg.objects]]
    ids = []
    for i, (oid, _, _) in enumerate(sg.objects):
        # a gathered (n, width) block sums its rows in order, as np.mean over
        # a list of vectors does, so the segment means do not change by a bit
        attr_rows = attrs_by_obj.get(oid)
        if attr_rows:
            rows[i, fw : fw + bw] = vectors[attr_rows, :bw].mean(axis=0)
        rel_rows = rels_by_obj.get(oid)
        if rel_rows:
            rows[i, fw + bw :] = vectors[rel_rows].mean(axis=0)
        ids.append(oid)
    return VisualSemanticMatrix(rows=rows, object_ids=ids)


def pca_project(vectors, out_dim: int = 2) -> np.ndarray:
    """Mean-centered projection onto the top principal components.

    Components are covariance eigenvectors in descending eigenvalue order,
    each sign-fixed so its largest-magnitude coordinate is positive. The
    exact eigensolver makes the projection deterministic.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("pca_project expects a 2-d array of row vectors")
    n = x.shape[0]
    if n < out_dim:
        raise ValueError(f"need at least {out_dim} vectors, got {n}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (n - 1) if n > 1 else np.zeros((x.shape[1],) * 2)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(-eigvals, kind="stable")[:out_dim]
    components = eigvecs[:, order].T
    for k in range(components.shape[0]):
        j = int(np.argmax(np.abs(components[k])))
        if components[k, j] < 0:
            components[k] = -components[k]
    return centered @ components.T


def projection_rows(tables: ComposedTables, kind: str) -> tuple[list[str], np.ndarray]:
    """Sorted words of one kind and their composed vectors, one row each."""
    if kind not in (OBJECT, RELATION, ATTRIBUTE):
        raise ValueError(f"unknown projection kind {kind!r}")
    items = sorted((w, i) for i, w in tables.vocab.words_of_kind(kind))
    width = tables.basic_width if kind == ATTRIBUTE else tables.full_width
    return [w for w, _ in items], tables.vectors[[i for _, i in items], :width]
