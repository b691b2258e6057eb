"""Composed visual-semantic vectors and their 2-d principal-component views.

Every vocabulary node's composed vector concatenates its basic embedding
with its six positional embeddings (fixed order: left_of, right_of, above,
below, inside, surrounding); object and relation words use the whole
vector, attribute words its basic segment alone. A scene graph's
per-object rows append mean-pooled attribute and relation segments:
object || attributes || relations. Words outside the vocabulary map to a
zero vector.

A segment mean starts at 0.0, adds its vectors in order, then divides by
their count. That is np.mean over the gathered vectors, bit for bit, except
for an object with 8 or more attributes when basic_width is 1: there numpy
sums the one column pairwise.
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


@dataclass
class VisualSemanticMatrix:
    rows: np.ndarray  # (n_objects, scene_width); one row per object, in graph order


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


def scene_visual_semantics(scene_graphs, tables: ComposedTables) -> VisualSemanticMatrix:
    """One row per object of each scene graph, in order: E_o || mean E_a || mean E_r.

    The rows carry no ids: the scene graphs say which object each row is. A
    segment is zero when its object has no attributes or no relations; an
    object pools a relation whether it is its subject or its object.
    """
    fw, bw = tables.full_width, tables.basic_width
    row_of, zero = tables.vocab.index, len(tables.vocab)  # (word, kind) -> row; zero: unknown
    objects, attrs, attr_of, rels, rel_of = [], [], [], [], []
    for sg in scene_graphs:
        first = len(objects)  # the row of sg's object 0; object oid is row first + oid
        objects += [row_of.get((w, OBJECT), zero) for _, w, _ in sg.objects]
        attrs += [row_of.get((w, ATTRIBUTE), zero) for _, w in sg.attributes]
        attr_of += [first + oid for oid, _ in sg.attributes]
        rels += [row_of.get((p, RELATION), zero) for _, p, _ in sg.relations]
        rel_of += [first + end for s, _, o in sg.relations for end in (s, o)]

    rows = np.zeros((len(objects), tables.scene_width))
    rows[:, :fw] = tables.vectors[objects]
    _segment_means(rows[:, fw : fw + bw], np.array(attr_of), np.array(attrs),
                   tables.vectors[:, :bw])
    # a triple pools into its subject, then its object
    _segment_means(rows[:, fw + bw :], np.array(rel_of), np.repeat(rels, 2), tables.vectors)
    return VisualSemanticMatrix(rows=rows)


def _segment_means(out, owner: np.ndarray, row: np.ndarray, table: np.ndarray) -> None:
    """out[o] = the mean of table[row[j]] over the j with owner[j] == o. As in
    np.mean, each sum starts at 0.0 and adds its owner's rows in j order."""
    if not len(owner):
        return
    order = np.argsort(owner, kind="stable")
    owner, row = owner[order], row[order]
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    counts = np.diff(first, append=len(owner))
    by_count = np.argsort(-counts, kind="stable")  # owners with k+ rows lead
    first, counts = first[by_count], counts[by_count]
    sums = np.zeros((len(first), table.shape[1]))
    for k in range(counts[0]):  # the k-th row of every owner that has one
        m = np.count_nonzero(counts > k)
        sums[:m] += table[row[first[:m] + k]]
    out[owner[first]] = sums / counts[:, None]


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


def projection_rows(tables: ComposedTables) -> tuple[list[str], np.ndarray]:
    """Sorted object words and their composed vectors, one row each."""
    items = sorted((w, i) for i, w in tables.vocab.words_of_kind(OBJECT))
    return [w for w, _ in items], tables.vectors[[i for _, i in items]]
