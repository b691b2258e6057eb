"""Corpus-level relational graphs over the object/relation/attribute vocabulary.

One basic graph plus six positional graphs share a vocabulary. A graph is
the array its file stores: one ``EDGE_DTYPE`` record per (src, dst), sorted
by (src, dst). Edge weights are conditional frequencies: object->relation
edges normalize over the object's relation successors, relation->object
edges over the relation's object successors, and object->attribute edges
over the attribute's total occurrences (attribute-conditioned). Every node
carries self-weight 1.

The only off-diagonal edges are object->relation, relation->object and
object->attribute. ``normalized_adjacency`` therefore holds the GCN's A_hat
as an ``Adjacency``: its diagonal on the k nodes that have an edge, ordered
by kind, plus two dense blocks, objects x (relations, attributes) and
relations x objects. A product costs |B1| + |B2| + k per column, not V².
"""

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .binio import GRAPH_MAGIC, header_ints, read_container, write_container
from .errors import InvariantError
from .geometry import GEOMETRIC_RELATIONS, classify_geometric_relations

OBJECT, RELATION, ATTRIBUTE = "object", "relation", "attribute"
KINDS = (OBJECT, RELATION, ATTRIBUTE)  # ``Vocabulary.kind_codes`` index this
# off-diagonal edges a graph may hold, by (source kind code, target kind code)
EDGE_KINDS = np.array([[False, True, True], [True, False, False], [False, False, False]])
WEIGHT_SUM_TOL = 1e-9

EDGE_DTYPE = np.dtype(
    [("src", "<u4"), ("dst", "<u4"), ("count", "<u8"), ("weight", "<f8")]
)


@dataclass
class Vocabulary:
    nodes: list[tuple[str, str]]  # (word, kind) in first-appearance order
    object_super_class: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        self.index = {node: i for i, node in enumerate(self.nodes)}

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def kind_codes(self) -> np.ndarray:
        """Each node's kind as its int8 position in ``KINDS``."""
        return np.array([KINDS.index(k) for _, k in self.nodes], dtype=np.int8)

    def words_of_kind(self, kind: str) -> list[tuple[int, str]]:
        return [(i, w) for i, (w, k) in enumerate(self.nodes) if k == kind]

    def content_hash(self) -> str:
        text = "\n".join(f"{w}\t{k}" for w, k in self.nodes)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class RelationalGraph:
    """Edges as ``EDGE_DTYPE`` records, one per (src, dst), sorted by (src, dst).

    Counted edges have count > 0. A weighted graph (from ``compute_weights``)
    also carries a count-0, weight-1 self-loop on every node.
    """

    vocab: Vocabulary
    kind: str  # "basic" or one of the six geometric relations
    edges: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        return self.edges["weight"]

    def _counted(self) -> np.ndarray:
        e = self.edges
        return e[(e["count"] > 0) & (e["src"] != e["dst"])]

    def participants(self) -> np.ndarray:
        """Nodes touching at least one counted (non-self) edge, ascending."""
        counted = self._counted()
        return np.union1d(counted["src"], counted["dst"])

    def edge_count(self) -> int:
        return int(np.count_nonzero(self.edges["count"]))


def _count_edges(vocab: Vocabulary, kind: str, src: list, dst: list) -> RelationalGraph:
    """One record per distinct (src, dst) pair, its count the pair's occurrences."""
    n = len(vocab)
    pairs = np.array([src, dst], dtype=np.int64)
    keys, counts = np.unique(pairs[0] * n + pairs[1], return_counts=True)
    edges = np.zeros(len(keys), dtype=EDGE_DTYPE)
    edges["src"], edges["dst"] = np.divmod(keys, n)
    edges["count"] = counts
    return RelationalGraph(vocab=vocab, kind=kind, edges=edges)


def _families(vocab: Vocabulary, edges: np.ndarray) -> np.ndarray:
    """Weight-family key per off-diagonal record: the source node, or V plus
    the attribute node for object->attribute edges."""
    is_attribute = vocab.kind_codes[edges["dst"]] == KINDS.index(ATTRIBUTE)
    return np.where(is_attribute, len(vocab) + edges["dst"], edges["src"])


def _misplaced(vocab: Vocabulary, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Indices of the off-diagonal records whose kinds ``EDGE_KINDS`` forbids."""
    return np.flatnonzero((src != dst) & ~EDGE_KINDS[vocab.kind_codes[src], vocab.kind_codes[dst]])


def build_vocabulary(corpus) -> Vocabulary:
    """One node per distinct (word, kind) of a ``sceneparse.Corpus``, by first appearance.

    Each caption is walked in turn: its relation triples subject, predicate,
    object, then its attributes as object, attribute, then its objects. An
    object node's super-class is that of the word's first occurrence;
    ``sceneparse.load_corpus`` guarantees that every occurrence agrees.
    """
    if not len(corpus):
        raise ValueError("build_vocabulary: empty corpus")
    objects, rel, attr = corpus.objects, corpus.relations, corpus.attributes
    word = objects[:, 0].astype(np.int64) * 3  # a key is string id * 3 + kind code
    keys = np.concatenate([
        np.stack([word[rel[:, 0]], rel[:, 1] * 3 + 1, word[rel[:, 2]]], axis=1).ravel(),
        np.stack([word[attr[:, 0]], attr[:, 1] * 3 + 2], axis=1).ravel(), word])
    # sort the keys into the walk by (caption, part), each part in its own order
    n_obj, n_attr, n_rel, _ = np.diff(corpus.offsets, axis=0).T
    step = np.arange(len(corpus)) * 3
    step = np.concatenate([np.repeat(step, 3 * n_rel), np.repeat(step + 1, 2 * n_attr),
                           np.repeat(step + 2, n_obj)])
    keys, first = np.unique(keys[np.argsort(step, kind="stable")], return_index=True)
    keys = keys[np.argsort(first)].tolist()
    words, first_row = np.unique(objects[:, 0], return_index=True)
    super_of = dict(zip(words.tolist(), objects[first_row, 1].tolist()))
    strings = corpus.strings
    return Vocabulary(nodes=[(strings[k // 3], KINDS[k % 3]) for k in keys],
                      object_super_class={i: strings[super_of[k // 3]]
                                          for i, k in enumerate(keys) if k % 3 == 0})


def node_ids(vocab: Vocabulary, strings: list[str], column: np.ndarray, kind: str) -> np.ndarray:
    """The node of (strings[i], kind) for each string id i in column; -1 where vocab has none."""
    ids, inverse = np.unique(column, return_inverse=True)
    nodes = np.array([vocab.index.get((strings[i], kind), -1) for i in ids.tolist()], dtype=np.intp)
    return nodes[inverse]


def _nodes(corpus, vocab: Vocabulary) -> list[np.ndarray]:
    """The nodes of the objects', predicates' and attributes' words; each must be in vocab."""
    columns = ((corpus.objects[:, 0], OBJECT), (corpus.relations[:, 1], RELATION),
               (corpus.attributes[:, 1], ATTRIBUTE))
    nodes = [node_ids(vocab, corpus.strings, column, kind) for column, kind in columns]
    for (column, kind), ids in zip(columns, nodes):
        if (ids < 0).any():
            raise InvariantError(f"out-of-vocabulary {kind} word "
                                 f"{corpus.strings[column[np.argmin(ids)]]!r}")
    return nodes


def accumulate_counts(corpus, vocab: Vocabulary) -> RelationalGraph:
    """Sum edge occurrences over the whole corpus into the basic graph.

    Attribute counts live on the display edge object->attribute; the count
    of that edge equals the number of times the attribute modified the
    object, which is exactly the attribute->object occurrence count.
    """
    (obj, pred, attr), rel = _nodes(corpus, vocab), corpus.relations
    return _count_edges(vocab, "basic",
                        np.concatenate([obj[rel[:, 0]], pred, obj[corpus.attributes[:, 0]]]),
                        np.concatenate([pred, obj[rel[:, 2]], attr]))


def compute_weights(graph: RelationalGraph) -> RelationalGraph:
    """Normalize counts into conditional-frequency weights; self-weights are 1.

    object->relation: by the object's total over relation successors;
    relation->object: by the relation's total over object successors;
    object->attribute: by the attribute's total over the objects it modifies.
    """
    n = len(graph.vocab)
    counted = graph._counted()
    families = _families(graph.vocab, counted)
    totals = np.bincount(families, weights=counted["count"])
    counted["weight"] = counted["count"] / totals[families]
    loops = np.array([(i, i, 0, 1.0) for i in range(n)], dtype=EDGE_DTYPE)
    edges = np.concatenate([counted, loops])
    graph.edges = edges[np.lexsort((edges["dst"], edges["src"]))]
    return graph


def _weight_sum_breach(vocab: Vocabulary, edges: np.ndarray) -> str | None:
    """Why a weight family does not sum to 1 (NaN included), or None if all do."""
    n = len(vocab)
    off = edges[edges["src"] != edges["dst"]]
    families = _families(vocab, off)
    sums = np.bincount(families, weights=off["weight"])
    present = np.unique(families)
    bad = present[~(np.abs(sums[present] - 1.0) <= WEIGHT_SUM_TOL)]
    if not bad.size:
        return None
    key = bad[0]
    word, kind = vocab.nodes[key % n]
    label = "successor" if key < n else "attribute"
    return f"{label} weight family of {kind} node {word!r} sums to {float(sums[key])!r}"


def verify_weight_sums(graph: RelationalGraph) -> None:
    """Check that every per-node weight family sums to 1; raise InvariantError."""
    breach = _weight_sum_breach(graph.vocab, graph.edges)
    if breach:
        raise InvariantError(f"{graph.kind} graph: {breach}")


def build_positional_graphs(corpus, vocab: Vocabulary, box_of: dict) -> dict[str, RelationalGraph]:
    """Split relation-triple counts across six graphs keyed by box geometry.

    box_of maps object rows of the corpus to their (x, y, w, h) box, as
    ``geometry.match_objects_to_boxes`` gives it. A triple contributes only
    when both of its objects have boxes, and then to exactly one graph: the
    one ``geometry.classify_geometric_relations`` labels its subject's box
    with, relative to its object's box.
    """
    (obj, pred, _), rel = _nodes(corpus, vocab), corpus.relations
    boxes = np.full((len(corpus.objects), 4), np.nan)  # NaN: the object has no box
    boxes[list(box_of)] = np.reshape(list(box_of.values()), (-1, 4))
    boxed = np.flatnonzero(~np.isnan(boxes[rel[:, ::2], 0]).any(axis=1))
    label = classify_geometric_relations(boxes[rel[boxed, 0]], boxes[rel[boxed, 2]])
    return {p: compute_weights(_count_edges(vocab, p, np.concatenate([obj[rel[r, 0]], pred[r]]),
                                            np.concatenate([pred[r], obj[rel[r, 2]]])))
            for i, p in enumerate(GEOMETRIC_RELATIONS) for r in [boxed[label == i]]}


class Adjacency:
    """A V x V normalized adjacency held as a diagonal plus two kind blocks.

    ``nodes`` are the k nodes with an off-diagonal weight, in kind order:
    objects with only out-edges, with both, with only in-edges, relations,
    attributes. ``diag`` is A_hat's (k, 1) diagonal on them; ``blocks`` are
    (rows, cols, matrix) for A_hat on two slices of that order: B1 (objects
    with out-edges x relations and attributes), B2 (relations x objects with
    in-edges). Other nodes have only a self-loop: ``A @ X`` keeps their rows.
    ``@`` takes 2-D float arrays; ``.T`` is built once; ``shape``, ``size``
    (V * V) and ``nbytes`` (bytes held) are as on an ndarray.
    """

    def __init__(self, n: int, nodes: np.ndarray, diag: np.ndarray, blocks: tuple):
        self.nodes, self.diag, self.blocks = nodes, diag, blocks
        self.shape, self.size = (n, n), n * n

    @property
    def nbytes(self) -> int:
        return self.nodes.nbytes + self.diag.nbytes + sum(b.nbytes for _, _, b in self.blocks)

    @cached_property
    def T(self) -> "Adjacency":
        t = Adjacency(self.shape[0], self.nodes, self.diag,
                      tuple((cols, rows, b.T) for rows, cols, b in self.blocks))
        t.T = self
        return t

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        xc = x.take(self.nodes, axis=0)
        products = [(rows, b @ xc[cols]) for rows, cols, b in self.blocks]
        xc *= self.diag  # in place, once the blocks have read it
        for rows, p in products:
            xc[rows] += p
        out = x.copy()  # rows of edgeless nodes pass through
        out[self.nodes] = xc
        return out

    def toarray(self) -> np.ndarray:
        return self @ np.eye(self.shape[0])  # exact: each entry is one product by 1


def normalized_adjacency(graph: RelationalGraph) -> Adjacency:
    """Degree-normalized adjacency: A_hat[i,j] = A[i,j] / sqrt(d_i * d_j).

    A is the weight matrix (self-loops of weight 1 included); d is the row
    sum. Built from the edge records alone, scattered straight into the kind
    blocks. Nodes without an off-diagonal edge stay out of them, which is
    exact since their only weight is the self-loop, so A_hat[i,i] = w_ii / d_i = 1.
    """
    e = graph.edges
    if not e["weight"].any():
        raise ValueError("normalized_adjacency: call compute_weights first")
    n, kinds = len(graph.vocab), graph.vocab.kind_codes
    src, dst, w = e["src"].astype(np.intp), e["dst"].astype(np.intp), e["weight"]
    deg = np.bincount(src, weights=w, minlength=n)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_sqrt = 1.0 / np.sqrt(deg)
        value = w * inv_sqrt[src] * inv_sqrt[dst]
    if not (np.all(np.isfinite(inv_sqrt)) and np.all(np.isfinite(value))):
        raise InvariantError("normalized adjacency has non-finite entries")
    if _misplaced(graph.vocab, src, dst).size:
        raise InvariantError(f"{graph.kind} graph has an edge outside the kind blocks")
    off = src != dst
    has_out, has_in = (np.minimum(np.bincount(v[off], minlength=n), 1) for v in (src, dst))
    # 0-2: objects with only out-, both, only in-edges; 3: relations; 4: attributes;
    # 5: nodes with no off-diagonal edge, left out of the blocks
    group = np.where(kinds == KINDS.index(OBJECT), 1 + has_in - has_out, 2 + kinds)
    group[(has_out | has_in) == 0] = 5
    order = np.argsort(group, kind="stable")
    o = np.searchsorted(group[order], np.arange(6)).tolist()  # group g is o[g]:o[g + 1]
    nodes, pos = order[:o[5]], np.argsort(order)
    diag = np.bincount(src[~off], weights=value[~off], minlength=n)[nodes, None]
    row, col, val = pos[src[off]], pos[dst[off]], value[off]
    from_object = kinds[src[off]] == KINDS.index(OBJECT)
    blocks = []
    for rows, cols, inside in ((slice(0, o[2]), slice(o[3], o[5]), from_object),
                               (slice(o[3], o[4]), slice(o[1], o[3]), ~from_object)):
        block = np.zeros((rows.stop - rows.start, cols.stop - cols.start))
        block[row[inside] - rows.start, col[inside] - cols.start] = val[inside]
        blocks.append((rows, cols, block))
    return Adjacency(n, nodes, diag, tuple(blocks))


def serialize_graph(graph: RelationalGraph, path) -> None:
    vocab = graph.vocab
    header = {
        "kind": graph.kind,
        "n": len(vocab),
        "nnz": len(graph.edges),
        "vocab": {
            "words": [w for w, _ in vocab.nodes],
            "kinds": [k for _, k in vocab.nodes],
            "super": {str(i): s for i, s in sorted(vocab.object_super_class.items())},
        },
    }
    write_container(path, GRAPH_MAGIC, header, graph.edges.tobytes())


def _header_vocabulary(doc, n: int, path) -> Vocabulary:
    """The vocabulary a graph header describes, checked against n nodes."""
    words, kinds, supers = (doc.get(k) if isinstance(doc, dict) else None
                            for k in ("words", "kinds", "super"))
    if not (isinstance(words, list) and isinstance(kinds, list) and len(words) == len(kinds) == n
            and all(type(w) is str for w in words)):
        raise ValueError(f"{path}: header vocab 'words' and 'kinds' must be lists of {n} strings")
    unknown = [k for k in kinds if k not in KINDS]  # non-strings included
    if unknown:
        raise ValueError(f"{path}: unknown node kind {unknown[0]!r}")
    if not isinstance(supers, dict) or not all(
            key.isdecimal() and int(key) < n and kinds[int(key)] == OBJECT and type(sup) is str
            for key, sup in supers.items()):
        raise ValueError(f"{path}: header vocab 'super' must map object node ids to strings")
    super_class = {int(key): sup for key, sup in supers.items()}
    vocab = Vocabulary(nodes=list(zip(words, kinds)), object_super_class=super_class)
    if len(vocab.index) < n:  # a node given twice: the index keeps only its last position
        i = next(i for i, node in enumerate(vocab.nodes) if vocab.index[node] != i)
        raise ValueError(f"{path}: header vocab node {vocab.index[vocab.nodes[i]]} repeats node "
                         f"{i}, {vocab.nodes[i][1]} {vocab.nodes[i][0]!r}")
    return vocab


def deserialize_graph(path) -> RelationalGraph:
    header, payload = read_container(path, GRAPH_MAGIC)
    n, nnz = header_ints(header, path, "n", "nnz")
    if type(header.get("kind")) is not str:
        raise ValueError(f"{path}: header field 'kind' must be a string")
    vocab = _header_vocabulary(header.get("vocab"), n, path)
    if len(payload) != nnz * EDGE_DTYPE.itemsize:
        raise ValueError(f"{path}: payload size {len(payload)}, expected {nnz} edge records")
    records = np.frombuffer(payload, dtype=EDGE_DTYPE)
    nodes, src, dst = vocab.nodes, records["src"], records["dst"]
    outside = np.flatnonzero(np.maximum(src, dst) >= n)
    if outside.size:
        i = outside[0]
        raise ValueError(
            f"{path}: edge {i} ({src[i]}, {dst[i]}) has a node "
            f"outside the vocabulary of {n} nodes"
        )
    keys = src.astype(np.int64) * n + dst
    unordered = np.flatnonzero(keys[1:] <= keys[:-1])
    if unordered.size:  # a repeated record would count twice in the degree sums
        i = unordered[0] + 1
        raise ValueError(f"{path}: edge {i} ({src[i]}, {dst[i]}) does not follow edge "
                         f"{i - 1}; records must be strictly ascending in (src, dst)")
    misplaced = _misplaced(vocab, src, dst)
    if misplaced.size:
        i = misplaced[0]
        raise ValueError(f"{path}: edge {i} ({src[i]}, {dst[i]}) is {nodes[src[i]][1]}->"
                         f"{nodes[dst[i]][1]}, not object->relation, relation->object or "
                         "object->attribute")
    if not np.isfinite(records["weight"]).all():
        raise ValueError(f"{path}: edge weights hold non-finite values")
    breach = _weight_sum_breach(vocab, records)
    if breach:
        raise ValueError(f"{path}: {breach}")
    return RelationalGraph(vocab=vocab, kind=header["kind"], edges=records)
