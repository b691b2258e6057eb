"""Two-layer graph convolutional network over a normalized adjacency.

Node features are one-hot identities, so the first layer weight doubles as
a node-embedding lookup mixed through the graph. Training is full-batch
gradient descent on a cross-entropy restricted to labeled object nodes.
The hidden activations H1 are the node embeddings: a plain (V, H) array,
one row per vocabulary node, which ``save_embeddings`` writes as float32.

``a_hat`` is anything with ``shape``, ``@`` on 2-D arrays and ``.T``: a
dense ndarray, or the ``graphstore.Adjacency`` of ``normalized_adjacency``,
a diagonal plus two kind blocks B1 and B2 whose products cost
|B1| + |B2| + k per column for the k nodes that have an edge, not V².

The second layer is computed as A_hat (H1 W2), not (A_hat H1) W2, so that
its propagation runs at the class width C rather than the hidden width H.
A training epoch therefore multiplies by A_hat four times: twice at width
H (A_hat W1 forward, A_hat^T dPre1 backward) and twice at width C (A_hat
(H1 W2) forward, A_hat^T G backward), each costing |B1| + |B2| + k per
column on an ``Adjacency``. C is the number of object super-classes, a few,
where H is 50 or 200.
"""

from dataclasses import dataclass

import numpy as np

from .binio import EMBED_MAGIC, header_ints, pack, read_container, unpack, write_container
from .config import PipelineConfig
from .errors import InvariantError
from .graphstore import Vocabulary


class TrainingDiverged(InvariantError):
    """Loss became non-finite during training."""


@dataclass
class GcnModel:
    w1: np.ndarray  # (n_vocab, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, n_classes)
    b2: np.ndarray  # (n_classes,)

    @property
    def n(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    @property
    def n_classes(self) -> int:
        return self.w2.shape[1]

    def copy(self) -> "GcnModel":
        return GcnModel(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())


def init_model(n: int, hidden: int, n_classes: int, seed: int) -> GcnModel:
    """Xavier-uniform weights, zero biases, seeded for reproducibility."""
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (n + hidden))
    lim2 = np.sqrt(6.0 / (hidden + n_classes))
    return GcnModel(
        w1=rng.uniform(-lim1, lim1, size=(n, hidden)),
        b1=np.zeros(hidden),
        w2=rng.uniform(-lim2, lim2, size=(hidden, n_classes)),
        b2=np.zeros(n_classes),
    )


def forward(model: GcnModel, a_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H1 = relu(A_hat W1 + b1); logits = A_hat (H1 W2) + b2."""
    n = a_hat.shape[0]
    if a_hat.shape != (n, n) or model.n != n:
        raise ValueError(
            f"shape mismatch: adjacency {a_hat.shape} vs model n={model.n}"
        )
    h1 = np.maximum(a_hat @ model.w1 + model.b1, 0.0)
    logits = a_hat @ (h1 @ model.w2) + model.b2
    return h1, logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _label_arrays(labels: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The labelled nodes and their classes, as two aligned index arrays."""
    return np.fromiter(labels.keys(), dtype=int), np.fromiter(labels.values(), dtype=int)


def _loss_and_grads(model: GcnModel, a_hat: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Masked cross-entropy and its gradients for (W1, b1, W2, b2), over the
    labelled nodes ``rows`` and their classes ``cols`` (see ``_label_arrays``).

    Per epoch this multiplies by A_hat four times: A_hat W1 and
    A_hat^T dPre1 at the hidden width H, A_hat (H1 W2) and U = A_hat^T G at
    the class width C. Each costs |B1| + |B2| + k per column on an
    ``Adjacency`` (V² on a dense array). U serves both dW2 = H1^T U and
    dH1 = U W2^T.
    """
    h1, logits = forward(model, a_hat)
    logp = _log_softmax(logits[rows])
    loss = float(-logp[np.arange(len(rows)), cols].mean())

    g = np.zeros_like(logits)
    probs = np.exp(logp)
    probs[np.arange(len(rows)), cols] -= 1.0
    g[rows] = probs / len(rows)

    a_t = a_hat.T
    u = a_t @ g
    dw2 = h1.T @ u
    db2 = g.sum(axis=0)
    dpre1 = (u @ model.w2.T) * (h1 > 0)  # h1 > 0 exactly where pre-activation > 0
    dw1 = a_t @ dpre1
    db1 = dpre1.sum(axis=0)
    return loss, (dw1, db1, dw2, db2)


def train(model: GcnModel, a_hat: np.ndarray, labels: dict[int, int],
          cfg: PipelineConfig) -> tuple[GcnModel, list[float]]:
    """Full-batch gradient descent for cfg.epochs steps of cfg.learning_rate;
    returns the trained model and loss history."""
    model = model.copy()
    history = []
    rows, cols = _label_arrays(labels)
    for epoch in range(cfg.epochs):
        loss, (dw1, db1, dw2, db2) = _loss_and_grads(model, a_hat, rows, cols)
        if not np.isfinite(loss):
            raise TrainingDiverged(f"non-finite loss at epoch {epoch}: {loss}")
        history.append(loss)
        model.w1 -= cfg.learning_rate * dw1
        model.b1 -= cfg.learning_rate * db1
        model.w2 -= cfg.learning_rate * dw2
        model.b2 -= cfg.learning_rate * db2
    return model, history


def accuracy(model: GcnModel, a_hat: np.ndarray, labels: dict[int, int]) -> float:
    _, logits = forward(model, a_hat)
    rows, cols = _label_arrays(labels)
    return float((logits[rows].argmax(axis=1) == cols).mean())


def extract_embeddings(model: GcnModel, a_hat: np.ndarray) -> np.ndarray:
    """The hidden activations H1, one row per node: the node embeddings."""
    h1, _ = forward(model, a_hat)
    return h1


def object_labels(vocab: Vocabulary) -> tuple[dict[int, int], list[str]]:
    """Super-class training labels for the object nodes of a vocabulary."""
    classes = sorted(set(vocab.object_super_class.values()))
    class_idx = {c: i for i, c in enumerate(classes)}
    labels = {
        node: class_idx[sup] for node, sup in sorted(vocab.object_super_class.items())
    }
    return labels, classes


def save_embeddings(rows: np.ndarray, path, vocab_hash: str) -> None:
    n, h = rows.shape
    write_container(path, EMBED_MAGIC, {"n": n, "h": h, "vocab_hash": vocab_hash},
                    pack((rows,), "<f4"))


def load_embeddings(path) -> tuple[np.ndarray, str]:
    """The (n, h) float64 rows and the vocabulary hash saved with them."""
    header, payload = read_container(path, EMBED_MAGIC)
    (rows,) = unpack(payload, path, "<f4", header_ints(header, path, "n", "h"))
    return rows, header.get("vocab_hash", "")
