"""Relative geometric relations between bounding boxes, and word-to-box matching.

A box is the (x, y, w, h) float tuple ``ingest.load_instances`` keeps, x and
y its top-left corner in image coordinates (y grows downward).
"""

import numpy as np

from .ingest import tsv_pairs

GEOMETRIC_RELATIONS = ("left_of", "right_of", "above", "below", "inside", "surrounding")
LEFT_OF, RIGHT_OF, ABOVE, BELOW, INSIDE, SURROUNDING = range(len(GEOMETRIC_RELATIONS))


def classify_geometric_relations(s: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Label each box of s relative to the same row's box of o, as its index
    into ``GEOMETRIC_RELATIONS``; s and o are (n, 4) float arrays of boxes.

    Containment first, then the dominant center offset. Identical boxes, and
    the measure-zero case of coincident centers, fall back to "inside".
    """
    with np.errstate(over="ignore", invalid="ignore"):  # huge boxes: inf, NaN compare as floats do
        dx, dy = ((o[:, :2] + o[:, 2:] / 2.0) - (s[:, :2] + s[:, 2:] / 2.0)).T  # center offset
        label = np.where(np.abs(dx) >= np.abs(dy),
                         np.select([dx > 0, dx < 0], [LEFT_OF, RIGHT_OF], INSIDE),
                         np.where(dy > 0, ABOVE, BELOW))
        s_end, o_end = s[:, :2] + s[:, 2:], o[:, :2] + o[:, 2:]  # bottom-right corners
        label[((o[:, :2] >= s[:, :2]) & (o_end <= s_end)).all(axis=1)] = SURROUNDING
        label[((s[:, :2] >= o[:, :2]) & (s_end <= o_end)).all(axis=1)] = INSIDE  # and identical
    return label


def match_objects_to_boxes(corpus, boxes_of, aliases: dict[str, str]) -> dict[int, tuple]:
    """Greedily pair each caption's objects in a ``sceneparse.Corpus`` with boxes.

    boxes_of maps an image id to its [(category name, box)], as
    ``ingest.load_instances`` returns it. A caption's objects claim, in order,
    the largest box of its image, not yet claimed by the caption, whose
    category equals their word (or its alias); of equal boxes, the first
    annotated. Unmatched objects are dropped. Returns object row -> box.
    """
    strings, starts, matches = corpus.strings, corpus.offsets[:, 0].tolist(), {}
    for i, image in enumerate(corpus.captions[:, 1].tolist()):
        pool: dict[str, list[tuple]] = {}
        for category, box in boxes_of.get(strings[image], ()):
            pool.setdefault(category, []).append(box)
        for boxes in pool.values():
            boxes.sort(key=lambda b: -(b[2] * b[3]))  # stable, so equal areas keep their order
        for row, word in enumerate(corpus.objects[starts[i]:starts[i + 1], 0].tolist(), starts[i]):
            word = strings[word]
            boxes = pool.get(word if word in pool else aliases.get(word))
            if boxes:
                matches[row] = boxes.pop(0)
    return matches


def load_alias_table(path) -> dict[str, str]:
    """TSV rows ``caption_lemma<TAB>category_name``, both lower-cased."""
    return {lemma.lower(): category.lower()
            for _, lemma, category in tsv_pairs(path, "lemma<TAB>category")}
