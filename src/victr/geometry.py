"""Relative geometric relations between bounding boxes, and word-to-box matching."""

from .ingest import BoundingBox, tsv_pairs

GEOMETRIC_RELATIONS = ("left_of", "right_of", "above", "below", "inside", "surrounding")


def classify_geometric_relation(s: BoundingBox, o: BoundingBox) -> str:
    """Label s relative to o: containment first, then the dominant center offset.

    Image coordinates (y grows downward). Identical boxes, and the
    measure-zero case of coincident centers, fall back to "inside".
    """
    if o.contains(s):
        return "inside"
    if s.contains(o):
        return "surrounding"
    sx, sy = s.center
    ox, oy = o.center
    dx, dy = ox - sx, oy - sy
    if abs(dx) >= abs(dy):
        if dx > 0:
            return "left_of"
        if dx < 0:
            return "right_of"
        return "inside"  # dx == dy == 0 without containment
    return "above" if dy > 0 else "below"


def match_objects_to_boxes(corpus, boxes_of, aliases: dict[str, str]) -> dict[int, BoundingBox]:
    """Greedily pair each caption's objects in a ``sceneparse.Corpus`` with boxes.

    boxes_of maps an image id to its [(category name, box)], as
    ``ingest.load_instances`` returns it. A caption's objects claim, in order,
    the largest box of its image, not yet claimed by the caption, whose
    category equals their word (or its alias); of equal boxes, the first
    annotated. Unmatched objects are dropped. Returns object row -> box.
    """
    strings, starts, matches = corpus.strings, corpus.offsets[:, 0].tolist(), {}
    for i, image in enumerate(corpus.captions[:, 1].tolist()):
        pool: dict[str, list[BoundingBox]] = {}
        for category, box in boxes_of.get(strings[image], ()):
            pool.setdefault(category, []).append(box)
        for boxes in pool.values():
            boxes.sort(key=lambda b: -b.area)  # stable, so equal areas keep their order
        for row, word in enumerate(corpus.objects[starts[i]:starts[i + 1], 0].tolist(), starts[i]):
            word = strings[word]
            boxes = pool.get(word if word in pool else aliases.get(word))
            if boxes:
                matches[row] = boxes.pop(0)
    return matches


def load_alias_table(path) -> dict[str, str]:
    """TSV rows ``caption_lemma<TAB>category_name``."""
    return {lemma.lower(): category
            for _, lemma, category in tsv_pairs(path, "lemma<TAB>category")}
