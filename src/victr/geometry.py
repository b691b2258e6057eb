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


def match_objects_to_boxes(sg, boxes_of, aliases: dict[str, str]) -> list[tuple[int, BoundingBox]]:
    """Greedily pair scene-graph objects with annotated boxes of their category.

    boxes_of maps an image id to its [(category name, box)], as
    ``ingest.load_instances`` returns it. Objects claim, in document order,
    the largest unclaimed box whose category equals their lemma (or its
    alias); of equal boxes, the first annotated. Unmatched objects are
    dropped; no box is handed out twice. An image without boxes matches none.
    """
    pool: dict[str, list[BoundingBox]] = {}
    for category, box in boxes_of.get(sg.image_id, ()):
        pool.setdefault(category, []).append(box)
    for boxes in pool.values():
        boxes.sort(key=lambda b: -b.area)  # stable, so equal areas keep their order
    matches = []
    for oid, word, _ in sg.objects:
        boxes = pool.get(word if word in pool else aliases.get(word))
        if boxes:
            matches.append((oid, boxes.pop(0)))
    return matches


def load_alias_table(path) -> dict[str, str]:
    """TSV rows ``caption_lemma<TAB>category_name``."""
    return {lemma.lower(): category
            for _, lemma, category in tsv_pairs(path, "lemma<TAB>category")}
