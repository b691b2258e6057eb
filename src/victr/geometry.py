"""Relative geometric relations between bounding boxes, and word-to-box matching."""

from dataclasses import dataclass

from .ingest import tsv_pairs

GEOMETRIC_RELATIONS = ("left_of", "right_of", "above", "below", "inside", "surrounding")


@dataclass(frozen=True)
class BoundingBox:
    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"degenerate box {self.w}x{self.h}")

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    @property
    def area(self) -> float:
        return self.w * self.h

    def contains(self, other: "BoundingBox") -> bool:
        return (
            other.x >= self.x
            and other.y >= self.y
            and other.x + other.w <= self.x + self.w
            and other.y + other.h <= self.y + self.h
        )


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


def match_objects_to_boxes(sg, inst, image_id,
                           aliases: dict[str, str] | None = None
                           ) -> list[tuple[int, BoundingBox]]:
    """Greedily pair scene-graph objects with annotated boxes of their category.

    Objects claim, in document order, the largest unclaimed box whose
    category equals their lemma (or its alias). Unmatched objects are
    dropped; no box is handed out twice. An image without boxes matches none.
    """
    aliases = aliases or {}
    pool: dict[str, list[tuple[int, BoundingBox]]] = {}
    for i, (category, _, (x, y, w, h)) in enumerate(inst.boxes.get(str(image_id), ())):
        pool.setdefault(category, []).append((i, BoundingBox(x, y, w, h)))
    claimed: set[int] = set()
    matches = []
    for oid, word, _ in sg.objects:
        category = word if word in pool else aliases.get(word)
        if category is None or category not in pool:
            continue
        free = [(i, b) for i, b in pool[category] if i not in claimed]
        if not free:
            continue
        best = max(free, key=lambda ib: ib[1].area)
        claimed.add(best[0])
        matches.append((oid, best[1]))
    return matches


def load_alias_table(path) -> dict[str, str]:
    """TSV rows ``caption_lemma<TAB>category_name``."""
    return {lemma.lower(): category
            for _, lemma, category in tsv_pairs(path, "lemma<TAB>category")}
