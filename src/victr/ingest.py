"""Corpus loaders: CoNLL-U dependency parses, caption JSON, instance JSON.

Captions arrive already dependency-parsed (CoNLL-U with ``# caption_id`` /
``# image_id`` comments); this module never runs a parser itself.
"""

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from sys import intern
from typing import NamedTuple


class ConlluError(ValueError):
    """Raised when a CoNLL-U file violates the expected format."""


class Token(NamedTuple):
    index: int  # 1-based position within the sentence
    surface: str
    lemma: str
    upos: str
    head: int  # 0 = sentence root
    deprel: str

    @property
    def base_deprel(self) -> str:
        return self.deprel.split(":", 1)[0]


@dataclass(frozen=True)
class DependencyGraph:
    caption_id: str
    image_id: str
    tokens: tuple[Token, ...]

    def __post_init__(self):
        n = len(self.tokens)
        heads = [0] * (n + 1)
        for i, tok in enumerate(self.tokens, start=1):
            if tok.index != i:
                raise ConlluError(
                    f"caption {self.caption_id}: token indices not contiguous "
                    f"(expected {i}, got {tok.index})"
                )
            if not 0 <= tok.head <= n:
                raise ConlluError(
                    f"caption {self.caption_id}: token {tok.index} head "
                    f"{tok.head} out of range 0..{n}"
                )
            if not tok.deprel:
                raise ConlluError(f"caption {self.caption_id}: token {i}: empty deprel")
            heads[i] = tok.head
        # The heads must form a tree under the root 0, since later stages walk
        # up them. Walk up from each token until a token already seen: one
        # seen on this walk closes a cycle, any other is known to reach 0.
        # Each token is marked once, so the check is linear.
        walk_of = [0] * (n + 1)  # the walk that first reached each token
        walk_of[0] = -1
        for start in range(1, n + 1):
            i = start
            while walk_of[i] == 0:
                walk_of[i] = start
                i = heads[i]
            if walk_of[i] == start:
                raise ConlluError(
                    f"caption {self.caption_id}: token {i} is on a head cycle "
                    "(heads do not form a tree)"
                )

    @cached_property
    def children(self) -> list[list[Token] | tuple[()]]:
        """Each token's dependents in token order, indexed by token (0 is the
        root). Leaves, most tokens, share one empty tuple."""
        kids: list[list[Token] | tuple[()]] = [()] * (len(self.tokens) + 1)
        for t in self.tokens:
            if kids[t.head]:
                kids[t.head].append(t)
            else:
                kids[t.head] = [t]
        return kids


@dataclass(frozen=True)
class InstanceSet:
    # image_id -> [(category_name, super_class, (x, y, w, h))]
    boxes: dict[str, list[tuple[str, str, tuple[float, float, float, float]]]]
    categories: dict[str, str] = field(default_factory=dict)


def load_conllu(path) -> list[DependencyGraph]:
    """Read a CoNLL-U file into one DependencyGraph per sentence.

    Requires ``# caption_id = <id>`` and ``# image_id = <id>`` comments per
    sentence, each caption id used once. Multi-word token ranges (``1-2``)
    and empty nodes (``1.1``) are skipped.
    """
    graphs = []
    id_lines: dict[str, int] = {}  # caption id -> line of its '# caption_id' comment
    id_line = 0
    meta: dict[str, str] = {}
    rows: list[tuple[int, list[str]]] = []

    def flush(line_no):
        if not rows and not meta:
            return
        if "caption_id" not in meta:
            raise ConlluError(
                f"{path}:{line_no}: sentence without '# caption_id =' comment"
            )
        if "image_id" not in meta:
            raise ConlluError(
                f"{path}:{line_no}: sentence without '# image_id =' comment"
            )
        cid = meta["caption_id"]
        if cid in id_lines:
            raise ConlluError(
                f"{path}:{id_line}: duplicate caption_id {cid}, first given at line {id_lines[cid]}"
            )
        id_lines[cid] = id_line
        tokens = []
        for ln, cols in rows:
            try:
                index, head = int(cols[0]), int(cols[6])
            except ValueError:
                raise ConlluError(
                    f"{path}:{ln}: non-integer token id {cols[0]!r} or head {cols[6]!r}"
                ) from None
            # the same few words and tags recur on every line: keep one copy of each
            tokens.append(Token(index, intern(cols[1]), intern(cols[2]), intern(cols[3]),
                                head, intern(cols[7])))
        try:
            graphs.append(
                DependencyGraph(
                    caption_id=cid,
                    image_id=meta["image_id"],
                    tokens=tuple(tokens),
                )
            )
        except ConlluError as e:
            raise ConlluError(f"{path}:{line_no}: {e}")
        meta.clear()
        rows.clear()

    with open(path, encoding="utf-8") as f:
        line_no = 0
        for line_no, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                flush(line_no)
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    key = key.strip()
                    meta[key] = value.strip()
                    if key == "caption_id":
                        id_line = line_no
                continue
            cols = line.split("\t")
            if len(cols) != 10:
                raise ConlluError(
                    f"{path}:{line_no}: expected 10 tab-separated columns, got {len(cols)}"
                )
            tid = cols[0]
            if "-" in tid or "." in tid:  # multi-word range / empty node
                continue
            rows.append((line_no, cols))
        flush(line_no + 1)
    return graphs


def _entries(doc, key: str, what: str, fields: tuple[str, ...], path) -> list[dict]:
    """doc[key], checked to be a list of JSON objects that each hold ``fields``."""
    if type(doc) is not dict or key not in doc:
        raise ValueError(f"{path}: missing '{key}' list")
    items = doc[key]
    if type(items) is not list:
        raise ValueError(f"{path}: '{key}' must be a list, got {type(items).__name__}")
    for i, item in enumerate(items):
        if type(item) is not dict:
            raise ValueError(f"{path}: {what} {i}: must be an object, got {item!r}")
        for name in fields:
            if name not in item:
                raise ValueError(f"{path}: {what} {i}: missing field '{name}'")
    return items


def load_captions(path) -> dict[str, str]:
    """Load a COCO-style captions JSON (``annotations`` with image_id/id/caption)
    as caption id -> image id, both as strings."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    image_of: dict[str, str] = {}
    annotations = _entries(doc, "annotations", "annotation", ("image_id", "id", "caption"), path)
    for i, ann in enumerate(annotations):
        cid = str(ann["id"])
        if cid in image_of:
            raise ValueError(f"{path}: annotation {i}: duplicate caption_id {cid}")
        image_of[cid] = str(ann["image_id"])
    return image_of


def load_instances(path) -> InstanceSet:
    """Load a COCO-style instances JSON: bounding boxes plus category table."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    annotations = _entries(doc, "annotations", "annotation",
                           ("image_id", "category_id", "bbox"), path)
    categories = _entries(doc, "categories", "category", ("id", "name", "supercategory"), path)
    cat_name: dict[int, str] = {}
    cat_super: dict[str, str] = {}
    for i, cat in enumerate(categories):
        name = cat["name"]
        if name in cat_super and cat_super[name] != cat["supercategory"]:
            raise ValueError(
                f"{path}: category {name!r} mapped to two super-classes"
            )
        if isinstance(cat["id"], (list, dict)):  # not a dict key
            raise ValueError(f"{path}: category {i}: id {cat['id']!r} is not a number or string")
        cat_name[cat["id"]] = name
        cat_super[name] = cat["supercategory"]
    boxes: dict[str, list] = {}
    for i, ann in enumerate(annotations):
        where = f"{path}: annotation {i}"
        category_id = ann["category_id"]
        if isinstance(category_id, (list, dict)) or category_id not in cat_name:
            raise ValueError(f"{where}: unknown category_id {category_id}")
        name = cat_name[category_id]
        boxes.setdefault(str(ann["image_id"]), []).append(
            (name, cat_super[name], _bbox(ann["bbox"], where))
        )
    return InstanceSet(boxes=boxes, categories=cat_super)


def _bbox(value, where: str) -> tuple[float, float, float, float]:
    """A JSON bbox as (x, y, w, h): four finite numbers with w, h > 0."""
    if not (isinstance(value, list) and len(value) == 4
            and all(type(v) in (int, float) for v in value)):  # bool is not a number here
        raise ValueError(f"{where}: bbox must be a list of 4 numbers, got {value!r}")
    try:
        x, y, w, h = (float(v) for v in value)
    except OverflowError:  # an integer too large for a float
        raise ValueError(f"{where}: bbox value out of range in {value!r}") from None
    if not all(math.isfinite(v) for v in (x, y, w, h)):
        raise ValueError(f"{where}: non-finite bbox value in {value!r}")
    if w <= 0 or h <= 0:
        raise ValueError(f"{where}: non-positive bbox size {w:g}x{h:g}")
    return x, y, w, h


def tsv_pairs(path, row_format: str):
    """Yield (line_no, key, value) per row of a two-column TSV file, both
    stripped; blank and ``#`` lines are skipped, other widths raise."""
    with open(path, encoding="utf-8") as f:
        for ln, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{ln}: expected '{row_format}'")
            yield ln, parts[0].strip(), parts[1].strip()


def _id_sort_key(cid: str):
    # numeric ids compare numerically so "9" < "10"; mixed ids fall back to text
    s = str(cid)
    return (0, int(s), "") if s.isdigit() else (1, 0, s)


def select_richest_caption(captions) -> str:
    """Pick the caption whose scene graph has the most objects+relations+attributes.

    ``captions`` holds (caption_id, scene graph) pairs. Ties break toward the
    lowest caption_id.
    """
    def rank(entry):
        cid, sg = entry
        return -(len(sg.objects) + len(sg.relations) + len(sg.attributes)), _id_sort_key(cid)

    return min(captions, key=rank)[0]
