"""Corpus loaders: CoNLL-U dependency parses, caption JSON, instance JSON and its boxes.

Captions arrive already dependency-parsed (CoNLL-U with ``# caption_id`` /
``# image_id`` comments); this module never runs a parser itself.

The JSON inputs, each read by ``json_records`` against a table of its fields
and their JSON types. An id is an integer or a string, compared as its text
(``7`` and ``"7"`` are one id). A value must have exactly its field's type,
so ``true`` is not an integer; other fields are ignored.

- Captions (``CAPTION_FIELDS``): an object whose ``annotations`` list holds
  {``id``: id, used once; ``image_id``: id; ``caption``: string}.
- Instances: an object with two lists. ``categories`` (``CATEGORY_FIELDS``)
  holds {``id``: id, used once; ``name``, ``supercategory``: strings, one
  supercategory per name}; ``annotations`` (``BOX_FIELDS``) holds
  {``image_id``: id; ``category_id``: a category's id; ``bbox``: a list of
  four finite numbers x, y, w, h with w, h > 0}. Category names are
  lower-cased. ``load_instances`` checks each box once and keeps it as
  (category name, (x, y, w, h)) under its image id, the box as floats;
  ``load_categories`` reads and checks the categories alone.
- Scene graphs (``sceneparse.scene_graph_to_json``), one file
  ``scene_graphs/<caption id>.json`` per kept caption, which the parse
  stage exports for reading; no stage reads them back (later stages read
  ``corpus.victrs``, see ``binio``). Each is an object with ``caption_id``,
  ``image_id`` (strings) and lists ``objects`` of {``id``: integer;
  ``word``, ``super_class``: strings}, ``attributes`` of {``object_id``:
  integer; ``word``: string} and ``relations`` of {``subject``, ``object``:
  integers naming objects; ``predicate``: string}. An object's ``id`` is its
  position in ``objects`` (0, 1, 2, ...).

Messages name the file and the place, as ``<path>: annotations[3].bbox``.
"""

import json
import math
from dataclasses import dataclass
from functools import cache, cached_property
from operator import itemgetter
from sys import intern
from typing import NamedTuple

ID = {int, str}
CAPTION_FIELDS = {"id": ID, "image_id": ID, "caption": {str}}
CATEGORY_FIELDS = {"id": ID, "name": {str}, "supercategory": {str}}
BOX_FIELDS = {"image_id": ID, "category_id": ID, "bbox": {list}}
# a caption id names files <id>.json, <id>.victre and <id>.victrf: with the
# longest suffix it must fit the 255-byte name limit of common file systems
MAX_ID_BYTES = 255 - len(".victre")


class ConlluError(ValueError):
    """Raised when a CoNLL-U file violates the expected format."""


@cache  # a corpus uses few distinct deprels, and parsing asks for one per token many times
def base_deprel(deprel: str) -> str:
    """A deprel without its subtype: ``nmod`` for ``nmod:on``."""
    return deprel.split(":", 1)[0]


class Token(NamedTuple):
    index: int  # 1-based position within the sentence
    surface: str
    lemma: str
    upos: str
    head: int  # 0 = sentence root
    deprel: str


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


def caption_id_fault(cid: str) -> str | None:
    """Why cid cannot name a stage's files, or None if it can: it must not be
    empty, ``.`` or ``..``, hold ``/``, ``\\`` or NUL, or pass ``MAX_ID_BYTES`` in UTF-8."""
    if cid in ("", ".", "..") or any(c in cid for c in "/\\\0"):
        return f"caption_id {cid!r} cannot be a file name"
    if len(cid.encode("utf-8")) > MAX_ID_BYTES:
        return (f"caption_id of {len(cid.encode('utf-8'))} bytes is too long for a file name "
                f"(at most {MAX_ID_BYTES})")
    return None


def load_conllu(path) -> list[DependencyGraph]:
    """Read a CoNLL-U file into one DependencyGraph per sentence.

    Requires ``# caption_id = <id>`` and ``# image_id = <id>`` comments per
    sentence. Each caption id is used once and names files in later stages
    (``caption_id_fault``).
    Multi-word token ranges (``1-2``) and empty nodes (``1.1``) are skipped.
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
        fault = caption_id_fault(cid)
        if fault:
            raise ConlluError(f"{path}:{id_line}: {fault}")
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


def json_records(doc, key: str | None, fields: dict[str, set[type]],
                 where) -> tuple[tuple, ...]:
    """Each entry of the JSON list ``doc[key]`` (of ``[doc]`` if ``key`` is None) as
    the tuple of its values of ``fields`` (two or more), each value's type one of
    its field's (compared with ``type``, so a bool is no int), checked by column."""
    items = [doc] if key is None else doc.get(key) if type(doc) is dict else None
    if type(items) is not list:
        raise ValueError(f"{where}: must be a JSON object with a list '{key}'")
    try:
        records = tuple(map(itemgetter(*fields), items))
    except (KeyError, TypeError):  # an entry that is not an object, or lacks a field
        i, item = next((i, e) for i, e in enumerate(items)
                       if type(e) is not dict or not fields.keys() <= e.keys())
        fault = (f"missing field '{next(n for n in fields if n not in item)}'"
                 if type(item) is dict else f"must be an object, got {item!r}")
        raise ValueError(f"{where}: {f'{key}[{i}]: ' if key else ''}{fault}") from None
    for (name, want), column in zip(fields.items(), zip(*records)):
        if not set(map(type, column)) <= want:
            i = next(i for i, v in enumerate(column) if type(v) not in want)
            raise ValueError(f"{where}: {f'{key}[{i}].' if key else ''}{name} must be "
                             f"{' or '.join(sorted(t.__name__ for t in want))}, "
                             f"got {column[i]!r}")
    return records


def _json_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except ValueError as e:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: {e}") from None


def load_captions(path) -> dict[str, str]:
    """Caption id -> image id, both as text, from a captions file (see above)."""
    image_of: dict[str, str] = {}
    records = json_records(_json_file(path), "annotations", CAPTION_FIELDS, path)
    for i, (cid, image_id, _) in enumerate(records):
        cid = str(cid)
        if cid in image_of:
            raise ValueError(f"{path}: annotations[{i}]: duplicate caption id {cid}")
        image_of[cid] = str(image_id)
    return image_of


def load_categories(path) -> dict[str, str]:
    """Each category name's super-class, from an instances file; boxes are not read."""
    return _categories(_json_file(path), path)[1]


def _categories(doc, path) -> tuple[dict[str, str], dict[str, str]]:
    cat_name, cat_super = {}, {}  # category id -> name, name -> super-class
    categories = json_records(doc, "categories", CATEGORY_FIELDS, path)
    for i, (cat_id, name, sup) in enumerate(categories):
        name = name.lower()  # object words are lower-cased, and matched to names
        if str(cat_id) in cat_name:
            raise ValueError(f"{path}: categories[{i}]: duplicate category id {cat_id}")
        if cat_super.setdefault(name, sup) != sup:
            raise ValueError(f"{path}: categories[{i}]: {name!r} mapped to two super-classes")
        cat_name[str(cat_id)] = name
    return cat_name, cat_super


def load_instances(path) -> dict[str, list[tuple[str, tuple[float, float, float, float]]]]:
    """Image id -> [(category name, box)], from an instances file; its
    categories are checked as by ``load_categories``."""
    doc = _json_file(path)
    cat_name, _ = _categories(doc, path)
    boxes: dict[str, list] = {}
    annotations = json_records(doc, "annotations", BOX_FIELDS, path)
    for i, (image_id, category_id, bbox) in enumerate(annotations):
        name = cat_name.get(str(category_id))
        if name is None:
            raise ValueError(f"{path}: annotations[{i}]: unknown category_id {category_id!r}")
        boxes.setdefault(str(image_id), []).append(
            (name, _bbox(bbox, f"{path}: annotations[{i}].bbox")))
    return boxes


def _bbox(value: list, where: str) -> tuple[float, float, float, float]:
    """A JSON bbox [x, y, w, h] as floats: four finite numbers with w, h > 0."""
    if not (len(value) == 4 and all(type(v) in (int, float) for v in value)):
        raise ValueError(f"{where} must be 4 numbers, got {value!r}")  # bool is not a number here
    try:
        x, y, w, h = xywh = tuple(map(float, value))
    except OverflowError:  # an integer too large for a float
        raise ValueError(f"{where}: value out of range in {value!r}") from None
    if not all(map(math.isfinite, xywh)):
        raise ValueError(f"{where}: non-finite value in {value!r}")
    if w <= 0 or h <= 0:
        raise ValueError(f"{where}: non-positive size {w:g}x{h:g}")
    return xywh


def tsv_pairs(path, row_format: str):
    """Yield (line_no, key, value) per row of a two-column TSV file, both
    stripped; blank and ``#`` lines are skipped, other widths raise.

    Keys are compared lower-cased, as every loader keys its table. A key
    given again with the same value is allowed (the line-duplication fuzz
    property relies on it); with another value it raises, naming both lines.
    """
    seen: dict[str, tuple[int, str]] = {}  # lower-cased key -> (first line, value)
    with open(path, encoding="utf-8-sig") as f:  # a byte-order mark is not part of a key
        for ln, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{ln}: expected '{row_format}'")
            key, value = parts[0].strip(), parts[1].strip()
            first, was = seen.setdefault(key.lower(), (ln, value))
            if was != value:
                raise ValueError(f"{path}:{ln}: {key!r} maps to {value!r}, "
                                 f"but {path}:{first} maps it to {was!r}")
            yield ln, key, value


def _id_sort_key(cid: str):
    # ASCII-digit ids compare numerically so "9" < "10", then as text ("01" < "1")
    s = str(cid)
    return (0, int(s), s) if s.isascii() and s.isdigit() else (1, 0, s)


def select_richest_caption(scene_graphs) -> str:
    """The caption id of the scene graph with the most objects+relations+attributes.

    Ties break toward the lowest caption id.
    """
    def rank(sg):
        richness = len(sg.objects) + len(sg.relations) + len(sg.attributes)
        return -richness, _id_sort_key(sg.caption_id)

    return min(scene_graphs, key=rank).caption_id
