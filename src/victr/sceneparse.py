"""Scene graph extraction from dependency parses.

Stages: quantifier expansion (duplicate counted nouns), then rule-based
extraction of objects (nouns), attributes (adjectives) and relations
(verb/preposition links between two objects), then super-class assignment.
"""

import json
from dataclasses import dataclass, field
from operator import itemgetter

from .ingest import DependencyGraph, Token

NOUN_TAGS = {"NOUN", "PROPN"}
SUBJECT_RELS = {"nsubj", "nsubjpass"}
OBJECT_RELS = {"obj", "dobj", "iobj"}
OBLIQUE_RELS = {"obl", "nmod"}

MANY = "MANY"


@dataclass(frozen=True)
class SceneGraph:
    caption_id: str
    image_id: str
    objects: tuple[tuple[int, str, str], ...]  # (object_id, word, super_class)
    attributes: tuple[tuple[int, str], ...]  # (object_id, attribute_word)
    relations: tuple[tuple[int, str, int], ...]  # (subject_id, predicate, object_id)

    def __post_init__(self):
        ids = [oid for oid, _, _ in self.objects]
        if len(ids) != len(set(ids)):
            raise ValueError(f"caption {self.caption_id}: duplicate object ids")
        known = set(ids)
        for oid, _ in self.attributes:
            if oid not in known:
                raise ValueError(f"caption {self.caption_id}: attribute on unknown object {oid}")
        seen = set()
        for s, p, o in self.relations:
            if s not in known or o not in known:
                raise ValueError(f"caption {self.caption_id}: relation on unknown object")
            if s == o:
                raise ValueError(f"caption {self.caption_id}: self-relation on object {s}")
            if (s, p, o) in seen:
                raise ValueError(f"caption {self.caption_id}: duplicate relation triple")
            seen.add((s, p, o))


@dataclass
class QuantifierLexicon:
    numeral_map: dict[str, int]
    phrase_map: dict[str, int | str]  # value is a count or the MANY sentinel
    many_value: int = 3
    max_duplication: int = 10

    def __post_init__(self):
        if self.many_value < 1 or self.max_duplication < 1:
            raise ValueError("many_value and max_duplication must be >= 1")
        self.phrase_map = {k.lower(): v for k, v in self.phrase_map.items()}

    def resolve(self, value: int | str) -> int:
        return self.many_value if value == MANY else int(value)

    @classmethod
    def default(cls, many_value: int = 3, max_duplication: int = 10):
        numerals = {
            "one": 1, "two": 2, "three": 3, "four": 4, "five": 5, "six": 6,
            "seven": 7, "eight": 8, "nine": 9, "ten": 10, "eleven": 11,
            "twelve": 12, "dozen": 12, "both": 2, "couple": 2, "pair": 2,
        }
        phrases = {
            "both of": 2,
            "a couple of": 2,
            "a pair of": 2,
            "a dozen of": 12,
            "hundreds of": 100,
            "a lot of": MANY,
            "lots of": MANY,
            "a few": MANY,
            "plenty of": MANY,
            "a group of": MANY,
            "a bunch of": MANY,
            "a flock of": MANY,
            "a herd of": MANY,
        }
        return cls(numerals, phrases, many_value=many_value, max_duplication=max_duplication)


@dataclass
class SuperClassLexicon:
    entries: dict[str, str]

    def __post_init__(self):
        self.entries = {k.lower(): v for k, v in self.entries.items()}

    def lookup(self, lemma: str) -> str:
        return self.entries.get(lemma.lower(), "other")


def load_quantifier_lexicon(path, many_value=3, max_duplication=10) -> QuantifierLexicon:
    """TSV rows ``word<TAB>value``; value is an integer or the literal MANY.
    Multi-word entries become phrase rules."""
    numerals: dict[str, int] = {}
    phrases: dict[str, int | str] = {}
    with open(path, encoding="utf-8") as f:
        for ln, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{ln}: expected 'word<TAB>value'")
            word, value = parts[0].strip().lower(), parts[1].strip()
            if value.upper() == MANY:
                parsed: int | str = MANY
            else:
                parsed = int(value)
                if parsed < 1:
                    raise ValueError(f"{path}:{ln}: value must be >= 1")
            if " " in word:
                phrases[word] = parsed
            else:
                if parsed == MANY:
                    raise ValueError(f"{path}:{ln}: MANY is only valid for phrases")
                numerals[word] = parsed
    return QuantifierLexicon(numerals, phrases, many_value=many_value,
                             max_duplication=max_duplication)


def load_superclass_lexicon(path) -> SuperClassLexicon:
    """TSV rows ``lemma<TAB>super_class``."""
    entries = {}
    with open(path, encoding="utf-8") as f:
        for ln, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{ln}: expected 'lemma<TAB>super_class'")
            entries[parts[0].strip()] = parts[1].strip()
    return SuperClassLexicon(entries)


def _is_plural_noun(tok: Token) -> bool:
    # plural heuristic: inflected surface differs from lemma
    return tok.upos in NOUN_TAGS and tok.surface.lower() != tok.lemma.lower()


def expand_quantifiers(g: DependencyGraph, lex: QuantifierLexicon) -> DependencyGraph:
    """Duplicate counted noun nodes (with their adjective dependents).

    Quantifier words and phrases are consumed, so the operation is
    idempotent. A bare plural direct object inherits its subject's count.
    """
    toks = list(g.tokens)
    n = len(toks)
    by_index = {t.index: t for t in toks}
    pending: dict[int, int] = {}  # noun token index -> raw count
    consumed: set[int] = set()

    # phrase pass: longest surface match wins at each position
    lowered = [t.surface.lower() for t in toks]
    phrase_words = sorted(
        ((k.split(" "), v) for k, v in lex.phrase_map.items()),
        key=lambda kv: -len(kv[0]),
    )
    i = 0
    while i < n:
        matched = False
        for words, value in phrase_words:
            k = len(words)
            if i + k > n or lowered[i : i + k] != words:
                continue
            span = {toks[j].index for j in range(i, i + k)}
            if span & consumed:
                continue
            target = next(
                (t for t in toks[i + k :] if t.upos in NOUN_TAGS
                 and t.index not in consumed and t.index not in pending),
                None,
            )
            if target is None:
                continue
            pending[target.index] = lex.resolve(value)
            consumed |= span
            i += k
            matched = True
            break
        if not matched:
            i += 1

    # numeral pass: nummod/det children drawn from the numeral map
    for t in toks:
        if t.upos not in NOUN_TAGS or t.index in pending or t.index in consumed:
            continue
        for c in toks:
            if c.head != t.index or c.index in consumed:
                continue
            rel = c.base_deprel
            if rel not in ("nummod", "det"):
                continue
            value = lex.numeral_map.get(c.lemma.lower())
            if value is None:
                value = lex.numeral_map.get(c.surface.lower())
            if value is None and rel == "nummod" and c.surface.isdigit():
                value = int(c.surface)
            if value is None:
                continue  # unknown quantifier words are ignored
            pending[t.index] = value
            consumed.add(c.index)
            break

    # effective structure once consumed tokens are spliced out
    eff_head: dict[int, int] = {}
    eff_rel: dict[int, str] = {}
    for t in toks:
        if t.index in consumed:
            continue
        head, rel = t.head, t.deprel
        while head != 0 and head in consumed:
            anc = by_index[head]
            if t.index in pending:
                rel = anc.deprel  # the counted noun takes over its governor's role
            head = anc.head
        eff_head[t.index] = head
        eff_rel[t.index] = rel

    # a plural direct object inherits the count of its verb's counted subject
    for v in toks:
        if v.upos != "VERB" or v.index in consumed:
            continue
        subj_count = None
        for t in toks:
            if (t.index in eff_head and eff_head[t.index] == v.index
                    and eff_rel[t.index].split(":", 1)[0] in SUBJECT_RELS
                    and t.index in pending):
                subj_count = pending[t.index]
                break
        if subj_count is None:
            continue
        for t in toks:
            if (t.index in eff_head and eff_head[t.index] == v.index
                    and eff_rel[t.index].split(":", 1)[0] in OBJECT_RELS
                    and _is_plural_noun(t) and t.index not in pending):
                pending[t.index] = subj_count

    # adjective dependents ride along with each copy of their noun
    deferred: dict[int, list[Token]] = {idx: [] for idx in pending}
    deferred_ids: set[int] = set()
    for t in toks:
        if t.index in consumed or t.upos != "ADJ":
            continue
        head = eff_head.get(t.index, 0)
        if head in pending and eff_rel[t.index].split(":", 1)[0] == "amod":
            deferred[head].append(t)
            deferred_ids.add(t.index)

    # emit: (surface, lemma, upos, deprel, head_ref); head_ref is an original
    # token index, 0 for root, or ("new", i) pointing at an emitted position
    emitted: list[tuple] = []
    first_pos: dict[int, int] = {}

    def emit(tok: Token, rel: str, head_ref):
        emitted.append((tok.surface, tok.lemma, tok.upos, rel, head_ref))
        if tok.index not in first_pos:
            first_pos[tok.index] = len(emitted) - 1

    for t in toks:
        if t.index in consumed or t.index in deferred_ids:
            continue
        if t.index in pending:
            copies = min(pending[t.index], lex.max_duplication)
            for _ in range(copies):
                for adj in deferred[t.index]:
                    emit(adj, eff_rel[adj.index], ("new", None))  # fixed up below
                noun_pos = len(emitted)
                emit(t, eff_rel[t.index], eff_head[t.index])
                for back in range(len(deferred[t.index])):
                    pos = noun_pos - 1 - back
                    surface, lemma, upos, rel, _ = emitted[pos]
                    emitted[pos] = (surface, lemma, upos, rel, ("new", noun_pos))
        else:
            emit(t, eff_rel[t.index], eff_head[t.index])

    tokens = []
    for pos, (surface, lemma, upos, rel, head_ref) in enumerate(emitted):
        if isinstance(head_ref, tuple):
            head = head_ref[1] + 1
        elif head_ref == 0:
            head = 0
        else:
            head = first_pos[head_ref] + 1
        tokens.append(
            Token(index=pos + 1, surface=surface, lemma=lemma, upos=upos,
                  head=head, deprel=rel)
        )
    return DependencyGraph(caption_id=g.caption_id, image_id=g.image_id,
                           tokens=tuple(tokens))


def _case_marker(tok_children: list[Token]) -> Token | None:
    for c in tok_children:
        if c.base_deprel == "case":
            return c
    return None


def _deprel_prep(tok: Token) -> str | None:
    # collapsed-style labels like nmod:on carry the preposition as a suffix
    if ":" in tok.deprel:
        suffix = tok.deprel.split(":", 1)[1]
        if suffix and suffix not in ("poss", "tmod", "npmod", "agent"):
            return suffix
    return None


def extract_scene_graph(g: DependencyGraph) -> SceneGraph:
    """Derive objects, attributes and relations from an expanded parse.

    Objects are nouns; attributes are adjectives modifying (or predicated
    of) an object; relations come from verb frames (subject + object),
    noun-noun preposition links, and verb + oblique ("sit on") frames.
    """
    toks = list(g.tokens)
    children: dict[int, list[Token]] = {t.index: [] for t in toks}
    by_index = {t.index: t for t in toks}
    for t in toks:
        if t.head in children:
            children[t.head].append(t)

    object_id: dict[int, int] = {}
    objects = []
    for t in toks:
        if t.upos in NOUN_TAGS:
            object_id[t.index] = len(objects)
            objects.append((len(objects), t.lemma.lower(), ""))

    attributes = []
    attr_seen = set()

    def add_attr(oid: int, word: str):
        if (oid, word) not in attr_seen:
            attr_seen.add((oid, word))
            attributes.append((oid, word))

    relations = []
    rel_seen = set()

    def add_rel(s_idx: int, pred: str, o_idx: int):
        s, o = object_id[s_idx], object_id[o_idx]
        if s == o or (s, pred, o) in rel_seen:
            return
        rel_seen.add((s, pred, o))
        relations.append((s, pred, o))

    for t in toks:
        if t.upos == "ADJ":
            if t.base_deprel == "amod" and t.head in object_id:
                add_attr(object_id[t.head], t.lemma.lower())
            else:
                # copular predication: "the dog is brown"
                for c in children[t.index]:
                    if c.base_deprel in SUBJECT_RELS and c.index in object_id:
                        add_attr(object_id[c.index], t.lemma.lower())

    for v in toks:
        if v.upos != "VERB":
            continue
        kids = children[v.index]
        subjects = [c for c in kids if c.base_deprel in SUBJECT_RELS and c.index in object_id]
        direct = [c for c in kids if c.base_deprel in OBJECT_RELS and c.index in object_id]
        obliques = [c for c in kids if c.base_deprel in OBLIQUE_RELS and c.index in object_id]
        for s in subjects:
            for o in direct:
                add_rel(s.index, v.lemma.lower(), o.index)
            for o in obliques:
                case = _case_marker(children[o.index])
                prep = case.lemma.lower() if case else _deprel_prep(o)
                if prep:
                    add_rel(s.index, f"{v.lemma.lower()} {prep}", o.index)

    for o in toks:
        if o.index not in object_id:
            continue
        case = _case_marker(children[o.index])
        prep = case.lemma.lower() if case else None
        if o.base_deprel == "nmod" and o.head in object_id:
            prep = prep or _deprel_prep(o)
            if prep:
                add_rel(o.head, prep, o.index)
        elif prep is not None:
            # predicative nominal: "the man is on the skateboard"
            subj = next(
                (c for c in children[o.index]
                 if c.base_deprel in SUBJECT_RELS and c.index in object_id),
                None,
            )
            if subj is not None:
                add_rel(subj.index, prep, o.index)

    return SceneGraph(
        caption_id=g.caption_id,
        image_id=g.image_id,
        objects=tuple(objects),
        attributes=tuple(attributes),
        relations=tuple(relations),
    )


def assign_super_classes(sg: SceneGraph, lex: SuperClassLexicon) -> SceneGraph:
    objects = tuple((oid, word, lex.lookup(word)) for oid, word, _ in sg.objects)
    return SceneGraph(
        caption_id=sg.caption_id,
        image_id=sg.image_id,
        objects=objects,
        attributes=sg.attributes,
        relations=sg.relations,
    )


def parse_caption(g: DependencyGraph, qlex: QuantifierLexicon,
                  slex: SuperClassLexicon) -> SceneGraph:
    """Full per-caption pipeline: expand, extract, assign super-classes."""
    return assign_super_classes(extract_scene_graph(expand_quantifiers(g, qlex)), slex)


def scene_graph_to_json(sg: SceneGraph) -> str:
    doc = {
        "caption_id": sg.caption_id,
        "image_id": sg.image_id,
        "objects": [
            {"id": oid, "word": word, "super_class": sup}
            for oid, word, sup in sg.objects
        ],
        "attributes": [
            {"object_id": oid, "word": word} for oid, word in sg.attributes
        ],
        "relations": [
            {"subject": s, "predicate": p, "object": o} for s, p, o in sg.relations
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# list key -> the fields of each of its entries and their JSON types
_SCENE_GRAPH_LISTS = {
    "objects": (("id", "word", "super_class"), (int, str, str)),
    "attributes": (("object_id", "word"), (int, str)),
    "relations": (("subject", "predicate", "object"), (int, str, int)),
}


def _records(doc: dict, key: str) -> tuple:
    """doc[key] as one tuple of field values per entry, each checked for its type."""
    items = doc[key]
    names, types = _SCENE_GRAPH_LISTS[key]
    if type(items) is not list:
        raise ValueError(f"{key!r} must be a list, got {type(items).__name__}")
    try:
        records = tuple(map(itemgetter(*names), items))
    except (KeyError, TypeError):
        raise ValueError(
            f"every entry of {key!r} must be an object with {', '.join(names)}"
        ) from None
    for name, want, column in zip(names, types, zip(*records)):
        if set(map(type, column)) != {want}:  # type, not isinstance: no true/false ids
            n = next(i for i, v in enumerate(column) if type(v) is not want)
            raise ValueError(f"{key}[{n}].{name} must be {want.__name__}, got {column[n]!r}")
    return records


def scene_graph_from_json(text: str) -> SceneGraph:
    """Inverse of scene_graph_to_json; ValueError on any other shape or type."""
    doc = json.loads(text)
    if type(doc) is not dict:
        raise ValueError(f"scene graph must be a JSON object, got {type(doc).__name__}")
    missing = [k for k in ("caption_id", "image_id", *_SCENE_GRAPH_LISTS) if k not in doc]
    if missing:
        raise ValueError(f"scene graph lacks {', '.join(map(repr, missing))}")
    for key in ("caption_id", "image_id"):
        if type(doc[key]) is not str:
            raise ValueError(f"{key!r} must be str, got {doc[key]!r}")
    return SceneGraph(
        caption_id=doc["caption_id"],
        image_id=doc["image_id"],
        objects=_records(doc, "objects"),
        attributes=_records(doc, "attributes"),
        relations=_records(doc, "relations"),
    )
