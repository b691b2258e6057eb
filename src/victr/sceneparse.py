"""Scene graph extraction from dependency parses.

Stages: quantifier expansion (duplicate counted nouns), then rule-based
extraction of objects (nouns), attributes (adjectives) and relations
(verb/preposition links between two objects), then super-class assignment.
"""

import json
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

from .ingest import DependencyGraph, Token, tsv_pairs

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
        if any(self.resolve(v) < 1 for v in (*self.numeral_map.values(),
                                             *self.phrase_map.values())):
            raise ValueError("quantifier counts must be >= 1")
        # each phrase as (words, count) under its first word, longest first
        self.phrases_by_first_word: dict[str, list[tuple[list[str], int]]] = {}
        for key, value in sorted(self.phrase_map.items(), key=lambda kv: -kv[0].count(" ")):
            words = key.split(" ")
            entry = (words, self.resolve(value))
            self.phrases_by_first_word.setdefault(words[0], []).append(entry)

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
    for ln, word, value in tsv_pairs(path, "word<TAB>value"):
        word = word.lower()
        if value.upper() == MANY:
            parsed: int | str = MANY
        else:
            try:
                parsed = int(value)
            except ValueError:
                raise ValueError(f"{path}:{ln}: {value!r} is not an integer or {MANY}") from None
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
    return SuperClassLexicon(
        {lemma: sup for _, lemma, sup in tsv_pairs(path, "lemma<TAB>super_class")}
    )


def _is_plural_noun(tok: Token) -> bool:
    # plural heuristic: inflected surface differs from lemma
    return tok.upos in NOUN_TAGS and tok.surface.lower() != tok.lemma.lower()


def expand_quantifiers(g: DependencyGraph, lex: QuantifierLexicon) -> DependencyGraph:
    """Duplicate counted nouns, consuming the words that count them. The rules, in order:

    - Phrase: left to right, a quantifier phrase (longest first, lower-cased)
      counts the first noun after it that no earlier phrase counted; its
      words are consumed. A phrase with no such noun is left alone.
    - Numeral: a noun's first unconsumed ``nummod``/``det`` dependent found in
      the numeral map, or a ``nummod`` that is a decimal >= 1, counts it
      (replacing a phrase's count) and is consumed. Other numerals stay.
    - Splicing: dependents of consumed tokens attach to the nearest kept
      ancestor; a counted noun takes over the deprel of the topmost consumed
      one ("lots of dogs run": ``dogs`` becomes the subject ``lots`` was).
    - Subject -> object: a bare plural object of a verb takes the count of
      the verb's first counted subject.
    - Adjectives: a counted noun's ``amod`` adjectives precede each copy.
    - Cap: a counted noun is laid out min(count, ``max_duplication``) times.
    - First copy: its other dependents attach to its first copy only.

    Expanding the output again changes nothing, unless a count word stayed: a
    phrase whose noun an earlier phrase took, or a numeral that reaches a
    counted noun only once its own head is spliced out.
    """
    toks = g.tokens
    n = len(toks)
    kids = g.children
    count: dict[int, int] = {}  # counted noun -> count
    consumed: set[int] = set()

    # phrase pass: targets only move right, so the next one is the first noun
    # past both the phrase and the previous target
    phrases = lex.phrases_by_first_word
    lowered = [t.surface.lower() for t in toks]
    nouns = [t.index for t in toks if t.upos in NOUN_TAGS]
    i = last = 0  # i: 0-based scan position; last: the previous target
    while i < n:
        for words, value in phrases.get(lowered[i], ()):
            end = i + len(words)
            if lowered[i:end] != words:
                continue
            j = bisect_left(nouns, max(end, last) + 1)
            if j < len(nouns):
                last = nouns[j]
                count[last] = value
                consumed.update(range(i + 1, end + 1))
                i = end
                break
        else:
            i += 1

    # numeral pass
    for t in toks:
        if t.upos not in NOUN_TAGS or t.index in consumed:
            continue
        for c in kids[t.index]:
            rel = c.base_deprel
            if c.index in consumed or rel not in ("nummod", "det"):
                continue
            value = lex.numeral_map.get(c.lemma.lower())
            if value is None:
                value = lex.numeral_map.get(c.surface.lower())
            if value is None and rel == "nummod" and c.surface.isdecimal():
                value = int(c.surface) or None
            if value is not None:
                count[t.index] = value
                consumed.add(c.index)
                break
    if not count:  # nothing counted, so nothing consumed: the parse stays as it is
        return g

    # splice the consumed tokens out, top down: spliced[i] is token i with
    # its effective head and deprel, None once consumed
    spliced: list[Token | None] = [None] * (n + 1)
    stack = [(t, 0, None) for t in kids[0]]  # (token, effective head, taken-over deprel)
    while stack:
        t, head, over = stack.pop()
        if t.index in consumed:
            stack += [(c, head, over or t.deprel) for c in kids[t.index]]
            continue
        rel = over if over and t.index in count else t.deprel
        spliced[t.index] = (t if head == t.head and rel == t.deprel
                            else Token(t.index, t.surface, t.lemma, t.upos, head, rel))
        stack += [(c, t.index, None) for c in kids[t.index]]
    kept = [t for t in spliced if t is not None]
    eff_kids: list[list[Token]] = [[] for _ in range(n + 1)]
    for t in kept:
        eff_kids[t.head].append(t)

    # subject -> object count
    for v in kept:
        if v.upos != "VERB":
            continue
        subject = next((t.index for t in eff_kids[v.index]
                        if t.index in count and t.base_deprel in SUBJECT_RELS), None)
        if subject is None:
            continue
        for t in eff_kids[v.index]:
            if t.base_deprel in OBJECT_RELS and _is_plural_noun(t) and t.index not in count:
                count[t.index] = count[subject]

    # adjectives copied with their noun ride along; the rest are laid out once
    riders: dict[int, list[Token]] = {}
    laid_out = []
    for t in kept:
        if t.upos == "ADJ" and t.head in count and t.base_deprel == "amod":
            riders.setdefault(t.head, []).append(t)
        else:
            laid_out.append(t)

    # lay out: first the output position of each token's first copy, since
    # heads may point forward, then the tokens
    copies = {i: min(c, lex.max_duplication) for i, c in count.items()}
    first = [0] * (n + 1)
    pos = 0
    for t in laid_out:
        adjs = riders.get(t.index, ())
        for k, a in enumerate(adjs, start=pos + 1):
            first[a.index] = k
        first[t.index] = pos + len(adjs) + 1
        pos += (len(adjs) + 1) * copies.get(t.index, 1)
    out = []
    for t in laid_out:
        adjs = riders.get(t.index, ())
        for _ in range(copies.get(t.index, 1)):
            noun = len(out) + len(adjs) + 1
            out += [Token(k, a.surface, a.lemma, a.upos, noun, a.deprel)
                    for k, a in enumerate(adjs, start=len(out) + 1)]
            out.append(Token(noun, t.surface, t.lemma, t.upos, first[t.head], t.deprel))
    return DependencyGraph(caption_id=g.caption_id, image_id=g.image_id, tokens=tuple(out))


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
    toks = g.tokens
    children = g.children

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
    """The scene graph as one line of compact JSON.

    Compact because any ``indent`` makes json.dumps fall back from its C
    encoder to the pure-Python one, several times slower on every caption.
    """
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
    return json.dumps(doc, separators=(",", ":")) + "\n"


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
