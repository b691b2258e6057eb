"""Scene graph extraction from dependency parses.

Two stages, after Schuster et al. (2015). Quantifier expansion
(``expand_quantifiers``) counts the nouns that numerals and quantifier
phrases count and splices those words out of the tree; no token is copied,
and the function keeps its name because the benchmark's tracer wraps it by
that name. Rule-based extraction (``extract_scene_graph``) then derives
objects (nouns, each with its super-class), attributes (adjectives) and
relations (verb/preposition links between two objects). A noun counted k
times (at most ``max_duplication``) gives k consecutive objects, its copies;
its ``amod`` adjectives go on every copy, and every relation rule relates
every copy of its subject to every copy of its object, subject copies first.
"""

import json
from bisect import bisect_left
from dataclasses import dataclass

from .ingest import DependencyGraph, Token, base_deprel, json_records, tsv_pairs

NOUN_TAGS = {"NOUN", "PROPN"}
SUBJECT_RELS = {"nsubj", "nsubjpass"}
OBJECT_RELS = {"obj", "dobj", "iobj"}
OBLIQUE_RELS = {"obl", "nmod"}

MANY = "MANY"


@dataclass(frozen=True)
class SceneGraph:
    caption_id: str
    image_id: str
    objects: tuple[tuple[int, str, str], ...]  # (object_id, word, super_class); objects[id] has id
    attributes: tuple[tuple[int, str], ...]  # (object_id, attribute_word)
    relations: tuple[tuple[int, str, int], ...]  # (subject_id, predicate, object_id)

    def __post_init__(self):
        for i, (oid, _, _) in enumerate(self.objects):
            if oid != i:
                raise ValueError(f"caption {self.caption_id}: objects[{i}] has id {oid}; "
                                 "an object's id must be its position")
        known = range(len(self.objects))
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
    many_value: int
    max_duplication: int

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
    def default(cls, many_value: int, max_duplication: int):
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


def load_quantifier_lexicon(path, many_value: int, max_duplication: int) -> QuantifierLexicon:
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
    return QuantifierLexicon(numerals, phrases, many_value, max_duplication)


def load_superclass_lexicon(path) -> SuperClassLexicon:
    """TSV rows ``lemma<TAB>super_class``."""
    return SuperClassLexicon(
        {lemma: sup for _, lemma, sup in tsv_pairs(path, "lemma<TAB>super_class")}
    )


def _is_plural_noun(tok: Token) -> bool:
    # plural heuristic: inflected surface differs from lemma
    return tok.upos in NOUN_TAGS and tok.surface.lower() != tok.lemma.lower()


@dataclass(frozen=True)
class CountedParse:
    """A parse with its count words spliced out. ``tokens`` are the kept
    tokens in order, each with its index in the source parse and its
    effective head and deprel; ``children`` lists each one's kept dependents,
    indexed like ``DependencyGraph.children``; ``copies`` gives each counted
    noun's number of objects, min(count, ``max_duplication``)."""

    caption_id: str
    image_id: str
    tokens: tuple[Token, ...]
    children: list[list[Token]]
    copies: dict[int, int]


def expand_quantifiers(g: DependencyGraph,
                       lex: QuantifierLexicon) -> DependencyGraph | CountedParse:
    """Count the nouns that quantifier words count, consuming those words.

    The rules, in order:

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
    - Cap: a counted noun stands for min(count, ``max_duplication``) objects.

    Returns ``g`` itself when nothing is counted, else a ``CountedParse``.
    No token is copied: the name stays because the benchmark's tracer wraps
    this function by it.
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
            rel = base_deprel(c.deprel)
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
                        if t.index in count and base_deprel(t.deprel) in SUBJECT_RELS), None)
        if subject is None:
            continue
        for t in eff_kids[v.index]:
            if (base_deprel(t.deprel) in OBJECT_RELS and _is_plural_noun(t)
                    and t.index not in count):
                count[t.index] = count[subject]

    return CountedParse(g.caption_id, g.image_id, tuple(kept), eff_kids,
                        {i: min(c, lex.max_duplication) for i, c in count.items()
                         if spliced[i]})  # a later phrase may consume a counted noun


def _case_marker(tok_children: list[Token]) -> Token | None:
    for c in tok_children:
        if base_deprel(c.deprel) == "case":
            return c
    return None


def _deprel_prep(tok: Token) -> str | None:
    # collapsed-style labels like nmod:on carry the preposition as a suffix
    if ":" in tok.deprel:
        suffix = tok.deprel.split(":", 1)[1]
        if suffix and suffix not in ("poss", "tmod", "npmod", "agent"):
            return suffix
    return None


def extract_scene_graph(g: DependencyGraph | CountedParse,
                        slex: SuperClassLexicon) -> SceneGraph:
    """Derive objects, attributes and relations from a parse.

    Objects are nouns, each with its lemma's super-class in ``slex``; a noun
    that a ``CountedParse`` counts k times gives k consecutive objects, its
    copies (see the module docstring). Attributes are adjectives modifying
    (or predicated of) an object; relations come from verb frames (subject +
    object), verb + oblique ("sit on") frames, noun-noun preposition links
    and predicative nominals.
    """
    toks = g.tokens
    children = g.children
    copies = g.copies if isinstance(g, CountedParse) else {}

    ids: dict[int, range] = {}  # noun -> the ids of its objects
    objects = []
    for t in toks:
        if t.upos in NOUN_TAGS:
            word = t.lemma.lower()
            sup = slex.lookup(word)
            first = len(objects)
            objects += [(k, word, sup) for k in range(first, first + copies.get(t.index, 1))]
            ids[t.index] = range(first, len(objects))

    attributes = []
    attr_seen = set()

    def add_attr(oid: int, word: str):
        if (oid, word) not in attr_seen:
            attr_seen.add((oid, word))
            attributes.append((oid, word))

    for t in toks:
        if t.upos == "ADJ":
            word = t.lemma.lower()
            if base_deprel(t.deprel) == "amod" and t.head in ids:
                if t.head not in copies:  # a counted noun's go on each copy, below
                    add_attr(ids[t.head][0], word)
            else:
                # copular predication: "the dog is brown"
                for c in children[t.index]:
                    if base_deprel(c.deprel) in SUBJECT_RELS and c.index in ids:
                        for oid in ids[c.index]:
                            add_attr(oid, word)
        elif t.index in copies:
            adjectives = [a.lemma.lower() for a in children[t.index]
                          if a.upos == "ADJ" and base_deprel(a.deprel) == "amod"]
            for oid in ids[t.index]:
                for word in adjectives:
                    add_attr(oid, word)

    relations = []

    def relate(s: int, pred: str, o: int):
        relations.extend((si, pred, oi) for si in ids[s] for oi in ids[o])

    for v in toks:
        if v.upos != "VERB":
            continue
        kids = [(base_deprel(c.deprel), c) for c in children[v.index] if c.index in ids]
        verb = v.lemma.lower()
        targets = [(verb, oi) for rel, o in kids if rel in OBJECT_RELS for oi in ids[o.index]]
        for rel, o in kids:
            if rel in OBLIQUE_RELS:
                case = _case_marker(children[o.index])
                prep = case.lemma.lower() if case else _deprel_prep(o)
                if prep:
                    targets += [(f"{verb} {prep}", oi) for oi in ids[o.index]]
        # each subject copy takes every target in turn: the relation order
        # the scene-graph files have always had
        relations += [(si, pred, oi) for rel, s in kids if rel in SUBJECT_RELS
                      for si in ids[s.index] for pred, oi in targets]

    for o in toks:
        if o.index not in ids:
            continue
        case = _case_marker(children[o.index])
        prep = case.lemma.lower() if case else None
        if base_deprel(o.deprel) == "nmod" and o.head in ids:
            prep = prep or _deprel_prep(o)
            if prep:
                relate(o.head, prep, o.index)
        elif prep is not None:
            # predicative nominal: "the man is on the skateboard"
            subj = next((c for c in children[o.index]
                         if base_deprel(c.deprel) in SUBJECT_RELS and c.index in ids), None)
            if subj is not None:
                relate(subj.index, prep, o.index)

    return SceneGraph(
        caption_id=g.caption_id,
        image_id=g.image_id,
        objects=tuple(objects),
        attributes=tuple(attributes),
        relations=tuple(relations),
    )


def parse_caption(g: DependencyGraph, qlex: QuantifierLexicon,
                  slex: SuperClassLexicon) -> SceneGraph:
    """Full per-caption pipeline: expand quantifiers, then extract the scene graph."""
    return extract_scene_graph(expand_quantifiers(g, qlex), slex)


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


# the JSON types of a scene graph's own fields, and of each entry of its lists
_SCENE_GRAPH_IDS = {"caption_id": {str}, "image_id": {str}}
_SCENE_GRAPH_LISTS = {
    "objects": {"id": {int}, "word": {str}, "super_class": {str}},
    "attributes": {"object_id": {int}, "word": {str}},
    "relations": {"subject": {int}, "predicate": {str}, "object": {int}},
}


def scene_graph_from_json(text: str) -> SceneGraph:
    """Inverse of scene_graph_to_json; ValueError on any other shape or type."""
    doc = json.loads(text)
    ((caption_id, image_id),) = json_records(doc, None, _SCENE_GRAPH_IDS, "scene graph")
    return SceneGraph(caption_id, image_id, *(json_records(doc, key, fields, "scene graph")
                                              for key, fields in _SCENE_GRAPH_LISTS.items()))
