"""The quantifier expansion and scene-graph extraction that wrote each counted
noun out as token copies, kept as the reference the direct extraction is
compared against.

Both functions are verbatim but for their names and one line: the expanded
graph is built with the checking ``DependencyGraph`` constructor, which
gives the same graph.
"""

from bisect import bisect_left

from victr.ingest import DependencyGraph, Token, base_deprel
from victr.sceneparse import (
    NOUN_TAGS,
    OBJECT_RELS,
    OBLIQUE_RELS,
    SUBJECT_RELS,
    QuantifierLexicon,
    SceneGraph,
    SuperClassLexicon,
    _is_plural_noun,
)


def copy_layout_expand_quantifiers(g: DependencyGraph, lex: QuantifierLexicon) -> DependencyGraph:
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

    # adjectives copied with their noun ride along; the rest are laid out once
    riders: dict[int, list[Token]] = {}
    laid_out = []
    for t in kept:
        if t.upos == "ADJ" and t.head in count and base_deprel(t.deprel) == "amod":
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
    # a tree by construction: copies and riders point at first copies of kept tokens
    return DependencyGraph(g.caption_id, g.image_id, tuple(out))


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


def copy_layout_extract_scene_graph(g: DependencyGraph, slex: SuperClassLexicon) -> SceneGraph:
    """Derive objects, attributes and relations from an expanded parse.

    Objects are nouns, each with its lemma's super-class in ``slex``;
    attributes are adjectives modifying (or predicated of) an object;
    relations come from verb frames (subject + object), noun-noun
    preposition links, and verb + oblique ("sit on") frames.
    """
    toks = g.tokens
    children = g.children

    object_id: dict[int, int] = {}
    objects = []
    for t in toks:
        if t.upos in NOUN_TAGS:
            word = t.lemma.lower()
            object_id[t.index] = len(objects)
            objects.append((len(objects), word, slex.lookup(word)))

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
            if base_deprel(t.deprel) == "amod" and t.head in object_id:
                add_attr(object_id[t.head], t.lemma.lower())
            else:
                # copular predication: "the dog is brown"
                for c in children[t.index]:
                    if base_deprel(c.deprel) in SUBJECT_RELS and c.index in object_id:
                        add_attr(object_id[c.index], t.lemma.lower())

    for v in toks:
        if v.upos != "VERB":
            continue
        kids = [(base_deprel(c.deprel), c) for c in children[v.index] if c.index in object_id]
        subjects = [c for rel, c in kids if rel in SUBJECT_RELS]
        direct = [c for rel, c in kids if rel in OBJECT_RELS]
        obliques = [c for rel, c in kids if rel in OBLIQUE_RELS]
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
        if base_deprel(o.deprel) == "nmod" and o.head in object_id:
            prep = prep or _deprel_prep(o)
            if prep:
                add_rel(o.head, prep, o.index)
        elif prep is not None:
            # predicative nominal: "the man is on the skateboard"
            subj = next(
                (c for c in children[o.index]
                 if base_deprel(c.deprel) in SUBJECT_RELS and c.index in object_id),
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
