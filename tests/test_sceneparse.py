import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from victr.ingest import DependencyGraph, Token
from victr.sceneparse import (
    NOUN_TAGS,
    OBJECT_RELS,
    SUBJECT_RELS,
    QuantifierLexicon,
    SceneGraph,
    SuperClassLexicon,
    assign_super_classes,
    expand_quantifiers,
    extract_scene_graph,
    load_quantifier_lexicon,
    scene_graph_from_json,
    scene_graph_to_json,
)
from victr.sceneparse import _is_plural_noun


def _dep(rows, cid="1", iid="1"):
    tokens = tuple(
        Token(index=i + 1, surface=s, lemma=l, upos=u, head=h, deprel=d)
        for i, (s, l, u, h, d) in enumerate(rows)
    )
    return DependencyGraph(caption_id=cid, image_id=iid, tokens=tokens)


def _object_words(sg):
    return sorted(w for _, w, _ in sg.objects)


def test_contrast_pair_plural_object(toy_dep_by_caption, qlex):
    # "two men are riding brown horses" -> 2 man + 2 horse
    sg = extract_scene_graph(expand_quantifiers(toy_dep_by_caption["101"], qlex))
    words = _object_words(sg)
    assert words.count("man") == 2 and words.count("horse") == 2
    # every horse copy keeps its own color
    horse_ids = {oid for oid, w, _ in sg.objects if w == "horse"}
    attr_ids = {oid for oid, w in sg.attributes if w == "brown"}
    assert horse_ids == attr_ids


def test_contrast_pair_singular_object(toy_dep_by_caption, qlex):
    # "two men are riding a brown horse" -> 2 man + 1 horse
    sg = extract_scene_graph(expand_quantifiers(toy_dep_by_caption["102"], qlex))
    words = _object_words(sg)
    assert words.count("man") == 2 and words.count("horse") == 1


def test_dozen_phrase_expands_to_twelve(toy_dep_by_caption):
    lex = QuantifierLexicon.default(max_duplication=12)
    sg = extract_scene_graph(expand_quantifiers(toy_dep_by_caption["105"], lex))
    assert _object_words(sg).count("egg") == 12
    # the phrase head noun "dozen" is consumed, not an object
    assert "dozen" not in _object_words(sg)


def test_max_duplication_caps(toy_dep_by_caption, qlex):
    sg = extract_scene_graph(expand_quantifiers(toy_dep_by_caption["105"], qlex))
    assert _object_words(sg).count("egg") == qlex.max_duplication == 10


def test_both_of_phrase_counts_subject_and_object(toy_dep_by_caption, qlex):
    # "both of the men hold kites": men -> 2, plural object kites follows
    sg = extract_scene_graph(expand_quantifiers(toy_dep_by_caption["106"], qlex))
    words = _object_words(sg)
    assert words.count("man") == 2 and words.count("kite") == 2


def test_many_phrase_uses_configured_value(toy_dep_by_caption):
    lex = QuantifierLexicon.default(many_value=4)
    sg = extract_scene_graph(expand_quantifiers(toy_dep_by_caption["107"], lex))
    assert _object_words(sg).count("person") == 4


def test_unknown_quantifiers_ignored():
    g = _dep(
        [
            ("umpteen", "umpteen", "NUM", 2, "nummod"),
            ("dogs", "dog", "NOUN", 3, "nsubj"),
            ("bark", "bark", "VERB", 0, "root"),
        ]
    )
    out = expand_quantifiers(g, QuantifierLexicon.default())
    assert [t.surface for t in out.tokens] == ["umpteen", "dogs", "bark"]


def test_digit_nummod():
    g = _dep(
        [
            ("3", "3", "NUM", 2, "nummod"),
            ("dogs", "dog", "NOUN", 3, "nsubj"),
            ("bark", "bark", "VERB", 0, "root"),
        ]
    )
    out = expand_quantifiers(g, QuantifierLexicon.default())
    assert [t.lemma for t in out.tokens] == ["dog", "dog", "dog", "bark"]


@pytest.mark.parametrize("cid", ["101", "102", "105", "106", "107", "112", "115", "119"])
def test_expand_idempotent(toy_dep_by_caption, qlex, cid):
    once = expand_quantifiers(toy_dep_by_caption[cid], qlex)
    twice = expand_quantifiers(once, qlex)
    assert twice == once


def test_expanded_object_count_arithmetic(toy_dep_by_caption):
    # quantified nouns contribute min(n, cap); the rest contribute 1
    lex = QuantifierLexicon.default(max_duplication=5)
    g = toy_dep_by_caption["112"]  # three dogs chase a ball
    sg = extract_scene_graph(expand_quantifiers(g, lex))
    assert len(sg.objects) == 3 + 1


def test_extract_man_rides_horse(toy_dep_by_caption, qlex):
    sg = extract_scene_graph(expand_quantifiers(toy_dep_by_caption["104"], qlex))
    assert _object_words(sg) == ["horse", "man"]
    words = dict((oid, w) for oid, w, _ in sg.objects)
    assert [(words[s], p, words[o]) for s, p, o in sg.relations] == [
        ("man", "ride", "horse")
    ]


def test_extract_adjective_attribute():
    g = _dep(
        [
            ("a", "a", "DET", 3, "det"),
            ("brown", "brown", "ADJ", 3, "amod"),
            ("dog", "dog", "NOUN", 0, "root"),
        ]
    )
    sg = extract_scene_graph(g)
    assert _object_words(sg) == ["dog"]
    assert sg.attributes == ((0, "brown"),)
    assert sg.relations == ()


def test_extract_skateboard_caption(toy_dep_by_caption, qlex):
    # hand-traced: man/skateboard/dog, (man,on,skateboard), (man,with,dog), (dog,brown)
    sg = extract_scene_graph(expand_quantifiers(toy_dep_by_caption["103"], qlex))
    words = dict((oid, w) for oid, w, _ in sg.objects)
    assert _object_words(sg) == ["dog", "man", "skateboard"]
    triples = {(words[s], p, words[o]) for s, p, o in sg.relations}
    assert triples == {("man", "on", "skateboard"), ("man", "with", "dog")}
    assert [(words[oid], w) for oid, w in sg.attributes] == [("dog", "brown")]


def test_extract_copular_attribute(toy_dep_by_caption, qlex):
    sg = extract_scene_graph(toy_dep_by_caption["108"])
    words = dict((oid, w) for oid, w, _ in sg.objects)
    assert [(words[oid], w) for oid, w in sg.attributes] == [("dog", "brown")]


def test_extract_verb_preposition_relation(toy_dep_by_caption, qlex):
    sg = extract_scene_graph(toy_dep_by_caption["109"])
    words = dict((oid, w) for oid, w, _ in sg.objects)
    assert [(words[s], p, words[o]) for s, p, o in sg.relations] == [
        ("cat", "sit on", "table")
    ]


def test_extract_predicative_nominal(toy_dep_by_caption, qlex):
    # "the man is on the skateboard"
    sg = extract_scene_graph(toy_dep_by_caption["113"])
    words = dict((oid, w) for oid, w, _ in sg.objects)
    assert [(words[s], p, words[o]) for s, p, o in sg.relations] == [
        ("man", "on", "skateboard")
    ]


def test_extract_collapsed_deprel_suffix():
    # enhanced-style label nmod:on without an explicit case token
    g = _dep(
        [
            ("cup", "cup", "NOUN", 0, "root"),
            ("table", "table", "NOUN", 1, "nmod:on"),
        ]
    )
    sg = extract_scene_graph(g)
    words = dict((oid, w) for oid, w, _ in sg.objects)
    assert [(words[s], p, words[o]) for s, p, o in sg.relations] == [
        ("cup", "on", "table")
    ]


def test_no_nouns_empty_graph():
    g = _dep([("run", "run", "VERB", 0, "root")])
    sg = extract_scene_graph(g)
    assert sg.objects == () and sg.relations == () and sg.attributes == ()


def test_referential_integrity_and_determinism(toy_dep_graphs, qlex):
    for g in toy_dep_graphs:
        a = extract_scene_graph(expand_quantifiers(g, qlex))
        b = extract_scene_graph(expand_quantifiers(g, qlex))
        assert a == b
        ids = {oid for oid, _, _ in a.objects}
        assert all(oid in ids for oid, _ in a.attributes)
        assert all(s in ids and o in ids for s, _, o in a.relations)
        assert ids == set(range(len(a.objects)))


def test_assign_super_classes(slex):
    from victr.sceneparse import SceneGraph

    sg = SceneGraph(
        caption_id="1", image_id="1",
        objects=((0, "dog", ""), (1, "zzyzx", ""), (2, "truck", ""),
                 (3, "boat", ""), (4, "train", "")),
        attributes=(), relations=(),
    )
    out = assign_super_classes(sg, slex)
    supers = {w: s for _, w, s in out.objects}
    assert supers["dog"] == "animal"
    assert supers["zzyzx"] == "other"
    assert supers["truck"] == supers["boat"] == supers["train"] == "vehicle"


def test_superclass_lookup_case_insensitive():
    lex = SuperClassLexicon({"Dog": "animal"})
    assert lex.lookup("DOG") == "animal"


def test_quantifier_lexicon_tsv_round_trip(tmp_path, toy_paths):
    lex = load_quantifier_lexicon(toy_paths["quantifiers"])
    assert lex.numeral_map["two"] == 2
    assert lex.phrase_map["a dozen of"] == 12
    assert lex.phrase_map["a lot of"] == "MANY"


def test_scene_graph_json_round_trip(toy_dep_by_caption, qlex, slex):
    sg = assign_super_classes(
        extract_scene_graph(expand_quantifiers(toy_dep_by_caption["101"], qlex)), slex
    )
    assert scene_graph_from_json(scene_graph_to_json(sg)) == sg


# words that JSON must escape or that fall outside ASCII, mixed with any others
_ESCAPED = '"\\/\b\f\n\r\t\x00\x1f\x7f é漢\u2028\U0001f40e'
_JSON_WORDS = st.text(st.one_of(st.sampled_from(_ESCAPED), st.characters()), max_size=6)


@st.composite
def _scene_graphs(draw):
    ids = draw(st.lists(st.integers(-3, 10**12), unique=True, max_size=4))
    objects = tuple((oid, draw(_JSON_WORDS), draw(_JSON_WORDS)) for oid in ids)
    attributes = relations = ()
    if ids:
        attributes = tuple(draw(st.lists(st.tuples(st.sampled_from(ids), _JSON_WORDS),
                                         max_size=3)))
    if len(ids) >= 2:
        triple = st.tuples(st.permutations(ids), _JSON_WORDS).map(
            lambda t: (t[0][0], t[1], t[0][1]))  # two distinct objects
        relations = tuple(draw(st.lists(triple, unique=True, max_size=3)))
    return SceneGraph(caption_id=draw(_JSON_WORDS), image_id=draw(_JSON_WORDS),
                      objects=objects, attributes=attributes, relations=relations)


def _indented_json(sg):
    """The earlier two-space-indented rendering, kept to pin the document."""
    doc = {
        "caption_id": sg.caption_id,
        "image_id": sg.image_id,
        "objects": [{"id": oid, "word": word, "super_class": sup}
                    for oid, word, sup in sg.objects],
        "attributes": [{"object_id": oid, "word": word} for oid, word in sg.attributes],
        "relations": [{"subject": s, "predicate": p, "object": o}
                      for s, p, o in sg.relations],
    }
    return json.dumps(doc, indent=2) + "\n"


@given(_scene_graphs())
def test_scene_graph_json_round_trip_any_words(sg):
    assert scene_graph_from_json(scene_graph_to_json(sg)) == sg


@given(_scene_graphs())
def test_scene_graph_json_is_one_ascii_line_of_the_indented_document(sg):
    text = scene_graph_to_json(sg)
    assert text.endswith("\n") and "\n" not in text[:-1]
    assert text.isascii()
    # object_pairs_hook=list keeps key order, which dict equality ignores
    assert (json.loads(text, object_pairs_hook=list)
            == json.loads(_indented_json(sg), object_pairs_hook=list))


@pytest.mark.parametrize("numeral", ["0", "00", "\u00b2"])
def test_digit_numeral_below_one_is_ignored(numeral):
    # "0 dogs on the grass": the noun and its relation stay, and so does the
    # numeral, like any other word that is not a count ("²" is a digit that
    # is not a decimal number)
    g = _dep(
        [
            (numeral, numeral, "NUM", 2, "nummod"),
            ("dogs", "dog", "NOUN", 0, "root"),
            ("on", "on", "ADP", 5, "case"),
            ("the", "the", "DET", 5, "det"),
            ("grass", "grass", "NOUN", 2, "nmod"),
        ]
    )
    out = expand_quantifiers(g, QuantifierLexicon.default())
    assert out == g
    sg = extract_scene_graph(out)
    assert sg.objects == ((0, "dog", ""), (1, "grass", "")) and sg.relations == ((0, "on", 1),)


def test_numeral_replaces_phrase_count():
    # "a group of five dogs run": five dogs, not MANY = 3, and nothing is
    # left for a second expansion to count again
    g = _dep(
        [
            ("a", "a", "DET", 2, "det"),
            ("group", "group", "NOUN", 6, "nsubj"),
            ("of", "of", "ADP", 5, "case"),
            ("five", "five", "NUM", 5, "nummod"),
            ("dogs", "dog", "NOUN", 2, "nmod"),
            ("run", "run", "VERB", 0, "root"),
        ]
    )
    lex = QuantifierLexicon.default()
    out = expand_quantifiers(g, lex)
    assert [(t.lemma, t.head, t.deprel) for t in out.tokens] == [("dog", 6, "nsubj")] * 5 + [
        ("run", 0, "root")
    ]
    assert expand_quantifiers(out, lex) == out


@pytest.mark.parametrize("numerals, phrases", [({"zero": 0}, {}), ({}, {"no more": 0})])
def test_lexicon_counts_below_one_rejected(numerals, phrases):
    with pytest.raises(ValueError, match=">= 1"):
        QuantifierLexicon(numerals, phrases)


def test_children_index_in_token_order(toy_dep_by_caption):
    g = toy_dep_by_caption["105"]  # "a dozen of eggs on a table"
    assert [[t.index for t in kids] for kids in g.children] == [
        [2], [], [1, 4], [], [3, 7], [], [], [5, 6],
    ]


# random token trees: chunks that are a quantifier phrase or a single word,
# in a random order, each head drawn from the tokens earlier in that order
_PHRASE_UPOS = {"a": "DET", "of": "ADP", "few": "ADJ", "both": "DET"}  # the rest are nouns
_PHRASES = [[(w, w, _PHRASE_UPOS.get(w, "NOUN")) for w in key.split(" ")]
            for key in QuantifierLexicon.default().phrase_map]
_NOUNS = [("dog", "dog"), ("dogs", "dog"), ("man", "man"), ("men", "man"), ("kites", "kite"),
          ("grass", "grass")]
_ADJECTIVES = ["brown", "small"]
_NUMERALS = ["two", "five", "dozen", "pair", "3", "12", "0", "\u00b2", "umpteen"]
_WORDS = (
    [(s, l, "NOUN") for s, l in _NOUNS]
    + [(a, a, "ADJ") for a in _ADJECTIVES]
    + [(w, w, "NUM") for w in _NUMERALS]
    + [(v, v, "VERB") for v in ("run", "hold")]
    + [(p, p, "ADP") for p in ("on", "with")]
    + [("the", "the", "DET")]
)
_DEPRELS = ["root", "nsubj", "nsubj:pass", "nsubjpass", "obj", "dobj", "iobj", "obl", "obl:on",
            "nmod", "nmod:on", "amod", "nummod", "det", "case", "conj"]


@st.composite
def _token_trees(draw):
    chunks = draw(st.lists(st.one_of(st.sampled_from(_PHRASES),
                                     st.sampled_from(_WORDS).map(lambda w: [w])),
                           min_size=1, max_size=10))
    words = [w for chunk in chunks for w in chunk]
    order = draw(st.permutations(range(len(words))))
    heads = [0] * len(words)
    for k, i in enumerate(order[1:], start=1):
        j = draw(st.integers(-1, k - 1))  # -1: a further root
        heads[i] = 0 if j < 0 else order[j] + 1
    rels = draw(st.lists(st.sampled_from(_DEPRELS), min_size=len(words), max_size=len(words)))
    return DependencyGraph("1", "1", tuple(
        Token(i + 1, s, l, u, h, r) for i, ((s, l, u), h, r) in enumerate(zip(words, heads, rels))
    ))


def _phrase_targets(g, lex):
    """The nouns that quantifier phrases count: the phrase pass, written plainly."""
    words = [t.surface.lower() for t in g.tokens]
    phrases = sorted((key.split(" ") for key in lex.phrase_map), key=lambda p: -len(p))
    targets, i = set(), 0
    while i < len(words):
        for phrase in phrases:
            end = i + len(phrase)
            target = next((t.index for t in g.tokens[end:]
                           if t.upos in NOUN_TAGS and t.index not in targets), None)
            if words[i:end] == phrase and target is not None:
                targets.add(target)
                i = end
                break
        else:
            i += 1
    return targets


def _changed_by_count_fixes(g, lex):
    """True for the inputs where the two count fixes part from the reference:
    a digit nummod of a noun that is not a decimal >= 1, or any numeral on a
    noun that a phrase counts."""
    nouns = {t.index for t in g.tokens if t.upos in NOUN_TAGS}
    targets = _phrase_targets(g, lex)
    for c in g.tokens:
        rel = c.base_deprel
        if rel == "nummod" and c.head in nouns and c.surface.isdigit() and not (
                c.surface.isdecimal() and int(c.surface) >= 1):
            return True
        numeral = (c.lemma.lower() in lex.numeral_map or c.surface.lower() in lex.numeral_map
                   or rel == "nummod" and c.surface.isdigit())
        if rel in ("nummod", "det") and numeral and c.head in targets:
            return True
    return False


def _check_valid(out):
    # both constructors validate: a tree of contiguous tokens, then object ids,
    # attribute and relation references
    DependencyGraph(out.caption_id, out.image_id, out.tokens)
    extract_scene_graph(out)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_token_trees(), st.sampled_from([1, 2, 10]))
def test_expansion_matches_reference_on_random_trees(g, cap):
    lex = QuantifierLexicon.default(max_duplication=cap)
    assume(not _changed_by_count_fixes(g, lex))
    out = expand_quantifiers(g, lex)
    assert out == reference_expand_quantifiers(g, lex)
    _check_valid(out)


@st.composite
def _noun_phrase_trees(draw):
    """Noun phrases (at most one quantifier phrase or numeral, adjectives, a
    noun) joined by verbs and prepositions."""
    rows = []  # [surface, lemma, upos, head row (None: root), deprel]

    def noun_phrase(head, rel):  # returns the row that carries the phrase's role
        quantifier = draw(st.sampled_from([None, *QuantifierLexicon.default().phrase_map,
                                           *_NUMERALS]))
        adjectives = draw(st.lists(st.sampled_from(_ADJECTIVES), max_size=2))
        words = quantifier.split(" ") if quantifier else []
        noun = len(rows) + len(words) + len(adjectives)
        holder, noun_head, noun_rel = noun, head, rel
        if words[-1:] == ["of"]:  # "a lot of dogs": "lot" carries the role
            holder = noun_head = len(rows) + len(words) - 2
            noun_rel = "nmod"
            rows.extend([w, w, "DET", holder, "det"] for w in words[:-2])
            rows.append([words[-2], words[-2], "NOUN", head, rel])
            rows.append(["of", "of", "ADP", noun, "case"])
        else:
            rel_of = "nummod" if len(words) == 1 else "det"
            rows.extend([w, w, "NUM" if len(words) == 1 else "DET", noun, rel_of] for w in words)
        rows.extend([a, a, "ADJ", noun, "amod"] for a in adjectives)
        rows.append([*draw(st.sampled_from(_NOUNS)), "NOUN", noun_head, noun_rel])
        return holder

    last = first = noun_phrase(None, "root")
    verb = None
    for link in draw(st.lists(st.sampled_from(["verb", "on", "with"]), max_size=3)):
        if link == "verb":
            v = len(rows)
            rows.append(["hold", "hold", "VERB", verb, "conj" if verb is not None else "root"])
            if verb is None:
                rows[first][3:] = [v, "nsubj"]
                verb = v
            last = noun_phrase(v, "obj")
        else:
            case = len(rows)
            rows.append([link, link, "ADP", None, "case"])
            attach, rel = (verb, "obl") if verb is not None else (last, "nmod")
            last = noun_phrase(attach, rel)
            rows[case][3] = last
    return DependencyGraph("1", "1", tuple(
        Token(i + 1, s, l, u, 0 if h is None else h + 1, r)
        for i, (s, l, u, h, r) in enumerate(rows)
    ))


@settings(max_examples=100, deadline=None)
@given(_noun_phrase_trees())
def test_expansion_idempotent_on_noun_phrase_trees(g):
    lex = QuantifierLexicon.default()
    once = expand_quantifiers(g, lex)
    assert expand_quantifiers(once, lex) == once
    _check_valid(once)


# The quadratic implementation that the linear one replaced, kept verbatim
# (only renamed) as the reference its outputs are compared against.
def reference_expand_quantifiers(g: DependencyGraph, lex: QuantifierLexicon) -> DependencyGraph:
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
