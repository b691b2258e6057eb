import json

import pytest
from copy_layout_reference import copy_layout_expand_quantifiers, copy_layout_extract_scene_graph
from helpers import default_quantifiers
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from victr.ingest import DependencyGraph, Token, base_deprel
from victr.sceneparse import (
    NOUN_TAGS,
    SUBJECT_RELS,
    CountedParse,
    QuantifierLexicon,
    SceneGraph,
    SuperClassLexicon,
    expand_quantifiers,
    extract_scene_graph,
    load_quantifier_lexicon,
    load_superclass_lexicon,
    scene_graph_from_json,
    scene_graph_to_json,
)

NO_SUPERS = SuperClassLexicon({})  # every object's super-class is "other"


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
    sg = extract_scene_graph(expand_quantifiers(toy_dep_by_caption["101"], qlex), NO_SUPERS)
    words = _object_words(sg)
    assert words.count("man") == 2 and words.count("horse") == 2
    # every horse copy keeps its own color
    horse_ids = {oid for oid, w, _ in sg.objects if w == "horse"}
    attr_ids = {oid for oid, w in sg.attributes if w == "brown"}
    assert horse_ids == attr_ids


def test_contrast_pair_singular_object(toy_dep_by_caption, qlex):
    # "two men are riding a brown horse" -> 2 man + 1 horse
    sg = extract_scene_graph(expand_quantifiers(toy_dep_by_caption["102"], qlex), NO_SUPERS)
    words = _object_words(sg)
    assert words.count("man") == 2 and words.count("horse") == 1


def test_dozen_phrase_expands_to_twelve(toy_dep_by_caption):
    lex = default_quantifiers(max_duplication=12)
    sg = extract_scene_graph(expand_quantifiers(toy_dep_by_caption["105"], lex), NO_SUPERS)
    assert _object_words(sg).count("egg") == 12
    # the phrase head noun "dozen" is consumed, not an object
    assert "dozen" not in _object_words(sg)


def test_max_duplication_caps(toy_dep_by_caption, qlex):
    sg = extract_scene_graph(expand_quantifiers(toy_dep_by_caption["105"], qlex), NO_SUPERS)
    assert _object_words(sg).count("egg") == qlex.max_duplication == 10


def test_both_of_phrase_counts_subject_and_object(toy_dep_by_caption, qlex):
    # "both of the men hold kites": men -> 2, plural object kites follows
    sg = extract_scene_graph(expand_quantifiers(toy_dep_by_caption["106"], qlex), NO_SUPERS)
    words = _object_words(sg)
    assert words.count("man") == 2 and words.count("kite") == 2


def test_many_phrase_uses_configured_value(toy_dep_by_caption):
    lex = default_quantifiers(many_value=4)
    sg = extract_scene_graph(expand_quantifiers(toy_dep_by_caption["107"], lex), NO_SUPERS)
    assert _object_words(sg).count("person") == 4


def test_unknown_quantifiers_ignored():
    g = _dep(
        [
            ("umpteen", "umpteen", "NUM", 2, "nummod"),
            ("dogs", "dog", "NOUN", 3, "nsubj"),
            ("bark", "bark", "VERB", 0, "root"),
        ]
    )
    out = expand_quantifiers(g, default_quantifiers())
    assert [t.surface for t in out.tokens] == ["umpteen", "dogs", "bark"]


def test_digit_nummod():
    g = _dep(
        [
            ("3", "3", "NUM", 2, "nummod"),
            ("dogs", "dog", "NOUN", 3, "nsubj"),
            ("bark", "bark", "VERB", 0, "root"),
        ]
    )
    out = expand_quantifiers(g, default_quantifiers())
    assert [t.lemma for t in out.tokens] == ["dog", "bark"] and out.copies == {2: 3}
    assert extract_scene_graph(out, NO_SUPERS).objects == ((0, "dog", "other"),
                                                          (1, "dog", "other"),
                                                          (2, "dog", "other"))


def test_expanded_object_count_arithmetic(toy_dep_by_caption):
    # quantified nouns contribute min(n, cap); the rest contribute 1
    lex = default_quantifiers(max_duplication=5)
    g = toy_dep_by_caption["112"]  # three dogs chase a ball
    sg = extract_scene_graph(expand_quantifiers(g, lex), NO_SUPERS)
    assert len(sg.objects) == 3 + 1


def test_extract_man_rides_horse(toy_dep_by_caption, qlex):
    sg = extract_scene_graph(expand_quantifiers(toy_dep_by_caption["104"], qlex), NO_SUPERS)
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
    sg = extract_scene_graph(g, NO_SUPERS)
    assert _object_words(sg) == ["dog"]
    assert sg.attributes == ((0, "brown"),)
    assert sg.relations == ()


def test_extract_skateboard_caption(toy_dep_by_caption, qlex):
    # hand-traced: man/skateboard/dog, (man,on,skateboard), (man,with,dog), (dog,brown)
    sg = extract_scene_graph(expand_quantifiers(toy_dep_by_caption["103"], qlex), NO_SUPERS)
    words = dict((oid, w) for oid, w, _ in sg.objects)
    assert _object_words(sg) == ["dog", "man", "skateboard"]
    triples = {(words[s], p, words[o]) for s, p, o in sg.relations}
    assert triples == {("man", "on", "skateboard"), ("man", "with", "dog")}
    assert [(words[oid], w) for oid, w in sg.attributes] == [("dog", "brown")]


def test_extract_copular_attribute(toy_dep_by_caption, qlex):
    sg = extract_scene_graph(toy_dep_by_caption["108"], NO_SUPERS)
    words = dict((oid, w) for oid, w, _ in sg.objects)
    assert [(words[oid], w) for oid, w in sg.attributes] == [("dog", "brown")]


def test_extract_verb_preposition_relation(toy_dep_by_caption, qlex):
    sg = extract_scene_graph(toy_dep_by_caption["109"], NO_SUPERS)
    words = dict((oid, w) for oid, w, _ in sg.objects)
    assert [(words[s], p, words[o]) for s, p, o in sg.relations] == [
        ("cat", "sit on", "table")
    ]


def test_extract_predicative_nominal(toy_dep_by_caption, qlex):
    # "the man is on the skateboard"
    sg = extract_scene_graph(toy_dep_by_caption["113"], NO_SUPERS)
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
    sg = extract_scene_graph(g, NO_SUPERS)
    words = dict((oid, w) for oid, w, _ in sg.objects)
    assert [(words[s], p, words[o]) for s, p, o in sg.relations] == [
        ("cup", "on", "table")
    ]


def test_no_nouns_empty_graph():
    g = _dep([("run", "run", "VERB", 0, "root")])
    sg = extract_scene_graph(g, NO_SUPERS)
    assert sg.objects == () and sg.relations == () and sg.attributes == ()


def test_referential_integrity_and_determinism(toy_dep_graphs, qlex):
    for g in toy_dep_graphs:
        a = extract_scene_graph(expand_quantifiers(g, qlex), NO_SUPERS)
        b = extract_scene_graph(expand_quantifiers(g, qlex), NO_SUPERS)
        assert a == b
        ids = {oid for oid, _, _ in a.objects}
        assert all(oid in ids for oid, _ in a.attributes)
        assert all(s in ids and o in ids for s, _, o in a.relations)
        assert ids == set(range(len(a.objects)))


def test_extract_assigns_super_classes(slex):
    # "dog , zzyzx , truck , boat , train": one object per noun, in order
    nouns = ["Dog", "zzyzx", "truck", "boat", "train"]
    g = _dep([(w, w, "NOUN", 0 if i == 0 else 1, "root" if i == 0 else "conj")
              for i, w in enumerate(nouns)])
    supers = {w: s for _, w, s in extract_scene_graph(g, slex).objects}
    assert supers["dog"] == "animal"
    assert supers["zzyzx"] == "other"
    assert supers["truck"] == supers["boat"] == supers["train"] == "vehicle"


def test_superclass_lookup_case_insensitive():
    lex = SuperClassLexicon({"Dog": "animal"})
    assert lex.lookup("DOG") == "animal"


def test_quantifier_lexicon_tsv_round_trip(tmp_path, toy_paths):
    lex = load_quantifier_lexicon(toy_paths["quantifiers"], many_value=3, max_duplication=10)
    assert lex.numeral_map["two"] == 2
    assert lex.phrase_map["a dozen of"] == 12
    assert lex.phrase_map["a lot of"] == "MANY"


def test_lexicon_keys_of_any_case_count():
    # numerals, like phrases, are looked up lower-cased
    lex = QuantifierLexicon({"Two": 2}, {"A Few": "MANY"}, many_value=3, max_duplication=10)
    two = _dep([("two", "two", "NUM", 2, "nummod"), ("dogs", "dog", "NOUN", 3, "nsubj"),
                ("bark", "bark", "VERB", 0, "root")])
    few = _dep([("a", "a", "DET", 3, "det"), ("few", "few", "ADJ", 3, "amod"),
                ("dogs", "dog", "NOUN", 4, "nsubj"), ("bark", "bark", "VERB", 0, "root")])
    for g, count in ((two, 2), (few, 3)):
        assert _object_words(extract_scene_graph(expand_quantifiers(g, lex), NO_SUPERS)) == \
            ["dog"] * count


@pytest.mark.parametrize("load, rows", [
    (lambda p: load_quantifier_lexicon(p, many_value=3, max_duplication=10),
     ["two\t2", "two\t2", "Two\t3"]),
    (load_superclass_lexicon, ["dog\tanimal", "dog\tanimal", "Dog\tpet"]),
], ids=["quantifier", "superclass"])
def test_lexicon_rejects_a_key_given_two_values(tmp_path, load, rows):
    # an identical repeat is allowed; case does not make another key
    path = tmp_path / "lexicon.tsv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}:3: .*{path}:1 "):
        load(path)


def test_scene_graph_json_round_trip(toy_dep_by_caption, qlex, slex):
    sg = extract_scene_graph(expand_quantifiers(toy_dep_by_caption["101"], qlex), slex)
    assert scene_graph_from_json(scene_graph_to_json(sg)) == sg


# words that JSON must escape or that fall outside ASCII, mixed with any others
_ESCAPED = '"\\/\b\f\n\r\t\x00\x1f\x7f é漢\u2028\U0001f40e'
_JSON_WORDS = st.text(st.one_of(st.sampled_from(_ESCAPED), st.characters()), max_size=6)


@st.composite
def _scene_graphs(draw):
    ids = list(range(draw(st.integers(0, 4))))  # an object's id is its position
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
    out = expand_quantifiers(g, default_quantifiers())
    assert out == g
    sg = extract_scene_graph(out, NO_SUPERS)
    assert sg.objects == ((0, "dog", "other"), (1, "grass", "other")) and sg.relations == ((0, "on", 1),)


def test_numeral_replaces_phrase_count():
    # "a group of five dogs run": five dogs, not MANY = 3; the phrase and the
    # numeral are spliced out and "dogs" takes over the subject "group" was
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
    lex = default_quantifiers()
    out = expand_quantifiers(g, lex)
    assert [(t.index, t.lemma, t.head, t.deprel) for t in out.tokens] == [
        (5, "dog", 6, "nsubj"), (6, "run", 0, "root")]
    assert out.copies == {5: 5}
    assert [w for _, w, _ in extract_scene_graph(out, NO_SUPERS).objects] == ["dog"] * 5


@pytest.mark.parametrize("numerals, phrases", [({"zero": 0}, {}), ({}, {"no more": 0})])
def test_lexicon_counts_below_one_rejected(numerals, phrases):
    with pytest.raises(ValueError, match=">= 1"):
        QuantifierLexicon(numerals, phrases, many_value=3, max_duplication=10)


def test_children_index_in_token_order(toy_dep_by_caption):
    g = toy_dep_by_caption["105"]  # "a dozen of eggs on a table"
    assert [[t.index for t in kids] for kids in g.children] == [
        [2], [], [1, 4], [], [3, 7], [], [], [5, 6],
    ]


# random token trees: chunks that are a quantifier phrase or a single word,
# in a random order, each head drawn from the tokens earlier in that order
_PHRASE_UPOS = {"a": "DET", "of": "ADP", "few": "ADJ", "both": "DET"}  # the rest are nouns
_PHRASES = [[(w, w, _PHRASE_UPOS.get(w, "NOUN")) for w in key.split(" ")]
            for key in default_quantifiers().phrase_map]
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


@st.composite
def _noun_phrase_trees(draw):
    """Noun phrases (at most one quantifier phrase or numeral, adjectives, a
    noun) joined by verbs and prepositions."""
    rows = []  # [surface, lemma, upos, head row (None: root), deprel]

    def noun_phrase(head, rel):  # returns the row that carries the phrase's role
        quantifier = draw(st.sampled_from([None, *default_quantifiers().phrase_map,
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




def _copies(out) -> dict[int, int]:
    return out.copies if isinstance(out, CountedParse) else {}


def _layout_agrees(out) -> bool:
    """True where writing counted nouns out as token copies gave the same scene
    graph: every noun counted more than once has no dependents but ``amod``
    adjectives and is not the subject of a noun. The copy layout attached
    those dependents, and a noun's subject, to the first copy only."""
    nouns = {t.index for t in out.tokens if t.upos in NOUN_TAGS}
    for t in out.tokens:
        if _copies(out).get(t.index, 1) == 1:
            continue
        if any(c.upos != "ADJ" or base_deprel(c.deprel) != "amod" for c in out.children[t.index]):
            return False
        if base_deprel(t.deprel) in SUBJECT_RELS and t.head in nouns:
            return False
    return True


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_token_trees(), _noun_phrase_trees()), st.sampled_from([1, 2, 10]))
def test_counted_nouns_relate_every_copy(g, cap):
    lex = default_quantifiers(max_duplication=cap)
    out = expand_quantifiers(g, lex)
    sg = extract_scene_graph(out, NO_SUPERS)
    layout = copy_layout_extract_scene_graph(copy_layout_expand_quantifiers(g, lex), NO_SUPERS)
    assert sg.objects == layout.objects
    if _layout_agrees(out):
        assert sg == layout
        return
    # elsewhere: the copy layout with one copy per noun, whose every object
    # then stands for all the copies of its noun
    single = copy_layout_extract_scene_graph(
        copy_layout_expand_quantifiers(g, default_quantifiers(max_duplication=1)), NO_SUPERS)
    spans, first = [], 0
    for t in out.tokens:
        if t.upos in NOUN_TAGS:
            spans.append(range(first, first + _copies(out).get(t.index, 1)))
            first = spans[-1].stop
    assert len(spans) == len(single.objects)
    assert set(sg.relations) == {(si, p, oi) for s, p, o in single.relations
                                 for si in spans[s] for oi in spans[o]}
    assert set(sg.attributes) == {(oi, w) for o, w in single.attributes for oi in spans[o]}


def _caption(rows):
    """A parse from (surface, lemma, upos, head, deprel) rows; numbers are NUM."""
    return _dep([(s, l, "NUM" if s == "two" else u, h, d) for s, l, u, h, d in rows])


# the four constructions where a counted noun's case marker or subject
# reached only its first copy: each relation now holds for every copy
@pytest.mark.parametrize("rows, relations", [
    pytest.param([("two", "two", "", 2, "nummod"), ("dogs", "dog", "NOUN", 0, "root"),
                  ("on", "on", "ADP", 5, "case"), ("the", "the", "DET", 5, "det"),
                  ("grass", "grass", "NOUN", 2, "nmod")],
                 ((0, "on", 2), (1, "on", 2)), id="two dogs on the grass"),
    pytest.param([("a", "a", "DET", 2, "det"), ("dog", "dog", "NOUN", 3, "nsubj"),
                  ("sits", "sit", "VERB", 0, "root"), ("on", "on", "ADP", 6, "case"),
                  ("two", "two", "", 6, "nummod"), ("rocks", "rock", "NOUN", 3, "obl")],
                 ((0, "sit on", 1), (0, "sit on", 2)), id="a dog sits on two rocks"),
    pytest.param([("two", "two", "", 2, "nummod"), ("men", "man", "NOUN", 6, "nsubj"),
                  ("are", "be", "AUX", 6, "cop"), ("on", "on", "ADP", 6, "case"),
                  ("the", "the", "DET", 6, "det"), ("skateboard", "skateboard", "NOUN", 0, "root")],
                 ((0, "on", 2), (1, "on", 2)), id="two men are on the skateboard"),
    pytest.param([("a", "a", "DET", 2, "det"), ("man", "man", "NOUN", 0, "root"),
                  ("on", "on", "ADP", 5, "case"), ("two", "two", "", 5, "nummod"),
                  ("horses", "horse", "NOUN", 2, "nmod")],
                 ((0, "on", 1), (0, "on", 2)), id="a man on two horses"),
])
def test_counted_noun_relates_every_copy(rows, relations):
    sg = extract_scene_graph(expand_quantifiers(_caption(rows), default_quantifiers()), NO_SUPERS)
    assert sg.relations == relations
