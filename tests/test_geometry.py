import numpy as np
import pytest
from helpers import INVERSE_RELATION, corpus_of
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from tuple_walk_reference import classify_geometric_relation

from victr.geometry import (
    GEOMETRIC_RELATIONS,
    classify_geometric_relations,
    load_alias_table,
    match_objects_to_boxes,
)
from victr.sceneparse import SceneGraph


def classify(s, o) -> str:
    """One pair's label, through the array classifier."""
    return GEOMETRIC_RELATIONS[classify_geometric_relations(np.array([s], float),
                                                            np.array([o], float))[0]]


def test_pure_horizontal_offset():
    assert classify((0, 0, 10, 10), (20, 0, 10, 10)) == "left_of"
    assert classify((20, 0, 10, 10), (0, 0, 10, 10)) == "right_of"


def test_containment_pair():
    inner, outer = (2, 2, 2, 2), (0, 0, 10, 10)
    assert classify(inner, outer) == "inside"
    assert classify(outer, inner) == "surrounding"


def test_vertical_dominates_small_horizontal():
    # centers (5,5) and (5,32): |dy|=27 > |dx|=0 -> above
    assert classify((0, 0, 10, 10), (3, 30, 4, 4)) == "above"
    assert classify((3, 30, 4, 4), (0, 0, 10, 10)) == "below"


def test_identical_boxes_tie_break():
    b = (5, 5, 10, 10)
    assert classify(b, b) == "inside"


def _random_boxes(rng, n):
    # integer coordinates keep translation/scaling arithmetic exact
    return np.hstack([rng.integers(0, 1000, size=(n, 2)),
                      rng.integers(1, 500, size=(n, 2))]).astype(float)


def test_antisymmetry_translation_scale_randomized():
    rng = np.random.default_rng(42)
    a, b = _random_boxes(rng, 2000), _random_boxes(rng, 2000)
    rel = classify_geometric_relations(a, b)
    inverse = [GEOMETRIC_RELATIONS.index(INVERSE_RELATION[p]) for p in GEOMETRIC_RELATIONS]
    assert (classify_geometric_relations(b, a) == np.take(inverse, rel)).all()
    shift = np.array([37.0, -11.0, 0.0, 0.0])
    assert (classify_geometric_relations(a + shift, b + shift) == rel).all()
    for scale in (0.5, 2.0, 3.0):
        assert (classify_geometric_relations(a * scale, b * scale) == rel).all()


# quarter units on a small grid: centres and extents are exact, and equal
# coordinates, touching edges and |dx| == |dy| ties are common
_corner = st.integers(0, 160).map(lambda i: i / 4)
_side = st.integers(1, 80).map(lambda i: i / 4)
_boxes = st.tuples(_corner, _corner, _side, _side)


@settings(max_examples=500, deadline=None)
@given(_boxes, _boxes)
def test_swapping_boxes_inverts_the_relation(s, o):
    s_center, o_center = (s[0] + s[2] / 2, s[1] + s[3] / 2), (o[0] + o[2] / 2, o[1] + o[3] / 2)
    assume(s != o and s_center != o_center)
    assert classify(s, o) == INVERSE_RELATION[classify(o, s)]


@st.composite
def _box_pairs(draw):
    """A box and a second one that is identical, shares an edge, shares the
    centre, is offset with |dx| == |dy|, or is any box; finite extremes too."""
    s = draw(st.one_of(_boxes, st.tuples(*[st.sampled_from([0.0, 1e300, 1.7e308])] * 2,
                                         *[st.sampled_from([1e-300, 1e300, 1.7e308])] * 2)))
    x, y, w, h = s
    d = draw(st.integers(-8, 8).map(lambda i: i / 4))
    grow = draw(_side)
    o = draw(st.sampled_from([
        s,
        (x + w, y, grow, h), (x - grow, y, grow, h), (x, y + h, w, grow), (x, y, w, grow),
        (x - grow / 2, y - grow / 2, w + grow, h + grow),
        (x + d, y + d, w, h), (x + d, y - d, w, h),
    ]) if draw(st.booleans()) else _boxes)
    return (s, o) if draw(st.booleans()) else (o, s)


@settings(max_examples=300, deadline=None)
@given(st.lists(_box_pairs(), max_size=20))
@example([((0.0, 0.0, 2.0, 2.0), (1.0, 1.0, 2.0, 2.0)),  # |dx| == |dy|
          ((0.0, 0.0, 4.0, 4.0), (1.0, 1.0, 2.0, 2.0)),  # one centre
          ((0.0, 0.0, 2.0, 2.0), (2.0, 0.0, 2.0, 2.0)),  # a shared edge
          ((1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0)),  # identical
          ((1.7e308, 0.0, 1.7e308, 1.0), (1.7e308, 5.0, 1.7e308, 1.0))])  # inf centres
def test_array_labels_equal_scalar_reference(pairs):
    got = classify_geometric_relations(np.array([s for s, _ in pairs], float).reshape(-1, 4),
                                       np.array([o for _, o in pairs], float).reshape(-1, 4))
    assert [GEOMETRIC_RELATIONS[i] for i in got] == [classify_geometric_relation(s, o)
                                                     for s, o in pairs]


def _inst(entries):
    """Image id -> [(category name, box)], as ingest.load_instances returns it."""
    boxes = {}
    for image_id, name, bbox in entries:
        boxes.setdefault(str(image_id), []).append((name, tuple(map(float, bbox))))
    return boxes


def _sg(words, image_id="1", caption_id="1"):
    return SceneGraph(
        caption_id=caption_id, image_id=image_id,
        objects=tuple((i, w, "other") for i, w in enumerate(words)),
        attributes=(), relations=(),
    )


def _corpus(words, image_id="1"):
    return corpus_of([_sg(words, image_id)])


def test_match_unique_categories():
    inst = _inst([(1, "dog", (0, 0, 5, 5)), (1, "cat", (9, 9, 3, 3))])
    matches = match_objects_to_boxes(_corpus(["dog", "cat"]), inst, {})
    assert matches == {0: (0.0, 0.0, 5.0, 5.0), 1: (9.0, 9.0, 3.0, 3.0)}


def test_match_exhaustion():
    inst = _inst([(1, "dog", (0, 0, 5, 5))])
    assert list(match_objects_to_boxes(_corpus(["dog", "dog"]), inst, {})) == [0]


def test_match_alias():
    inst = _inst([(1, "dog", (0, 0, 5, 5))])
    assert list(match_objects_to_boxes(_corpus(["puppy"]), inst, {"puppy": "dog"})) == [0]


def test_alias_table_rejects_a_lemma_given_two_categories(tmp_path):
    # an identical repeat is allowed; case does not make another lemma
    path = tmp_path / "aliases.tsv"
    path.write_text("puppy\tdog\npuppy\tdog\nPuppy\tcat\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}:3: .*{path}:1 "):
        load_alias_table(path)


def test_alias_table_values_differing_in_case_are_one_category(tmp_path):
    # load_alias_table lower-cases categories, so both rows name the category dog
    path = tmp_path / "aliases.tsv"
    path.write_text("puppy\tdog\npuppy\tDog\n", encoding="utf-8")
    assert load_alias_table(path) == {"puppy": "dog"}


def test_match_prefers_largest_area():
    inst = _inst(
        [(1, "dog", (0, 0, 2, 2)), (1, "dog", (10, 10, 8, 8))]
    )
    matches = match_objects_to_boxes(_corpus(["dog"]), inst, {})
    assert matches == {0: (10.0, 10.0, 8.0, 8.0)}


def test_match_never_reuses_a_box():
    rng = np.random.default_rng(3)
    entries = [(1, "dog", tuple(float(v) for v in rng.integers(1, 50, 4)))
               for _ in range(6)]
    inst = _inst(entries)
    matches = match_objects_to_boxes(_corpus(["dog"] * 10), inst, {})
    assert len(matches) == 6
    assert sorted(matches.values()) == sorted(box for _, box in inst["1"])


def test_match_missing_image_matches_nothing():
    inst = _inst([(1, "dog", (0, 0, 5, 5))])
    assert match_objects_to_boxes(_corpus(["dog"], image_id="2"), inst, {}) == {}


def _reference_match(sg, inst, aliases):
    """The scan that match_objects_to_boxes replaced: each object, in order,
    claims the first of the largest unclaimed boxes of its category."""
    boxes = inst.get(sg.image_id, [])
    claimed, matches = set(), []
    for oid, word, _ in sg.objects:
        category = word if any(c == word for c, _ in boxes) else aliases.get(word)
        free = [(i, b) for i, (c, b) in enumerate(boxes) if c == category and i not in claimed]
        if free:
            i, b = max(free, key=lambda ib: ib[1][2] * ib[1][3])
            claimed.add(i)
            matches.append((oid, b))
    return matches


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["dog", "cat"]), st.integers(0, 3),
                          st.integers(1, 4), st.integers(1, 4)), max_size=8),
       st.lists(st.lists(st.sampled_from(["dog", "cat", "puppy", "cow"]), max_size=8),
                max_size=3))
def test_match_equals_reference_scan(boxes, captions):
    # small integer sides: equal areas of different shapes are common; each
    # caption of the one image claims from all of its boxes
    inst = _inst([(1, name, (x, 0, w, h)) for name, x, w, h in boxes])
    graphs = [_sg(words, caption_id=str(i)) for i, words in enumerate(captions)]
    want, first = [], 0
    for sg in graphs:
        want += [(first + oid, b) for oid, b in _reference_match(sg, inst, {"puppy": "dog"})]
        first += len(sg.objects)
    assert list(match_objects_to_boxes(corpus_of(graphs), inst, {"puppy": "dog"}).items()) == want
