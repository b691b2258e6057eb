import numpy as np
import pytest
from helpers import INVERSE_RELATION
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from victr.geometry import (
    GEOMETRIC_RELATIONS,
    BoundingBox,
    classify_geometric_relation,
    load_alias_table,
    match_objects_to_boxes,
)
from victr.sceneparse import SceneGraph


def box(x, y, w, h):
    return BoundingBox(x, y, w, h)


def test_pure_horizontal_offset():
    assert classify_geometric_relation(box(0, 0, 10, 10), box(20, 0, 10, 10)) == "left_of"
    assert classify_geometric_relation(box(20, 0, 10, 10), box(0, 0, 10, 10)) == "right_of"


def test_containment_pair():
    inner, outer = box(2, 2, 2, 2), box(0, 0, 10, 10)
    assert classify_geometric_relation(inner, outer) == "inside"
    assert classify_geometric_relation(outer, inner) == "surrounding"


def test_vertical_dominates_small_horizontal():
    # centers (5,5) and (5,32): |dy|=27 > |dx|=0 -> above
    assert classify_geometric_relation(box(0, 0, 10, 10), box(3, 30, 4, 4)) == "above"
    assert classify_geometric_relation(box(3, 30, 4, 4), box(0, 0, 10, 10)) == "below"


def test_identical_boxes_tie_break():
    b = box(5, 5, 10, 10)
    assert classify_geometric_relation(b, b) == "inside"


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        box(0, 0, 0, 10)


def _random_boxes(rng, n):
    # integer coordinates keep translation/scaling arithmetic exact
    xs = rng.integers(0, 1000, size=(n, 2))
    ws = rng.integers(1, 500, size=(n, 2))
    return [box(float(x), float(y), float(w), float(h))
            for (x, y), (w, h) in zip(xs, ws)]


def test_antisymmetry_translation_scale_randomized():
    rng = np.random.default_rng(42)
    a_boxes = _random_boxes(rng, 2000)
    b_boxes = _random_boxes(rng, 2000)
    for a, b in zip(a_boxes, b_boxes):
        rel = classify_geometric_relation(a, b)
        assert rel in GEOMETRIC_RELATIONS
        assert classify_geometric_relation(b, a) == INVERSE_RELATION[rel]
        shifted = classify_geometric_relation(
            box(a.x + 37, a.y - 11, a.w, a.h), box(b.x + 37, b.y - 11, b.w, b.h)
        )
        assert shifted == rel
        for s in (0.5, 2.0, 3.0):
            scaled = classify_geometric_relation(
                box(a.x * s, a.y * s, a.w * s, a.h * s),
                box(b.x * s, b.y * s, b.w * s, b.h * s),
            )
            assert scaled == rel


# quarter units on a small grid: centres and extents are exact, and equal
# coordinates, touching edges and |dx| == |dy| ties are common
_corner = st.integers(0, 160).map(lambda i: i / 4)
_side = st.integers(1, 80).map(lambda i: i / 4)
_boxes = st.builds(BoundingBox, _corner, _corner, _side, _side)


@settings(max_examples=500, deadline=None)
@given(_boxes, _boxes)
def test_swapping_boxes_inverts_the_relation(s, o):
    assume(s != o and s.center != o.center)
    backward = classify_geometric_relation(o, s)
    assert classify_geometric_relation(s, o) == INVERSE_RELATION[backward]


def _inst(entries):
    """Image id -> [(category name, box)], as ingest.load_instances returns it."""
    boxes = {}
    for image_id, name, bbox in entries:
        boxes.setdefault(str(image_id), []).append((name, box(*bbox)))
    return boxes


def _sg(words, image_id="1"):
    return SceneGraph(
        caption_id="1", image_id=image_id,
        objects=tuple((i, w, "other") for i, w in enumerate(words)),
        attributes=(), relations=(),
    )


def test_match_unique_categories():
    inst = _inst([(1, "dog", (0, 0, 5, 5)), (1, "cat", (9, 9, 3, 3))])
    matches = match_objects_to_boxes(_sg(["dog", "cat"]), inst, {})
    assert [(oid, (b.x, b.y)) for oid, b in matches] == [(0, (0.0, 0.0)), (1, (9.0, 9.0))]


def test_match_exhaustion():
    inst = _inst([(1, "dog", (0, 0, 5, 5))])
    matches = match_objects_to_boxes(_sg(["dog", "dog"]), inst, {})
    assert [oid for oid, _ in matches] == [0]


def test_match_alias():
    inst = _inst([(1, "dog", (0, 0, 5, 5))])
    matches = match_objects_to_boxes(_sg(["puppy"]), inst, {"puppy": "dog"})
    assert [oid for oid, _ in matches] == [0]


def test_alias_table_rejects_a_lemma_given_two_categories(tmp_path):
    # an identical repeat is allowed; case does not make another lemma
    path = tmp_path / "aliases.tsv"
    path.write_text("puppy\tdog\npuppy\tdog\nPuppy\tcat\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}:3: .*{path}:1 "):
        load_alias_table(path)


def test_match_prefers_largest_area():
    inst = _inst(
        [(1, "dog", (0, 0, 2, 2)), (1, "dog", (10, 10, 8, 8))]
    )
    matches = match_objects_to_boxes(_sg(["dog"]), inst, {})
    assert matches[0][1].area == 64


def test_match_never_reuses_a_box():
    rng = np.random.default_rng(3)
    entries = [(1, "dog", tuple(float(v) for v in rng.integers(1, 50, 4)))
               for _ in range(6)]
    inst = _inst(entries)
    matches = match_objects_to_boxes(_sg(["dog"] * 10), inst, {})
    assert len(matches) == 6
    corners = [(b.x, b.y, b.w, b.h) for _, b in matches]
    assert len(set(corners)) == len(corners)


def test_match_missing_image_matches_nothing():
    inst = _inst([(1, "dog", (0, 0, 5, 5))])
    assert match_objects_to_boxes(_sg(["dog"], image_id="2"), inst, {}) == []


def _reference_match(sg, inst, aliases):
    """The scan that match_objects_to_boxes replaced: each object, in order,
    claims the first of the largest unclaimed boxes of its category."""
    boxes = inst.get(sg.image_id, [])
    claimed, matches = set(), []
    for oid, word, _ in sg.objects:
        category = word if any(c == word for c, _ in boxes) else aliases.get(word)
        free = [(i, b) for i, (c, b) in enumerate(boxes) if c == category and i not in claimed]
        if free:
            i, b = max(free, key=lambda ib: ib[1].area)
            claimed.add(i)
            matches.append((oid, b))
    return matches


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["dog", "cat"]), st.integers(0, 3),
                          st.integers(1, 4), st.integers(1, 4)), max_size=8),
       st.lists(st.sampled_from(["dog", "cat", "puppy", "cow"]), max_size=8))
def test_match_equals_reference_scan(boxes, words):
    # small integer sides: equal areas of different shapes are common
    inst = _inst([(1, name, (x, 0, w, h)) for name, x, w, h in boxes])
    sg = _sg(words)
    assert (match_objects_to_boxes(sg, inst, {"puppy": "dog"})
            == _reference_match(sg, inst, {"puppy": "dog"}))
