import json
import random

import pytest
from helpers import to_conllu

from victr.ingest import (
    ConlluError,
    load_captions,
    load_conllu,
    load_instances,
    select_richest_caption,
)
from victr.sceneparse import SceneGraph

MINIMAL = """# caption_id = 9
# image_id = 4
1\tmen\tman\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tride\tride\tVERB\t_\t_\t0\troot\t_\t_
3\thorses\thorse\tNOUN\t_\t_\t2\tobj\t_\t_
"""


def _write(tmp_path, text, name="x.conllu"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_minimal_sentence(tmp_path):
    graphs = load_conllu(_write(tmp_path, MINIMAL))
    assert len(graphs) == 1
    g = graphs[0]
    assert g.caption_id == "9" and g.image_id == "4"
    assert len(g.tokens) == 3
    root = [t for t in g.tokens if t.head == 0]
    assert len(root) == 1 and root[0].index == 2


def test_load_empty_file(tmp_path):
    assert load_conllu(_write(tmp_path, "")) == []


def test_head_out_of_range_names_line(tmp_path):
    bad = MINIMAL.replace("2\tobj", "7\tobj")
    with pytest.raises(ConlluError, match=r":\d+"):
        load_conllu(_write(tmp_path, bad))


def test_missing_caption_id_comment(tmp_path):
    text = "\n".join(MINIMAL.splitlines()[1:]) + "\n"
    with pytest.raises(ConlluError, match="caption_id"):
        load_conllu(_write(tmp_path, text))


def test_malformed_column_count(tmp_path):
    text = MINIMAL.replace("3\thorses\thorse\tNOUN\t_\t_\t2\tobj\t_\t_",
                           "3\thorses\thorse\tNOUN\t2\tobj")
    with pytest.raises(ConlluError, match="columns"):
        load_conllu(_write(tmp_path, text))


def test_self_head_rejected(tmp_path):
    text = MINIMAL.replace("2\tride\tride\tVERB\t_\t_\t0\troot",
                           "2\tride\tride\tVERB\t_\t_\t2\troot")
    with pytest.raises(ConlluError):
        load_conllu(_write(tmp_path, text))


def test_multiword_and_empty_nodes_skipped(tmp_path):
    text = (
        "# caption_id = 1\n# image_id = 1\n"
        "1-2\tdogs run\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tdogs\tdog\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
        "1.1\telided\telide\tVERB\t_\t_\t_\t_\t_\t_\n"
        "2\trun\trun\tVERB\t_\t_\t0\troot\t_\t_\n"
    )
    graphs = load_conllu(_write(tmp_path, text))
    assert [t.surface for t in graphs[0].tokens] == ["dogs", "run"]


def test_round_trip(tmp_path, toy_paths):
    graphs = load_conllu(toy_paths["conllu"])
    text = to_conllu(graphs)
    reloaded = load_conllu(_write(tmp_path, text))
    assert reloaded == graphs
    assert to_conllu(reloaded) == text


def test_identical_files_identical_structures(tmp_path, toy_paths):
    with open(toy_paths["conllu"], encoding="utf-8") as f:
        text = f.read()
    a = load_conllu(_write(tmp_path, text, "a.conllu"))
    b = load_conllu(_write(tmp_path, text, "b.conllu"))
    assert to_conllu(a) == to_conllu(b)


def _captions_doc(entries):
    return {"annotations": entries}


def test_load_captions_five_per_image(tmp_path):
    doc = _captions_doc(
        [{"image_id": 42, "id": i, "caption": f"caption {i}"} for i in range(5)]
    )
    p = tmp_path / "c.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    cs = load_captions(p)
    assert list(cs.captions) == ["42"]
    assert len(cs.captions["42"]) == 5


def test_load_captions_duplicate_id(tmp_path):
    doc = _captions_doc(
        [
            {"image_id": 1, "id": 7, "caption": "a"},
            {"image_id": 2, "id": 7, "caption": "b"},
        ]
    )
    p = tmp_path / "c.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        load_captions(p)


def test_load_captions_empty(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(_captions_doc([])), encoding="utf-8")
    assert load_captions(p).captions == {}


def test_load_captions_missing_field_names_index(tmp_path):
    doc = _captions_doc(
        [
            {"image_id": 1, "id": 1, "caption": "ok"},
            {"image_id": 1, "id": 2},
        ]
    )
    p = tmp_path / "c.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="annotation 1.*caption"):
        load_captions(p)


def _instances_doc(annotations, categories=None):
    if categories is None:
        categories = [
            {"id": 1, "name": "dog", "supercategory": "animal"},
            {"id": 2, "name": "cat", "supercategory": "animal"},
        ]
    return {"annotations": annotations, "categories": categories}


def test_load_instances_basic(tmp_path):
    doc = _instances_doc([{"image_id": 5, "category_id": 1, "bbox": [10, 20, 30, 40]}])
    p = tmp_path / "i.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    inst = load_instances(p)
    assert inst.boxes["5"] == [("dog", "animal", (10.0, 20.0, 30.0, 40.0))]
    assert inst.categories["dog"] == "animal"


def test_load_instances_zero_width(tmp_path):
    doc = _instances_doc([{"image_id": 5, "category_id": 1, "bbox": [10, 20, 0, 40]}])
    p = tmp_path / "i.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="non-positive"):
        load_instances(p)


def test_load_instances_two_boxes_same_image(tmp_path):
    doc = _instances_doc(
        [
            {"image_id": 5, "category_id": 1, "bbox": [0, 0, 5, 5]},
            {"image_id": 5, "category_id": 2, "bbox": [9, 9, 3, 3]},
        ]
    )
    p = tmp_path / "i.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    names = [name for name, _, _ in load_instances(p).boxes["5"]]
    assert names == ["dog", "cat"]


def test_load_instances_unknown_category(tmp_path):
    doc = _instances_doc([{"image_id": 5, "category_id": 99, "bbox": [0, 0, 5, 5]}])
    p = tmp_path / "i.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="unknown category_id"):
        load_instances(p)


def _sg(cid, n_obj, n_rel, n_attr):
    objects = tuple((i, f"w{i}", "other") for i in range(n_obj))
    relations = tuple((i, f"r{i}", i + 1) for i in range(min(n_rel, n_obj - 1)))
    attributes = tuple((i, f"a{i}") for i in range(min(n_attr, n_obj)))
    return SceneGraph(caption_id=str(cid), image_id="0", objects=objects,
                      attributes=attributes, relations=relations)


def test_select_richest_hand_scored():
    # richness 2+1+0=3 versus 3+2+1=6
    entries = [("1", _sg(1, 2, 1, 0)), ("2", _sg(2, 3, 2, 1))]
    assert select_richest_caption(entries) == "2"


def test_select_richest_tie_breaks_low_id():
    entries = [("7", _sg(7, 2, 1, 1)), ("3", _sg(3, 3, 1, 0))]
    assert select_richest_caption(entries) == "3"


def test_select_richest_single():
    assert select_richest_caption([("77", _sg(77, 1, 0, 0))]) == "77"


def test_select_richest_empty():
    with pytest.raises(ValueError):
        select_richest_caption([])


def test_select_richest_permutation_invariant():
    entries = [(str(i), _sg(i, i % 4 + 1, i % 3, i % 2)) for i in range(8)]
    expected = select_richest_caption(entries)
    rng = random.Random(13)
    for _ in range(20):
        shuffled = entries[:]
        rng.shuffle(shuffled)
        assert select_richest_caption(shuffled) == expected


def test_select_richest_numeric_ids_compare_numerically():
    entries = [("10", _sg(10, 2, 0, 0)), ("9", _sg(9, 2, 0, 0))]
    assert select_richest_caption(entries) == "9"


HEAD_CYCLE = (
    "# caption_id = 101\n# image_id = 1\n"
    "1\tlots\tlot\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
    "2\tof\tof\tADP\t_\t_\t1\tcase\t_\t_\n"
    "3\tdogs\tdog\tNOUN\t_\t_\t1\tnsubj\t_\t_\n"
    "4\trun\trun\tVERB\t_\t_\t0\troot\t_\t_\n"
)


@pytest.mark.parametrize("text", [
    HEAD_CYCLE,
    MINIMAL.replace("0\troot", "3\troot"),  # no root: the heads cycle 2 -> 3 -> 2
])
def test_head_cycle_rejected_with_line(tmp_path, text):
    with pytest.raises(ConlluError, match=r"x\.conllu:\d+: .*head cycle"):
        load_conllu(_write(tmp_path, text))


def test_head_forest_under_root_accepted(tmp_path):
    # two root tokens still form one tree under the virtual root 0
    text = MINIMAL.replace("2\tobj", "0\tobj")
    assert len(load_conllu(_write(tmp_path, text))[0].tokens) == 3


@pytest.mark.parametrize("text, message", [
    (MINIMAL.replace("2\tobj", "-1\tobj"), "head -1 out of range"),
    (MINIMAL.replace("\tobj\t", "\t\t"), "token 3: empty deprel"),
    (MINIMAL.replace("3\thorses", "0\thorses"), "not contiguous"),
], ids=["negative_head", "empty_deprel", "index_zero"])
def test_token_rejected_with_line(tmp_path, text, message):
    with pytest.raises(ConlluError, match=rf"x\.conllu:\d+: .*{message}"):
        load_conllu(_write(tmp_path, text))
