"""Properties: one malformed input file exits 0 or 2, never a traceback.

JSON values: each example swaps one value of the toy corpus's
``captions.json``, its ``instances.json`` or one of its parsed scene-graph
files for null, a bool, an int, a float, a string, a list or an object. It
then runs the stages that read the file in-process: ``parse``,
``build-graphs`` and ``stats`` (a scene graph is mutated after ``parse``).
Parse reads the instances' categories too, since that config gives no
super-class lexicon; build-graphs reads their boxes.

Lines: each example deletes, duplicates or cuts one line of the CoNLL-U
file or of a TSV file (quantifier lexicon, super-class lexicon, alias
table), or appends a junk tab field to it, then runs ``parse`` and
``build-graphs``.

Every stage must exit 0 or 2, and an exit-2 message must name the mutated file.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from victr.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOY = os.path.join(REPO, "data", "toy")
LEXICONS = os.path.join(REPO, "data", "lexicons")
SCENE_GRAPH = "101.json"  # has objects, attributes and relations
JSON_INPUTS = {
    "conllu": os.path.join(TOY, "captions.conllu"),
    "captions": os.path.join(TOY, "captions.json"),
    "instances": os.path.join(TOY, "instances.json"),
    "quantifier_lexicon": os.path.join(LEXICONS, "quantifiers.tsv"),
    "alias_table": os.path.join(LEXICONS, "aliases.tsv"),
}
LINE_INPUTS = {**JSON_INPUTS, "superclass_lexicon": os.path.join(LEXICONS, "superclasses.tsv")}
LINE_FILES = ("conllu", "quantifier_lexicon", "superclass_lexicon", "alias_table")

VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 300), st.floats(), st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=4),
    st.dictionaries(st.sampled_from(["id", "name", "word"]), st.integers(0, 3), max_size=2),
)
# (file, path to the value, new value); a path step that is an int picks a
# key or index modulo the container's size, so any draw names a value
MUTATIONS = st.tuples(st.sampled_from(["captions", "instances", "scene_graph"]),
                      st.lists(st.integers(0, 63), max_size=4), VALUES)


def _run(out_dir, inputs, stage) -> tuple[int, str]:
    """Run one stage in-process on a config of ``inputs`` (config key -> path)."""
    cfg = os.path.join(out_dir, "config.txt")
    with open(cfg, "w", encoding="utf-8") as f:
        f.writelines(f"{key} = {path}\n" for key, path in inputs.items())
        f.write(f"out_dir = {os.path.join(out_dir, 'out')}\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([stage, "--config", cfg])
    return code, err.getvalue()


def _check_stages(out_dir, inputs, stages, bad) -> None:
    """Each stage exits 0 or 2, and stops the run at 2 with bad's path in its message."""
    for stage in stages:
        code, err = _run(out_dir, inputs, stage)
        assert code in (0, 2), (stage, err)
        if code == 2:
            assert bad in err, (stage, err)
            break


@pytest.fixture(scope="module")
def parsed(tmp_path_factory):
    """A directory whose out/ holds the clean toy corpus's scene graphs."""
    root = tmp_path_factory.mktemp("parsed")
    code, err = _run(str(root), JSON_INPUTS, "parse")
    assert code == 0, err
    return root


def _mutate(doc, path, value):
    """doc with the value at path replaced; str steps are keys, int steps pick."""
    if not path or type(doc) not in (dict, list) or not doc:
        return value
    keys = sorted(doc) if type(doc) is dict else range(len(doc))
    key = path[0] if type(path[0]) is str else keys[path[0] % len(keys)]
    doc[key] = _mutate(doc[key], path[1:], value)
    return doc


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example(("instances", ("categories", 0, "name"), ["person"]))
@example(("instances", ("annotations", 0, "image_id"), 1.0))
@example(("instances", ("annotations", 0, "category_id"), True))
@example(("captions", ("annotations", 0, "caption"), 5))
@example(("scene_graph", ("objects", 0, "id"), "0"))
@given(mutation=MUTATIONS)
def test_mutated_json_input_exits_0_or_2(parsed, mutation):
    target, path, value = mutation
    with tempfile.TemporaryDirectory() as tmp:
        inputs = dict(JSON_INPUTS)
        if target == "scene_graph":
            shutil.copytree(parsed / "out", os.path.join(tmp, "out"))
            source = bad = os.path.join(tmp, "out", "scene_graphs", SCENE_GRAPH)
            stages = ("build-graphs", "stats")
        else:
            source, bad = inputs[target], os.path.join(tmp, f"{target}.json")
            inputs[target] = bad
            stages = ("parse", "build-graphs", "stats")
        with open(source, encoding="utf-8") as f:
            doc = json.load(f)
        with open(bad, "w", encoding="utf-8") as f:
            json.dump(_mutate(doc, path, value), f)
        _check_stages(tmp, inputs, stages, bad)


def _mutate_line(lines, pick, edit, cut):
    """lines with line pick (modulo their number) deleted, doubled, cut to
    its first cut characters (modulo its length + 1) or given a junk field."""
    i = pick % len(lines)
    text = lines[i].rstrip("\n")
    new = {"delete": [], "duplicate": [lines[i]] * 2,
           "cut": [text[:cut % (len(text) + 1)] + "\n"], "junk": [text + "\tjunk\n"]}[edit]
    return lines[:i] + new + lines[i + 1:]


# (file, line, edit, cut position)
LINE_MUTATIONS = st.tuples(st.sampled_from(LINE_FILES), st.integers(0, 1000),
                           st.sampled_from(["delete", "duplicate", "cut", "junk"]),
                           st.integers(0, 80))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(mutation=LINE_MUTATIONS)
def test_mutated_input_line_exits_0_or_2(mutation):
    target, pick, edit, cut = mutation
    with tempfile.TemporaryDirectory() as tmp:
        inputs = dict(LINE_INPUTS)
        with open(inputs[target], encoding="utf-8") as f:
            lines = f.readlines()
        bad = inputs[target] = os.path.join(tmp, os.path.basename(inputs[target]))
        with open(bad, "w", encoding="utf-8") as f:
            f.writelines(_mutate_line(lines, pick, edit, cut))
        _check_stages(tmp, inputs, ("parse", "build-graphs"), bad)
