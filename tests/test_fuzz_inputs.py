"""Properties: one malformed input file exits 0 or 2, never a traceback.

JSON values: each example swaps one value of the toy corpus's
``captions.json`` or its ``instances.json`` for null, a bool, an int, a
float, a string, a list or an object. It then runs the stages that read the
file in-process: ``parse``, ``build-graphs`` and ``stats``. Parse reads the
instances' categories too, since that config gives no super-class lexicon;
build-graphs reads their boxes.

Lines: each example deletes, duplicates or cuts one line of the CoNLL-U
file, of a TSV file (quantifier lexicon, super-class lexicon, alias table)
or of the config file, or appends a junk tab field to it, then runs
``parse`` and ``build-graphs`` in the example's directory, which a config
without ``out_dir`` writes into.

Artifacts: each example flips one bit of, cuts, or edits header fields of
parse's corpus file or one graph, embeddings or E_vs file of a run through
``compose`` (at 2 epochs), or writes one int32 into the corpus file's
payload with its checksum made to match, then runs the stages that read the
file. Forged corpus files, one per check its reader makes, must stop each
stage that reads them with exit 2.

Every stage must exit 0 or 2, and an exit-2 message must name the mutated
file; for the config file, its key or the path its line gives will do.
"""

import contextlib
import io
import json
import os
import shutil
import struct
import tempfile
import zlib

import pytest
from helpers import edit_corpus, rewrite_container
from hypothesis import example, given, settings
from hypothesis import strategies as st

from victr.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOY = os.path.join(REPO, "data", "toy")
LEXICONS = os.path.join(REPO, "data", "lexicons")
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
MUTATIONS = st.tuples(st.sampled_from(["captions", "instances"]),
                      st.lists(st.integers(0, 63), max_size=4), VALUES)


def _config_lines(inputs, out_dir) -> list[str]:
    """Config lines of ``inputs`` (config key -> path) and out_dir, at 2 epochs."""
    return [f"{key} = {path}\n" for key, path in inputs.items()] + [
        f"out_dir = {out_dir}\n", "epochs = 2\n"]


def _run(root, stage, lines=None, inputs=JSON_INPUTS) -> tuple[int, str]:
    """Run one stage in-process in directory root, on a config of ``lines``
    (by default, of ``inputs`` and the output directory root/out)."""
    cfg = os.path.join(root, "config.txt")
    with open(cfg, "w", encoding="utf-8") as f:
        f.writelines(_config_lines(inputs, os.path.join(root, "out")) if lines is None else lines)
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(stage.split() + ["--config", cfg])
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


def _check_stages(root, stages, names, **config) -> None:
    """Each stage exits 0 or 2, and stops the run at 2 with one of names in its message."""
    for stage in stages:
        code, err = _run(root, stage, **config)
        assert code in (0, 2), (stage, err)
        if code == 2:
            assert any(name in err for name in names), (stage, err)
            break


@pytest.fixture(scope="module")
def composed(tmp_path_factory):
    """A directory whose out/ holds the clean toy corpus run through compose."""
    root = tmp_path_factory.mktemp("composed")
    for stage in ("parse", "build-graphs", "train", "compose"):
        code, err = _run(str(root), stage)
        assert code == 0, (stage, err)
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
@given(mutation=MUTATIONS)
def test_mutated_json_input_exits_0_or_2(mutation):
    target, path, value = mutation
    with tempfile.TemporaryDirectory() as tmp:
        inputs = dict(JSON_INPUTS)
        bad = inputs[target] = os.path.join(tmp, f"{target}.json")
        with open(JSON_INPUTS[target], encoding="utf-8") as f:
            doc = json.load(f)
        with open(bad, "w", encoding="utf-8") as f:
            json.dump(_mutate(doc, path, value), f)
        _check_stages(tmp, ("parse", "build-graphs", "stats"), [bad], inputs=inputs)


def _mutate_line(lines, pick, edit, cut):
    """lines with line pick (modulo their number) deleted, doubled, cut to
    its first cut characters (modulo its length + 1) or given a junk field."""
    i = pick % len(lines)
    text = lines[i].rstrip("\n")
    new = {"delete": [], "duplicate": [lines[i]] * 2,
           "cut": [text[:cut % (len(text) + 1)] + "\n"], "junk": [text + "\tjunk\n"]}[edit]
    return lines[:i] + new + lines[i + 1:]


# (file, line, edit, cut position)
LINE_MUTATIONS = st.tuples(st.sampled_from(LINE_FILES + ("config",)), st.integers(0, 1000),
                           st.sampled_from(["delete", "duplicate", "cut", "junk"]),
                           st.integers(0, 80))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
# the CoNLL-U file unset: the message names its key
@example(("config", 0, "delete", 0))
# out_dir unset: the stages write to out/ in the working directory
@example(("config", len(LINE_INPUTS), "delete", 0))
@example(("config", len(LINE_INPUTS), "cut", len("out_dir =")))
@given(mutation=LINE_MUTATIONS)
def test_mutated_input_line_exits_0_or_2(mutation):
    target, pick, edit, cut = mutation
    with tempfile.TemporaryDirectory() as tmp:
        inputs = dict(LINE_INPUTS)
        if target == "config":  # a relative out_dir: no cut of it leaves tmp
            lines = _config_lines(inputs, "out")
            mutated = _mutate_line(lines, pick, edit, cut)
            # a message may name the config file, the line's key or its (edited) path
            i = pick % len(lines)
            edited = mutated[i] if edit in ("cut", "junk") else lines[i]
            names = (os.path.join(tmp, "config.txt"), lines[i].partition("=")[0].strip(),
                     edited.partition("=")[2].strip())
            _check_stages(tmp, ("parse", "build-graphs"), [n for n in names if n], lines=mutated)
            return
        with open(inputs[target], encoding="utf-8") as f:
            lines = f.readlines()
        bad = inputs[target] = os.path.join(tmp, os.path.basename(inputs[target]))
        with open(bad, "w", encoding="utf-8") as f:
            f.writelines(_mutate_line(lines, pick, edit, cut))
        _check_stages(tmp, ("parse", "build-graphs"), [bad], inputs=inputs)


# artifact under out/ -> the stages that read it, in pipeline order; build-graphs
# goes last on the corpus file, so that no stage reads graphs rebuilt from a
# corpus that its embeddings were not trained on
CORPUS = "corpus.victrs"
ARTIFACTS = {
    CORPUS: ("stats", "compose", "fuse", "build-graphs"),
    os.path.join("graphs", "basic.victrg"): ("train", "compose", "project", "stats"),
    os.path.join("graphs", "left_of.victrg"): ("train", "stats"),
    os.path.join("embeddings", "basic.victre"): ("compose", "project"),
    os.path.join("embeddings", "above.victre"): ("compose", "project"),
    os.path.join("evs", "101.victre"): ("fuse",),
}
HEADER_FIELDS = ("n", "h", "nnz", "kind", "vocab", "vocab_hash", "version", "objects",
                 "attributes", "relations", "tokens", "text")
# (file, edit, position, header fields to set, int32 to write); "int" edits
# only the corpus file, whose payload is int32 but for its string bytes
ARTIFACT_MUTATIONS = st.tuples(
    st.sampled_from(sorted(ARTIFACTS)), st.sampled_from(["flip", "cut", "header", "int"]),
    st.integers(0, 2**20), st.dictionaries(st.sampled_from(HEADER_FIELDS), VALUES,
                                           min_size=1, max_size=2), st.integers(-2, 300))


def _mutate_container(blob: bytes, edit, pos, fields, value) -> bytes:
    """blob with bit pos // len(blob) % 8 of byte pos % len(blob) flipped,
    cut to its first pos % len(blob) bytes, its header fields set to fields,
    or int32 number pos % (payload size // 4) of its payload set to value
    (the payload's checksum still holds)."""
    if edit == "flip":
        i = pos % len(blob)
        return blob[:i] + bytes([blob[i] ^ 1 << pos // len(blob) % 8]) + blob[i + 1:]
    if edit == "cut":
        return blob[:pos % len(blob)]
    (size,) = struct.unpack_from("<I", blob, 8)  # after the 7-byte magic and '\n'
    header, payload = json.loads(blob[12:12 + size]), blob[12 + size:-4]
    if edit == "int":
        i = pos % (len(payload) // 4) * 4
        payload = payload[:i] + struct.pack("<i", value) + payload[i + 4:]
    head = json.dumps({**header, **fields} if edit == "header" else header).encode("utf-8")
    return (blob[:8] + struct.pack("<I", len(head)) + head + payload
            + struct.pack("<I", zlib.crc32(payload)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
# the toy caption 101 has 4 objects, so its E_vs file holds 4 rows of width 1200
@example((os.path.join("evs", "101.victre"), "header", 0, {"n": 8, "h": 600}, 0))
# the toy vocabulary has 41 nodes; basic embeddings are 200 wide
@example((os.path.join("embeddings", "basic.victre"), "header", 0, {"n": 205, "h": 40}, 0))
@example((os.path.join("graphs", "basic.victrg"), "header", 0, {"kind": "left_of"}, 0))
# int32 60 of the toy corpus file is an offset, caption 106's first object row,
# and 125 the super-class of caption 101's first "man": here "animal"
@example((CORPUS, "int", 60, {}, 8))
@example((CORPUS, "int", 125, {}, 5))
@example((CORPUS, "header", 0, {"text": 4}, 0))
@given(mutation=ARTIFACT_MUTATIONS)
def test_mutated_artifact_exits_0_or_2(composed, mutation):
    name, edit, pos, fields, value = mutation
    if edit == "int" and name != CORPUS:
        edit = "flip"
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(composed / "out", os.path.join(tmp, "out"))
        bad = os.path.join(tmp, "out", name)
        with open(bad, "rb") as f:
            blob = f.read()
        with open(bad, "wb") as f:
            f.write(_mutate_container(blob, edit, pos, fields, value))
        _check_stages(tmp, ARTIFACTS[name], [bad])


def _raw(edit_header=lambda header: None, edit_payload=lambda payload: payload):
    """A forgery that edits the corpus file's header fields in place or
    rewrites its payload bytes, with the checksum made to match."""
    def edit(head, payload):
        header = json.loads(head)
        edit_header(header)
        return json.dumps(header).encode("utf-8"), edit_payload(payload)
    return lambda path: rewrite_container(path, edit)


def _set(column, index, value):
    """A forgery that sets one entry of a corpus column (value may read the corpus)."""
    def edit(c):
        getattr(c, column)[index] = value(c) if callable(value) else value
    return lambda path: edit_corpus(path, edit)


# each check the corpus reader makes -> (forgery, the message it gives); toy
# caption 101 (rows 0-3) has two men riding two horses, brown: rows 0 and 1
# are "man", 2 and 3 "horse", and row 4, caption 102's first, is "man" again
FORGED_CORPUS = {
    "payload_size": (_raw(lambda h: h.update(tokens=h["tokens"] + 1)), "payload size"),
    "text_not_utf8": (_raw(edit_payload=lambda p: p[:-1] + b"\xff"),
                      "string table is not JSON text"),
    "table_not_strings": (_raw(lambda h: h.update(text=h["text"] + 2), lambda p: p[:-1] + b",7]"),
                          "string table is not a list of distinct strings"),
    "string_repeated": (_set("strings", 2, "person"), "not a list of distinct strings"),
    "offsets_fall": (_set("offsets", (2, 0), 99), "caption offsets must rise"),
    "offsets_short": (_set("offsets", (20, 1), 7), "caption offsets must rise"),
    "word_id": (_set("objects", (0, 0), lambda c: len(c.strings)),
                "a string id outside the table"),
    "predicate_id": (_set("relations", (0, 1), -1), "a string id outside the table"),
    "token_id": (_set("tokens", 0, lambda c: len(c.strings) + 5), "a string id outside"),
    "caption_file_name": (_set("strings", 0, "../101"), "caption_id '../101' cannot be a file"),
    "caption_repeated": (_set("captions", (1, 0), lambda c: c.captions[0, 0]),
                         "duplicate caption id 101"),
    "attribute_row": (_set("attributes", (0, 0), 4),
                      "caption 101: an attribute names an object outside the caption"),
    "relation_row": (_set("relations", (0, 2), -1),
                     "caption 101: a relation names an object outside the caption"),
    "self_relation": (_set("relations", (0, 2), 0), "caption 101: a self-relation"),
    "repeated_triple": (_set("relations", 1, lambda c: c.relations[0]),
                        "caption 101: a duplicate relation triple"),
    "two_super_classes": (_set("objects", (4, 1), lambda c: c.strings.index("animal")),
                          "caption 102: object word 'man' has super-class 'animal', but "
                          "caption 101 gives it 'other'"),
}


@pytest.mark.parametrize("stage", ["build-graphs", "compose", "stats", "fuse"])
@pytest.mark.parametrize("check", sorted(FORGED_CORPUS))
def test_forged_corpus_exits_2_naming_it(composed, check, stage):
    forge, message = FORGED_CORPUS[check]
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(composed / "out", os.path.join(tmp, "out"))
        path = os.path.join(tmp, "out", CORPUS)
        forge(path)
        code, err = _run(tmp, stage)
        assert code == 2, err
        assert f"{path}: " in err and message in err, err
