import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from helpers import edit_corpus, rewrite_container, unpack_scene_graph, unpack_tokens

import victr.cli
import victr.gcn
from victr.binio import CORPUS_MAGIC, EMBED_MAGIC, GRAPH_MAGIC, read_container, write_container
from victr.cli import GRAPH_NAMES, main
from victr.fusion import (
    builtin_text_features,
    init_fusion_parameters,
    load_fused,
    save_text_features,
)
from victr.gcn import load_embeddings, save_embeddings
from victr.geometry import load_alias_table, match_objects_to_boxes
from victr.graphstore import (
    EDGE_DTYPE,
    RelationalGraph,
    Vocabulary,
    deserialize_graph,
    serialize_graph,
)
from victr.ingest import load_instances
from victr.sceneparse import load_corpus, scene_graph_from_json


def _cfg_file(tmp_path, toy_paths, out_dir, **extra):
    """A config of the toy_paths files; a path given as "" leaves its key unset."""
    settings = {
        "conllu": toy_paths["conllu"],
        "captions": toy_paths["captions"],
        "instances": toy_paths["instances"],
        "superclass_lexicon": toy_paths["superclasses"],
        "quantifier_lexicon": toy_paths["quantifiers"],
        "alias_table": toy_paths["aliases"],
        "out_dir": out_dir,
        "seed": 7,
        **extra,
    }
    lines = [f"{k} = {v}" for k, v in settings.items() if v != ""]
    path = tmp_path / "config.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def toy_cfg(tmp_path, toy_paths):
    out_dir = tmp_path / "out"
    return _cfg_file(tmp_path, toy_paths, out_dir), out_dir


def test_parse_writes_one_json_per_caption(toy_cfg, capsys):
    cfg, out = toy_cfg
    assert main(["parse", "--config", cfg]) == 0
    files = sorted(os.listdir(out / "scene_graphs"))
    assert len(files) == 20
    assert "parsed 20 captions" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["all", "richest"])
def test_parse_writes_kept_captions_tokens(tmp_path, toy_paths, toy_dep_graphs, mode):
    # the corpus file holds the kept captions' scene graphs, as exported, and token surfaces
    out = tmp_path / "out"
    cfg = _cfg_file(tmp_path, toy_paths, out, caption_mode=mode)
    assert main(["parse", "--config", cfg]) == 0
    kept = {name[:-len(".json")] for name in os.listdir(out / "scene_graphs")}
    corpus = load_corpus(out / "corpus.victrs")
    assert corpus.caption_ids == sorted(kept, key=int)
    tokens = {g.caption_id: [t.surface for t in g.tokens] for g in toy_dep_graphs}
    for i, cid in enumerate(corpus.caption_ids):
        assert unpack_tokens(corpus, i) == tokens[cid]
        doc = (out / "scene_graphs" / f"{cid}.json").read_text(encoding="utf-8")
        assert unpack_scene_graph(corpus, i) == scene_graph_from_json(doc)
    assert len(kept) == (20 if mode == "all" else 10)


def test_parse_richest_keeps_one_per_image(tmp_path, toy_paths):
    out = tmp_path / "out"
    cfg = _cfg_file(tmp_path, toy_paths, out, caption_mode="richest")
    assert main(["parse", "--config", cfg]) == 0
    files = sorted(os.listdir(out / "scene_graphs"))
    assert len(files) == 10  # ten images in the toy corpus
    # image 1: the plural-horses caption is richer than the singular one
    assert "101.json" in files and "102.json" not in files


def test_parse_missing_captions_file_exit_2(tmp_path, toy_paths, capsys):
    out_dir = tmp_path / "out"
    cfg = _cfg_file(tmp_path, toy_paths, out_dir)
    text = Path(cfg).read_text(encoding="utf-8").replace(
        toy_paths["captions"], str(tmp_path / "gone.json")
    )
    Path(cfg).write_text(text, encoding="utf-8")
    assert main(["parse", "--config", cfg]) == 2
    assert "gone.json" in capsys.readouterr().err


def test_build_graphs_before_parse_exit_2(toy_cfg, capsys):
    cfg, _ = toy_cfg
    assert main(["build-graphs", "--config", cfg]) == 2
    assert "parse" in capsys.readouterr().err


def test_build_graphs_writes_seven_files(toy_cfg):
    cfg, out = toy_cfg
    main(["parse", "--config", cfg])
    assert main(["build-graphs", "--config", cfg]) == 0
    names = sorted(os.listdir(out / "graphs"))
    assert names == sorted(
        f"{n}.victrg" for n in
        ("basic", "left_of", "right_of", "above", "below", "inside", "surrounding")
    )
    basic = deserialize_graph(out / "graphs" / "basic.victrg")
    man = basic.vocab.index["man", "object"]
    ride = basic.vocab.index["ride", "relation"]
    # hand count over the toy corpus: ride triples with man subject
    # 101 contributes 4 (2x2 cross product), 102 contributes 2, 104 one
    edges = basic.edges
    assert edges["count"][(edges["src"] == man) & (edges["dst"] == ride)].tolist() == [7]


def test_build_graphs_positional_nonempty(toy_cfg):
    cfg, out = toy_cfg
    main(["parse", "--config", cfg])
    main(["build-graphs", "--config", cfg])
    edge_totals = {}
    for name in ("left_of", "right_of", "above", "below", "inside", "surrounding"):
        g = deserialize_graph(out / "graphs" / f"{name}.victrg")
        edge_totals[name] = int(g.edges["count"].sum())
    # the toy boxes realize every geometric relation at least once
    assert all(total > 0 for total in edge_totals.values()), edge_totals


def test_build_graphs_rerun_byte_identical(toy_cfg):
    cfg, out = toy_cfg
    main(["parse", "--config", cfg])
    main(["build-graphs", "--config", cfg])
    first = {
        name: (out / "graphs" / name).read_bytes()
        for name in os.listdir(out / "graphs")
    }
    main(["build-graphs", "--config", cfg])
    second = {
        name: (out / "graphs" / name).read_bytes()
        for name in os.listdir(out / "graphs")
    }
    assert first == second


def test_parse_removes_token_file_of_earlier_versions(toy_cfg):
    cfg, out = toy_cfg
    out.mkdir()
    (out / "tokens.json").write_text('{"captions": []}\n', encoding="utf-8")
    assert main(["parse", "--config", cfg]) == 0
    assert not (out / "tokens.json").exists() and (out / "corpus.victrs").exists()


def test_train_removes_model_files_of_earlier_versions(toy_cfg):
    cfg, out = toy_cfg
    main(["parse", "--config", cfg])
    main(["build-graphs", "--config", cfg])
    (out / "models").mkdir()
    old = [out / "models" / f"{name}.victrm" for name in GRAPH_NAMES]
    for path in old:
        path.write_bytes(b"weights an earlier version wrote")
    keep = out / "models" / "notes.txt"
    keep.write_text("not a stage output", encoding="utf-8")
    assert main(["train", "--config", cfg]) == 0
    assert not any(path.exists() for path in old) and keep.exists()


def test_stages_after_parse_read_no_scene_graph_json(toy_cfg, tmp_path, toy_paths):
    """The JSON files are an export: without them every later output is the same."""
    cfg, out = toy_cfg
    bare = tmp_path / "bare"
    for directory in (out, bare):
        assert main(["parse", "--config", cfg, "--out-dir", str(directory)]) == 0
    shutil.rmtree(bare / "scene_graphs")
    for stage in ("build-graphs", "train", "compose", "fuse", "project --svg", "stats"):
        for directory in (out, bare):
            assert main(stage.split() + ["--config", cfg, "--out-dir", str(directory)]) == 0
    shutil.rmtree(out / "scene_graphs")
    files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(bare) for p in bare.rglob("*") if p.is_file())
    assert all((out / f).read_bytes() == (bare / f).read_bytes() for f in files)


def test_train_basic_and_positional_widths(toy_cfg):
    cfg, out = toy_cfg
    main(["parse", "--config", cfg])
    main(["build-graphs", "--config", cfg])
    assert main(["train", "--config", cfg]) == 0
    assert sorted(os.listdir(out / "embeddings")) == sorted(f"{n}.victre" for n in GRAPH_NAMES)
    for name in GRAPH_NAMES:
        rows, _ = load_embeddings(out / "embeddings" / f"{name}.victre")
        assert rows.shape[1] == (200 if name == "basic" else 50)
    assert not (out / "models").exists()  # the trained weights are not written
    with open(out / "loss" / "basic.csv", encoding="utf-8") as f:
        rows = f.read().strip().splitlines()
    assert rows[0] == "epoch,loss" and len(rows) == 201


def test_train_positional_rows_outside_participants_zero(toy_cfg):
    cfg, out = toy_cfg
    main(["parse", "--config", cfg])
    main(["build-graphs", "--config", cfg])
    assert main(["train", "--config", cfg]) == 0
    rows, _ = load_embeddings(out / "embeddings" / "left_of.victre")
    graph = deserialize_graph(out / "graphs" / "left_of.victrg")
    inside = graph.participants()
    outside = sorted(set(range(len(graph.vocab))) - set(inside))
    assert rows.shape[0] == len(graph.vocab) and inside.size and outside
    assert np.array_equal(rows[outside], np.zeros((len(outside), 50)))
    assert rows[inside].any()


def test_train_seed_repetition_identical_bytes(toy_cfg):
    cfg, out = toy_cfg
    main(["parse", "--config", cfg])
    main(["build-graphs", "--config", cfg])
    outputs = [out / sub / f"{name}{suffix}" for name in GRAPH_NAMES
               for sub, suffix in (("embeddings", ".victre"), ("loss", ".csv"))]
    main(["train", "--config", cfg])
    first = [path.read_bytes() for path in outputs]
    main(["train", "--config", cfg, "--graph", "all"])  # the same seven graphs
    assert [path.read_bytes() for path in outputs] == first


@pytest.mark.parametrize("argv", [["train", "--graph", "basic"], ["train", "--graph", "above"],
                                  ["parse", "--seed", "8"], ["parse", "--caption-mode", "all"],
                                  ["project", "--kind", "object"]],
                         ids=["train_basic", "train_above", "seed", "caption_mode", "kind"])
def test_removed_options_exit_2(toy_cfg, argv):
    # the config file is the one source of settings, and train trains all seven graphs
    cfg, out = toy_cfg
    with pytest.raises(SystemExit) as e:
        main(argv + ["--config", cfg])
    assert e.value.code == 2
    assert not out.exists()


def test_train_missing_graph_exit_2(toy_cfg, capsys):
    cfg, _ = toy_cfg
    assert main(["train", "--config", cfg]) == 2
    assert "build-graphs" in capsys.readouterr().err


def _run_through_train(cfg, epochs_args=()):
    main(["parse", "--config", cfg])
    main(["build-graphs", "--config", cfg])
    assert main(["train", "--config", cfg, "--graph", "all"]) == 0


def test_compose_fuse_project_chain(toy_cfg, capsys):
    cfg, out = toy_cfg
    _run_through_train(cfg)
    assert main(["compose", "--config", cfg]) == 0
    evs_files = [f for f in os.listdir(out / "evs") if f.endswith(".victre")]
    assert len(evs_files) == 20
    doc = json.loads((out / "scene_graphs" / "101.json").read_text(encoding="utf-8"))
    assert [o["word"] for o in doc["objects"]] == ["man", "man", "horse", "horse"]
    rows, _ = load_embeddings(out / "evs" / "101.victre")
    assert rows.shape == (len(doc["objects"]), 1200)  # row i is object i

    assert main(["fuse", "--config", cfg]) == 0
    fused, header = load_fused(out / "fused" / "101.victrf")
    assert header["d"] == 256 and header["v"] == 1200
    assert fused.word_repr.shape == (6, 1456)
    assert np.allclose(fused.attention.sum(axis=1), 1.0, atol=1e-6)

    assert main(["project", "--config", cfg, "--svg"]) == 0
    tsv = (out / "projection" / "object.tsv").read_text(encoding="utf-8")
    rows = [line.split("\t") for line in tsv.strip().splitlines()]
    assert all(len(r) == 4 for r in rows)
    assert (out / "projection" / "object.svg").exists()
    assert main(["stats", "--config", cfg]) == 0
    assert "basic graph" in capsys.readouterr().out


def test_fuse_deterministic(toy_cfg):
    cfg, out = toy_cfg
    _run_through_train(cfg)
    main(["compose", "--config", cfg])
    main(["fuse", "--config", cfg])
    first = (out / "fused" / "104.victrf").read_bytes()
    main(["fuse", "--config", cfg])
    assert (out / "fused" / "104.victrf").read_bytes() == first


def test_fuse_reads_each_evs_file_once(toy_cfg, monkeypatch):
    cfg, out = toy_cfg
    _run_through_train(cfg)
    main(["compose", "--config", cfg])
    reads = []

    def counting_read(path, magic):
        reads.append(os.path.basename(path))
        return read_container(path, magic)

    monkeypatch.setattr(victr.gcn, "read_container", counting_read)
    assert main(["fuse", "--config", cfg]) == 0
    assert sorted(reads) == sorted(f for f in os.listdir(out / "evs") if f.endswith(".victre"))


def test_project_without_svg_drops_earlier_svg(toy_cfg):
    cfg, out = toy_cfg
    _run_through_train(cfg)
    assert main(["project", "--config", cfg, "--svg"]) == 0
    assert (out / "projection" / "object.svg").exists()
    Path(cfg).write_text(Path(cfg).read_text(encoding="utf-8").replace("seed = 7", "seed = 8"),
                         encoding="utf-8")
    assert main(["train", "--config", cfg]) == 0
    assert main(["project", "--config", cfg]) == 0
    assert (out / "projection" / "object.tsv").exists()
    assert not (out / "projection" / "object.svg").exists()


def test_parse_richest_after_all_drops_stale_scene_graphs(toy_cfg, tmp_path, toy_paths,
                                                          capsys):
    cfg, out = toy_cfg
    assert main(["parse", "--config", cfg]) == 0
    assert len(os.listdir(out / "scene_graphs")) == 20
    cfg = _cfg_file(tmp_path, toy_paths, out, caption_mode="richest")
    assert main(["parse", "--config", cfg]) == 0
    fresh = tmp_path / "fresh"
    assert main(["parse", "--config", cfg, "--out-dir", str(fresh)]) == 0
    assert sorted(os.listdir(out / "scene_graphs")) == sorted(os.listdir(fresh / "scene_graphs"))
    capsys.readouterr()
    assert main(["stats", "--config", cfg]) == 0
    assert "scene graphs: 10 captions" in capsys.readouterr().out


def test_compose_and_fuse_drop_foreign_outputs(toy_cfg):
    # files of another corpus in the stage directories, as a reused output
    # directory holds them; fuse used to fail on the caption it cannot find
    cfg, out = toy_cfg
    _run_through_train(cfg)
    (out / "evs").mkdir()
    (out / "fused").mkdir()
    foreign = [out / "evs" / "999.victre", out / "fused" / "999.victrf"]
    for path in foreign:
        path.write_bytes(b"from an earlier run")
    keep = out / "evs" / "notes.txt"
    keep.write_text("not a stage output", encoding="utf-8")
    assert main(["compose", "--config", cfg]) == 0
    assert main(["fuse", "--config", cfg]) == 0
    assert not any(path.exists() for path in foreign)
    assert keep.exists()
    assert len(os.listdir(out / "evs")) == 20 + 1
    assert len(os.listdir(out / "fused")) == 20


def _header_not_json(path):
    rewrite_container(path, lambda head, payload: (b"{not json", payload))


def _header_without_relations(path):
    _rewrite_header(path, CORPUS_MAGIC, lambda header: header.pop("relations"))


def _objects_count_a_list(path):
    _rewrite_header(path, CORPUS_MAGIC, lambda header: header.update(objects=[60]))


def _word_id_outside_table(path):
    edit_corpus(path, lambda c: c.objects.__setitem__((0, 0), len(c.strings)))


def _text_not_utf8(path):
    rewrite_container(path, lambda head, payload: (head, payload[:-1] + b"\xff"))


@pytest.mark.parametrize("corrupt", [
    _header_not_json, _header_without_relations, _objects_count_a_list, _word_id_outside_table,
    _text_not_utf8,
], ids=["not_json", "missing_key", "objects_int", "string_id", "non_string_word"])
def test_build_graphs_malformed_scene_graph_exit_2(toy_cfg, capsys, corrupt):
    cfg, out = toy_cfg
    assert main(["parse", "--config", cfg]) == 0
    path = out / "corpus.victrs"
    corrupt(path)
    capsys.readouterr()
    assert main(["build-graphs", "--config", cfg]) == 2
    assert f"{path}: " in capsys.readouterr().err


def test_compose_repeated_caption_id_exit_2(toy_cfg, capsys):
    # compose names each E_vs file by its caption's id, so a repeated id
    # would write 101's file twice and 102's never
    cfg, out = toy_cfg
    _run_through_train(cfg)
    path = out / "corpus.victrs"
    edit_corpus(path, lambda c: c.captions.__setitem__((1, 0), c.captions[0, 0]))
    capsys.readouterr()
    assert main(["compose", "--config", cfg]) == 2
    assert f"{path}: duplicate caption id 101" in capsys.readouterr().err
    assert not (out / "evs").exists()


def _object_of_another_caption(c):
    """Caption 104's first relation names caption 103's first object as its subject."""
    c.relations[c.offsets[3, 2], 0] = c.offsets[2, 0]


@pytest.mark.parametrize("stage", ["build-graphs", "compose", "stats"])
def test_scene_graph_object_ids_not_positions_exit_2(toy_cfg, capsys, stage):
    # every stage finds object k of caption i at row offsets[i, 0] + k, so a
    # relation may name only rows of its own caption
    cfg, out = toy_cfg
    assert main(["parse", "--config", cfg]) == 0
    path = out / "corpus.victrs"
    edit_corpus(path, _object_of_another_caption)
    capsys.readouterr()
    assert main([stage, "--config", cfg]) == 2
    assert (f"{path}: caption 104: a relation names an object outside the caption"
            in capsys.readouterr().err)


def test_build_graphs_word_with_two_super_classes_exit_2(toy_cfg, capsys):
    # an object node has one super-class, so the captions must agree on each word's
    cfg, out = toy_cfg
    assert main(["parse", "--config", cfg]) == 0
    path = out / "corpus.victrs"

    def man_an_animal_in_102(c):
        man, animal = c.strings.index("man"), c.strings.index("animal")
        rows = np.arange(c.offsets[1, 0], c.offsets[2, 0])
        c.objects[rows[c.objects[rows, 0] == man], 1] = animal

    edit_corpus(path, man_an_animal_in_102)
    capsys.readouterr()
    assert main(["build-graphs", "--config", cfg]) == 2
    assert (f"{path}: caption 102: object word 'man' has super-class 'animal', but caption 101 "
            "gives it 'person'") in capsys.readouterr().err
    assert not (out / "graphs").exists()


def test_project_svg_escapes_words(toy_cfg):
    # lemmas are free text: "&" and "<" must not break the SVG's XML
    cfg, out = toy_cfg
    assert main(["parse", "--config", cfg]) == 0

    def rename(c):
        for word, new in (("man", "at&t"), ("horse", "<x>")):
            c.strings[c.strings.index(word)] = new

    edit_corpus(out / "corpus.victrs", rename)
    assert main(["build-graphs", "--config", cfg]) == 0
    assert main(["train", "--config", cfg, "--graph", "all"]) == 0
    assert main(["project", "--config", cfg, "--svg"]) == 0
    root = ET.parse(out / "projection" / "object.svg").getroot()
    words = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    tsv = (out / "projection" / "object.tsv").read_text(encoding="utf-8")
    assert words == [line.split("\t")[0] for line in tsv.splitlines()]
    assert {"at&t", "<x>"} <= set(words)


def test_fuse_before_compose_exit_2(toy_cfg, capsys):
    cfg, _ = toy_cfg
    assert main(["fuse", "--config", cfg]) == 2
    assert "compose" in capsys.readouterr().err


@pytest.fixture(scope="module")
def composed_out(tmp_path_factory, toy_paths):
    """A toy run through compose, made once; each fuse test copies it."""
    base = tmp_path_factory.mktemp("composed")
    cfg = _cfg_file(base, toy_paths, base / "out")
    _run_through_train(cfg)
    assert main(["compose", "--config", cfg]) == 0
    return base / "out"


@pytest.fixture()
def fuse_cfg(tmp_path, toy_paths, composed_out):
    out = tmp_path / "out"
    shutil.copytree(composed_out, out)
    return _cfg_file(tmp_path, toy_paths, out), out


@pytest.mark.parametrize("block_rows", [1, 5])
def test_compose_block_size_leaves_files_unchanged(fuse_cfg, monkeypatch, block_rows):
    """Blocks of any size, and captions larger than a block, give the same E_vs files."""
    cfg, out = fuse_cfg
    whole = {p.name: p.read_bytes() for p in (out / "evs").iterdir()}
    monkeypatch.setattr(victr.cli, "COMPOSE_BLOCK_ROWS", block_rows)
    assert main(["compose", "--config", cfg]) == 0
    assert {p.name: p.read_bytes() for p in (out / "evs").iterdir()} == whole


def _fused_bytes(out):
    return {p.name: p.read_bytes() for p in sorted((out / "fused").iterdir())}


def _write_text_features(directory, toy_dep_graphs, dim=256):
    directory.mkdir()
    for g in toy_dep_graphs:
        words = builtin_text_features([t.surface for t in g.tokens], seed=7, dim=dim)
        save_text_features(words, words.mean(axis=0), directory / f"{g.caption_id}.victre")


def test_fuse_default_weights_file_byte_identical(fuse_cfg, tmp_path):
    cfg, out = fuse_cfg
    assert main(["fuse", "--config", cfg]) == 0
    builtin = _fused_bytes(out)
    weights = tmp_path / "w.npy"
    np.save(weights, init_fusion_parameters(256, 1200, seed=7))
    assert main(["fuse", "--config", cfg, "--weights", str(weights)]) == 0
    assert len(builtin) == 20 and _fused_bytes(out) == builtin


def test_fuse_text_features_files_match_builtin(fuse_cfg, tmp_path, toy_dep_graphs):
    cfg, out = fuse_cfg
    assert main(["fuse", "--config", cfg]) == 0
    builtin = {p.name: load_fused(p)[0] for p in (out / "fused").iterdir()}
    _write_text_features(tmp_path / "text", toy_dep_graphs)
    assert main(["fuse", "--config", cfg, "--text-features", str(tmp_path / "text")]) == 0
    assert len(builtin) == 20
    for name, want in builtin.items():
        got, _ = load_fused(out / "fused" / name)
        for a, b in ((got.word_repr, want.word_repr), (got.sentence_repr, want.sentence_repr),
                     (got.attention, want.attention)):
            assert np.allclose(a, b, rtol=1e-6), name


def test_fuse_text_features_missing_file_exit_2(fuse_cfg, tmp_path, toy_dep_graphs, capsys):
    cfg, _ = fuse_cfg
    _write_text_features(tmp_path / "text", toy_dep_graphs)
    (tmp_path / "text" / "103.victre").unlink()
    assert main(["fuse", "--config", cfg, "--text-features", str(tmp_path / "text")]) == 2
    assert "text features for caption 103 not found" in capsys.readouterr().err


def test_fuse_text_features_wrong_width_exit_2(fuse_cfg, tmp_path, toy_dep_graphs, capsys):
    cfg, _ = fuse_cfg
    _write_text_features(tmp_path / "text", toy_dep_graphs, dim=128)
    assert main(["fuse", "--config", cfg, "--text-features", str(tmp_path / "text")]) == 2
    assert re.search(r"\.victre: file width 128 != configured width 256", capsys.readouterr().err)


def test_fuse_non_finite_text_features_exit_2(fuse_cfg, tmp_path, toy_dep_graphs, capsys):
    cfg, _ = fuse_cfg
    _write_text_features(tmp_path / "text", toy_dep_graphs)
    path = tmp_path / "text" / "104.victre"
    words = builtin_text_features(["a", "dog"], seed=7, dim=256)
    words[1, 5] = np.nan
    save_text_features(words, words.mean(axis=0), path)
    assert main(["fuse", "--config", cfg, "--text-features", str(tmp_path / "text")]) == 2
    assert f"{path}: payload holds non-finite values" in capsys.readouterr().err


def test_fuse_text_features_word_count_mismatch_exit_2(fuse_cfg, tmp_path, toy_dep_graphs,
                                                       capsys):
    cfg, out = fuse_cfg
    _write_text_features(tmp_path / "text", toy_dep_graphs)
    path = tmp_path / "text" / "104.victre"
    words = builtin_text_features(["a", "dog"], seed=7, dim=256)
    save_text_features(words, words.mean(axis=0), path)
    assert main(["fuse", "--config", cfg, "--text-features", str(tmp_path / "text")]) == 2
    assert (f"{path}: 2 word rows, but caption 104 has 4 tokens in "
            in capsys.readouterr().err)


def test_fuse_text_features_without_words_exit_2(fuse_cfg, tmp_path, toy_dep_graphs, capsys):
    cfg, _ = fuse_cfg
    _write_text_features(tmp_path / "text", toy_dep_graphs)
    path = tmp_path / "text" / "104.victre"
    write_container(path, EMBED_MAGIC, {"kind": "text_features", "l": 0, "d": 256},
                    np.zeros(256, dtype="<f4").tobytes())
    assert main(["fuse", "--config", cfg, "--text-features", str(tmp_path / "text")]) == 2
    assert f"{path}: text features need l >= 1 words, got l = 0" in capsys.readouterr().err


def _plant_nan(path):
    rows, vocab_hash = load_embeddings(path)
    rows[1, 5] = np.nan
    save_embeddings(rows, path, vocab_hash=vocab_hash)


def test_fuse_non_finite_evs_exit_2(fuse_cfg, capsys):
    cfg, out = fuse_cfg
    path = out / "evs" / "101.victre"
    _plant_nan(path)
    assert main(["fuse", "--config", cfg]) == 2
    assert f"{path}: payload holds non-finite values" in capsys.readouterr().err
    assert not (out / "fused" / "101.victrf").exists()


def test_compose_and_project_non_finite_embeddings_exit_2(fuse_cfg, capsys):
    cfg, out = fuse_cfg
    path = out / "embeddings" / "basic.victre"
    _plant_nan(path)
    for stage in ("compose", "project"):
        assert main([stage, "--config", cfg]) == 2, stage
        assert f"{path}: payload holds non-finite values" in capsys.readouterr().err


def _rewrite_header(path, magic, edit):
    header, payload = read_container(path, magic)
    edit(header)
    write_container(path, magic, header, payload)


def _float_n(header):
    header["n"] = float(header["n"])


def _words_not_a_list(header):
    header["vocab"]["words"] = 3


@pytest.mark.parametrize("stage, name, magic, edit", [
    ("fuse", "evs/101.victre", EMBED_MAGIC, _float_n),
    ("compose", "embeddings/basic.victre", EMBED_MAGIC, _float_n),
    ("train", "graphs/basic.victrg", GRAPH_MAGIC, _words_not_a_list),
], ids=["evs_fuse", "embeddings_compose", "graph_train"])
def test_malformed_artifact_header_exit_2_without_traceback(fuse_cfg, stage, name, magic,
                                                            edit):
    cfg, out = fuse_cfg
    path = out / name
    _rewrite_header(path, magic, edit)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "victr.cli", stage, "--config", cfg],
                          capture_output=True, text=True, encoding="utf-8",
                          env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and f"{path}: header" in proc.stderr


@pytest.mark.parametrize("stage", ["train", "stats"])
def test_graph_header_repeating_a_node_exit_2(fuse_cfg, capsys, stage):
    # "horse" renamed "man": two object nodes of one word would split its counts
    cfg, out = fuse_cfg
    path = out / "graphs" / "basic.victrg"
    words = read_container(path, GRAPH_MAGIC)[0]["vocab"]["words"]
    man, horse = words.index("man"), words.index("horse")
    _rewrite_header(path, GRAPH_MAGIC, lambda header: header["vocab"]["words"].__setitem__(
        horse, "man"))
    assert main([stage, "--config", cfg]) == 2
    assert (f"{path}: header vocab node {horse} repeats node {man}, object 'man'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("stage", ["train", "compose", "stats"])
def test_graph_kind_differs_from_file_name_exit_2(fuse_cfg, capsys, stage):
    # a basic.victrg that says left_of used to train and report as basic
    cfg, out = fuse_cfg
    path = out / "graphs" / "basic.victrg"
    _rewrite_header(path, GRAPH_MAGIC, lambda header: header.update(kind="left_of"))
    assert main([stage, "--config", cfg]) == 2
    assert f"{path}: header kind 'left_of' differs from the file name" in capsys.readouterr().err


def _reshape(factor):
    """A header edit that keeps n * h: n times factor rows of width h / factor."""
    def edit(header):
        header["n"], header["h"] = header["n"] * factor, header["h"] // factor
    return edit


@pytest.mark.parametrize("stage, name, edit, message", [
    ("fuse", "evs/101.victre", _reshape(2),
     "rows of width 600, expected the configured scene width 1200"),
    ("compose", "embeddings/basic.victre", _reshape(5), "205 rows of width 40, expected 41 of "
     "width 200"),
    ("project", "embeddings/above.victre", _reshape(2), "82 rows of width 25, expected 41 of "
     "width 50"),
    ("compose", "embeddings/inside.victre", lambda header: header.update(vocab_hash="0" * 16),
     "trained on a vocabulary other than "),
], ids=["evs_fuse", "basic_compose", "above_project", "vocab_hash_compose"])
def test_artifact_of_other_shape_names_its_path_exit_2(fuse_cfg, capsys, stage, name, edit,
                                                       message):
    cfg, out = fuse_cfg
    path = out / name
    _rewrite_header(path, EMBED_MAGIC, edit)
    assert main([stage, "--config", cfg]) == 2
    assert f"{path}: {message}" in capsys.readouterr().err


def test_embeddings_of_another_configured_width_exit_2(fuse_cfg, capsys):
    # a config whose widths changed after train: compose names the first stale table
    cfg, out = fuse_cfg
    Path(cfg).write_text(Path(cfg).read_text(encoding="utf-8") + "basic_width = 100\n",
                         encoding="utf-8")
    assert main(["compose", "--config", cfg]) == 2
    assert (f"{out / 'embeddings' / 'basic.victre'}: 41 rows of width 200, expected 41 of "
            "width 100") in capsys.readouterr().err


@pytest.mark.parametrize("stage, key, message", [
    ("parse", "conllu", "no CoNLL-U file (config key conllu) configured"),
    ("parse", "captions", "no captions file (config key captions) configured"),
    ("build-graphs", "instances", "no instances file (config key instances) configured; "
     "positional graphs need bounding boxes"),
], ids=["conllu", "captions", "instances"])
def test_unset_input_names_its_config_key_exit_2(tmp_path, toy_paths, capsys, stage, key,
                                                 message):
    cfg = _cfg_file(tmp_path, toy_paths, tmp_path / "out")
    assert main(["parse", "--config", cfg]) == 0
    cfg = _cfg_file(tmp_path, {**toy_paths, key: ""}, tmp_path / "out")
    capsys.readouterr()
    assert main([stage, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("weight, message", [
    (np.nan, "edge weights hold non-finite values"), (-1.0, "weight family of object node"),
], ids=["nan", "negative"])
def test_graph_weights_checked_where_read_exit_2(fuse_cfg, capsys, weight, message):
    cfg, out = fuse_cfg
    path = out / "graphs" / "basic.victrg"
    header, payload = read_container(path, GRAPH_MAGIC)
    records = np.frombuffer(payload, dtype=EDGE_DTYPE).copy()
    records["weight"][np.flatnonzero(records["src"] != records["dst"])[0]] = weight
    write_container(path, GRAPH_MAGIC, header, records.tobytes())
    for argv in (["train"], ["stats"], ["compose"]):
        assert main(argv + ["--config", cfg]) == 2, argv
        err = capsys.readouterr().err
        assert f"{path}: " in err and message in err, argv


def _nan_weights(path):
    w = init_fusion_parameters(256, 1200, seed=7)
    w[3, 4] = np.nan
    np.save(path, w)


def _object_weights(path):
    np.save(path, np.array([1, "a", None], dtype=object))


def _text_weights(path):
    path.write_text("0.5 0.5\n", encoding="utf-8")


def _wrong_shape_weights(path):
    np.save(path, np.zeros((256, 12)))


@pytest.mark.parametrize("write, message", [
    (_nan_weights, "{path}: fusion weights hold non-finite values"),
    (_object_weights, "{path}: not a numeric .npy matrix"),
    (_text_weights, "{path}: not a numeric .npy matrix"),
    (_wrong_shape_weights, "fusion weights shape (256, 12), expected (256, 1200)"),
], ids=["nan", "object_array", "not_npy", "wrong_shape"])
def test_fuse_bad_weights_exit_2(fuse_cfg, tmp_path, capsys, write, message):
    cfg, out = fuse_cfg
    path = tmp_path / "w.npy"
    write(path)
    assert main(["fuse", "--config", cfg, "--weights", str(path)]) == 2
    assert message.format(path=path) in capsys.readouterr().err
    assert not (out / "fused").exists() or not any((out / "fused").iterdir())


def _without_tokens(c):
    """c with caption 102's tokens taken out."""
    first, end = c.offsets[1:3, 3]
    c.offsets[2:, 3] -= end - first
    return dataclasses.replace(c, tokens=np.delete(c.tokens, np.s_[first:end]))


def test_fuse_caption_without_tokens_exit_2(fuse_cfg, capsys):
    cfg, out = fuse_cfg
    path = out / "corpus.victrs"
    edit_corpus(path, _without_tokens)
    assert main(["fuse", "--config", cfg]) == 2
    assert f"caption 102 has no tokens in {path}" in capsys.readouterr().err


def test_fuse_reads_no_conllu(fuse_cfg, tmp_path, toy_paths):
    """fuse takes token surfaces from parse's corpus file, not from the corpus input."""
    cfg, out = fuse_cfg
    assert main(["fuse", "--config", cfg]) == 0
    with_corpus = _fused_bytes(out)
    shutil.rmtree(out / "fused")
    gone = _cfg_file(tmp_path, {**toy_paths, "conllu": str(tmp_path / "deleted.conllu")}, out)
    assert main(["fuse", "--config", gone]) == 0
    assert len(with_corpus) == 20 and _fused_bytes(out) == with_corpus


def _token_count_a_string(path):
    _rewrite_header(path, CORPUS_MAGIC, lambda header: header.update(tokens="12"))


def _token_outside_table(path):
    edit_corpus(path, lambda c: c.tokens.__setitem__(c.offsets[2, 3] + 1, len(c.strings)))


def _repeated_id(path):
    edit_corpus(path, lambda c: c.captions.__setitem__((3, 0), c.captions[2, 0]))


def _no_record(path):
    """Caption 103 renamed 903, which has no E_vs file."""
    edit_corpus(path, lambda c: c.strings.__setitem__(c.strings.index("103"), "903"))


@pytest.mark.parametrize("corrupt, message", [
    (_header_not_json, "{path}: bad header"),
    (_token_count_a_string, "{path}: header field 'tokens' must be an integer >= 0, got '12'"),
    (_token_outside_table, "{path}: a string id outside the table of "),
    (_repeated_id, "{path}: duplicate caption id 103"),
    (_no_record, "E_vs file of caption 903 not found: "),
], ids=["not_json", "tokens_not_list", "non_string_token", "repeated_id", "no_record"])
def test_fuse_malformed_tokens_file_exit_2(fuse_cfg, capsys, corrupt, message):
    cfg, out = fuse_cfg
    path = out / "corpus.victrs"
    corrupt(path)
    assert main(["fuse", "--config", cfg]) == 2
    assert message.format(path=path) in capsys.readouterr().err
    assert not (out / "fused").exists()


def test_fuse_without_tokens_file_exit_2(fuse_cfg, capsys):
    cfg, out = fuse_cfg
    (out / "corpus.victrs").unlink()
    assert main(["fuse", "--config", cfg]) == 2
    assert (f"scene-graph corpus not found: {out / 'corpus.victrs'}; run the parse stage first"
            in capsys.readouterr().err)


def test_project_requires_two_vectors(tmp_path, toy_paths, capsys):
    # a one-caption corpus with a single object word cannot be projected
    out_dir = tmp_path / "out"
    conllu = tmp_path / "one.conllu"
    conllu.write_text(
        "# caption_id = 1\n# image_id = 1\n"
        "1\tdog\tdog\tNOUN\t_\t_\t0\troot\t_\t_\n",
        encoding="utf-8",
    )
    captions = tmp_path / "one.json"
    captions.write_text(
        json.dumps({"annotations": [{"image_id": 1, "id": 1, "caption": "dog"}]}),
        encoding="utf-8",
    )
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        f"conllu = {conllu}\ncaptions = {captions}\n"
        f"instances = {toy_paths['instances']}\nout_dir = {out_dir}\n"
        "epochs = 2\n",
        encoding="utf-8",
    )
    main(["parse", "--config", str(cfg)])
    main(["build-graphs", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    assert main(["project", "--config", str(cfg)]) == 2
    assert "at least 2" in capsys.readouterr().err


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("frobnicate = yes\n", encoding="utf-8")
    assert main(["parse", "--config", str(cfg)]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_out_dir_override(toy_cfg, tmp_path):
    cfg, _ = toy_cfg
    alt = tmp_path / "alt"
    assert main(["parse", "--config", cfg, "--out-dir", str(alt)]) == 0
    assert (alt / "scene_graphs" / "101.json").exists()


def test_parse_head_cycle_exit_2(tmp_path, toy_paths):
    # a cycle under a quantifier used to hang quantifier expansion; run in a
    # child process so a regression fails on the timeout instead of hanging
    conllu = tmp_path / "cycle.conllu"
    conllu.write_text(
        "# caption_id = 101\n# image_id = 1\n"
        "1\tlots\tlot\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tof\tof\tADP\t_\t_\t1\tcase\t_\t_\n"
        "3\tdogs\tdog\tNOUN\t_\t_\t1\tnsubj\t_\t_\n"
        "4\trun\trun\tVERB\t_\t_\t0\troot\t_\t_\n",
        encoding="utf-8",
    )
    cfg = _cfg_file(tmp_path, {**toy_paths, "conllu": str(conllu)}, tmp_path / "out")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "victr.cli", "parse", "--config", cfg],
                          capture_output=True, text=True, encoding="utf-8", env=env, timeout=60)
    assert proc.returncode == 2
    assert re.search(r"cycle\.conllu:\d+: .*head cycle", proc.stderr)


def test_train_edge_outside_vocabulary_exit_2(tmp_path, capsys):
    vocab = Vocabulary(nodes=[("dog", "object"), ("on", "relation"), ("grass", "object")],
                       object_super_class={0: "animal", 2: "plant"})
    edges = np.array([(0, 0, 0, 1.0), (1, 1, 0, 1.0), (1, 5, 1, 1.0), (2, 2, 0, 1.0)],
                     dtype=EDGE_DTYPE)
    graph = RelationalGraph(vocab=vocab, kind="basic", edges=edges)
    path = tmp_path / "out" / "graphs" / "basic.victrg"
    path.parent.mkdir(parents=True)
    serialize_graph(graph, path)
    assert main(["train", "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "basic.victrg" in err and "outside the vocabulary" in err


@pytest.mark.parametrize("bad, kinds", [
    ((0, 2), "object->object"), ((1, 3), "relation->attribute"), ((3, 0), "attribute->object"),
], ids=["object_object", "relation_attribute", "attribute_object"])
def test_train_edge_breaking_kind_structure_exit_2(tmp_path, capsys, bad, kinds):
    vocab = Vocabulary(nodes=[("dog", "object"), ("on", "relation"), ("grass", "object"),
                              ("green", "attribute")],
                       object_super_class={0: "animal", 2: "plant"})
    records = {(0, 1): 1, (1, 2): 1, (2, 3): 1, bad: 1} | {(i, i): 0 for i in range(4)}
    edges = np.array([(s, d, c, 1.0) for (s, d), c in sorted(records.items())],
                     dtype=EDGE_DTYPE)
    path = tmp_path / "out" / "graphs" / "basic.victrg"
    path.parent.mkdir(parents=True)
    serialize_graph(RelationalGraph(vocab=vocab, kind="basic", edges=edges), path)
    assert main(["train", "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{path}: edge" in err and f"{bad} is {kinds}, not" in err


@pytest.mark.parametrize("order", [
    [0, 1, 1, 2, 3, 4],  # the (0, 1) record twice: its weight would count twice in d_0
    [0, 2, 1, 3, 4],  # (1, 1) ahead of (0, 1)
], ids=["duplicate", "swapped"])
def test_train_unordered_graph_records_exit_2(tmp_path, capsys, order):
    vocab = Vocabulary(nodes=[("dog", "object"), ("on", "relation"), ("grass", "object")],
                       object_super_class={0: "animal", 2: "plant"})
    edges = np.array([(0, 0, 0, 1.0), (0, 1, 1, 1.0), (1, 1, 0, 1.0), (1, 2, 1, 1.0),
                      (2, 2, 0, 1.0)], dtype=EDGE_DTYPE)
    path = tmp_path / "out" / "graphs" / "basic.victrg"
    path.parent.mkdir(parents=True)
    serialize_graph(RelationalGraph(vocab=vocab, kind="basic", edges=edges[order]), path)
    assert main(["train", "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "strictly ascending in (src, dst)" in err


@pytest.mark.parametrize("key, text, message", [
    ("captions", '{"annotations": 5}', ": must be a JSON object with a list 'annotations'"),
    ("captions", '{"annotations": [5]}', ": annotations[0]: must be an object, got 5"),
    ("captions", '{"annotations": [{"id": 101.0, "image_id": 1, "caption": "x"}]}',
     ": annotations[0].id must be int or str, got 101.0"),
    ("captions", '{"annotations": [{"id": 101, "image_id": 1, "caption": ["x"]}]}',
     ": annotations[0].caption must be str, got ['x']"),
    ("captions", '{"annotations": [', ": Expecting value"),
    ("conllu", "# caption_id = 101\n# image_id = 1\nx\tdog\tdog\tNOUN\t_\t_\t0\troot\t_\t_\n",
     ":3: non-integer token id 'x'"),
    ("quantifiers", "two\tx\n", ":1: 'x' is not an integer or MANY"),
], ids=["annotations_int", "annotation_int", "caption_float_id", "caption_list", "captions_not_json",
        "conllu_token_id", "quantifier_value"])
def test_parse_malformed_input_exit_2(tmp_path, toy_paths, capsys, key, text, message):
    bad = tmp_path / f"bad_{key}"
    bad.write_text(text, encoding="utf-8")
    cfg = _cfg_file(tmp_path, {**toy_paths, key: str(bad)}, tmp_path / "out")
    assert main(["parse", "--config", cfg]) == 2
    assert f"{bad}{message}" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda text: text + "\n" + text.split("\n\n")[0] + "\n",
     ":185: duplicate caption_id 101, first given at line 1"),
    (lambda text: text.replace("# image_id = 1\n", "# image_id = 2\n", 1),
     ": caption 101: image_id 2, but "),
], ids=["repeated_sentence", "image_id_disagrees"])
def test_parse_inconsistent_caption_exit_2(tmp_path, toy_paths, capsys, edit, message):
    bad = tmp_path / "bad.conllu"
    bad.write_text(edit(Path(toy_paths["conllu"]).read_text(encoding="utf-8")), encoding="utf-8")
    cfg = _cfg_file(tmp_path, {**toy_paths, "conllu": str(bad)}, tmp_path / "out")
    assert main(["parse", "--config", cfg]) == 2
    assert f"{bad}{message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _build_graphs_with_instances(toy_cfg, tmp_path, toy_paths, corrupt) -> tuple[int, str]:
    """Run parse, then build-graphs on the toy instances as ``corrupt`` left them."""
    cfg, out = toy_cfg
    assert main(["parse", "--config", cfg]) == 0
    with open(toy_paths["instances"], encoding="utf-8") as f:
        doc = json.load(f)
    corrupt(doc)
    bad = tmp_path / "bad_instances.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    cfg = _cfg_file(tmp_path, {**toy_paths, "instances": str(bad)}, out)
    return main(["build-graphs", "--config", cfg]), str(bad)


@pytest.mark.parametrize("corrupt, message", [
    (lambda doc: doc.update(annotations=3), ": must be a JSON object with a list 'annotations'"),
    (lambda doc: doc.update(categories=[5]), ": categories[0]: must be an object, got 5"),
    (lambda doc: doc["annotations"][3].update(category_id=[1]),
     ": annotations[3].category_id must be int or str, got [1]"),
    (lambda doc: doc["categories"][0].update(id=[1]),
     ": categories[0].id must be int or str, got [1]"),
    (lambda doc: doc["categories"][0].update(name=["person"]),
     ": categories[0].name must be str, got ['person']"),
    (lambda doc: doc["categories"][0].update(name=5), ": categories[0].name must be str, got 5"),
    (lambda doc: doc["annotations"][3].update(image_id=1.0),
     ": annotations[3].image_id must be int or str, got 1.0"),
    (lambda doc: doc["annotations"][3].update(category_id=True),
     ": annotations[3].category_id must be int or str, got True"),
    (lambda doc: doc["categories"][2].update(id=doc["categories"][0]["id"]),
     ": categories[2]: duplicate category id 1"),
    (lambda doc: doc["annotations"][3].update(category_id=99),
     ": annotations[3]: unknown category_id 99"),
], ids=["annotations_int", "category_int", "category_id_list", "category_list_id",
        "category_list_name", "category_int_name", "image_id_float", "category_id_true",
        "repeated_category_id", "unknown_category_id"])
def test_build_graphs_malformed_instances_exit_2(toy_cfg, tmp_path, toy_paths, capsys,
                                                corrupt, message):
    code, bad = _build_graphs_with_instances(toy_cfg, tmp_path, toy_paths, corrupt)
    assert code == 2
    assert f"{bad}{message}" in capsys.readouterr().err


def test_parse_missing_instances_exit_2(tmp_path, toy_paths, capsys):
    """Without a super-class lexicon, parse reads the instances file it is given."""
    missing = tmp_path / "missing_instances.json"
    cfg = _cfg_file(tmp_path, {**toy_paths, "superclasses": "", "instances": str(missing)},
                    tmp_path / "out")
    assert main(["parse", "--config", cfg]) == 2
    assert f"instances file not found: {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("bbox", [
    [10, 20, float("nan"), 40],
    [10, float("inf"), 30, 40],
    "10 20 30 40",
    [10, 20, 30],
    None,
    [10, 20, 10**400, 40],
], ids=["nan", "inf", "string", "three_numbers", "null", "huge_integer"])
def test_build_graphs_malformed_bbox_exit_2(toy_cfg, tmp_path, toy_paths, capsys, bbox):
    code, bad = _build_graphs_with_instances(
        toy_cfg, tmp_path, toy_paths, lambda doc: doc["annotations"][3].update(bbox=bbox))
    assert code == 2
    assert f"{bad}: annotations[3].bbox" in capsys.readouterr().err


def test_parse_without_lexicon_reads_only_instance_categories(tmp_path, toy_paths, capsys):
    """Parse takes super-classes from the categories; a bad box is build-graphs' to report."""
    inputs = {**toy_paths, "superclasses": ""}
    cfg = _cfg_file(tmp_path, inputs, tmp_path / "clean")
    assert main(["parse", "--config", cfg]) == 0
    clean = {p.name: p.read_bytes() for p in (tmp_path / "clean" / "scene_graphs").iterdir()}
    with open(toy_paths["instances"], encoding="utf-8") as f:
        doc = json.load(f)
    doc["annotations"][3]["bbox"][2] = 0  # zero width
    bad = tmp_path / "bad_instances.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    cfg = _cfg_file(tmp_path, {**inputs, "instances": str(bad)}, tmp_path / "out")
    assert main(["parse", "--config", cfg]) == 0
    got = {p.name: p.read_bytes() for p in (tmp_path / "out" / "scene_graphs").iterdir()}
    assert got == clean
    assert main(["build-graphs", "--config", cfg]) == 2
    assert f"{bad}: annotations[3].bbox" in capsys.readouterr().err


def test_toy_corpus_matches_48_of_60_objects(toy_cfg, toy_paths):
    cfg, out = toy_cfg
    assert main(["parse", "--config", cfg]) == 0
    corpus = load_corpus(out / "corpus.victrs")
    matches = match_objects_to_boxes(corpus, load_instances(toy_paths["instances"]),
                                     load_alias_table(toy_paths["aliases"]))
    assert (len(matches), len(corpus.objects)) == (48, 60)


def test_category_name_case_does_not_change_graphs(tmp_path, toy_paths):
    """A category named "Dog" boxes the objects "dog" as one named "dog" does;
    without a super-class lexicon it gives them its super-class too."""
    doc = json.loads(Path(toy_paths["instances"]).read_text(encoding="utf-8"))
    graphs = {}
    for name in ("dog", "Dog"):
        next(c for c in doc["categories"] if c["name"].lower() == "dog")["name"] = name
        instances = tmp_path / f"{name}_instances.json"
        instances.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / name
        cfg = _cfg_file(tmp_path, {**toy_paths, "superclasses": "", "instances": str(instances)},
                        out)
        assert main(["parse", "--config", cfg]) == 0
        assert main(["build-graphs", "--config", cfg]) == 0
        graphs[name] = {p.name: p.read_bytes() for p in (out / "graphs").iterdir()}
    assert graphs["Dog"] == graphs["dog"]


def _renamed_captions(tmp_path, toy_paths, renames) -> dict:
    """toy_paths with the CoNLL-U and captions files' caption ids renamed (old -> new)."""
    conllu = Path(toy_paths["conllu"]).read_text(encoding="utf-8")
    doc = json.loads(Path(toy_paths["captions"]).read_text(encoding="utf-8"))
    for old, new in renames.items():
        conllu = conllu.replace(f"# caption_id = {old}\n", f"# caption_id = {new}\n")
        for ann in doc["annotations"]:
            if str(ann["id"]) == old:
                ann["id"] = new
    (tmp_path / "renamed.conllu").write_text(conllu, encoding="utf-8")
    (tmp_path / "renamed.json").write_text(json.dumps(doc), encoding="utf-8")
    return {**toy_paths, "conllu": str(tmp_path / "renamed.conllu"),
            "captions": str(tmp_path / "renamed.json")}


def test_parse_caption_id_too_long_for_a_file_name_exit_2(tmp_path, toy_paths, capsys):
    paths = _renamed_captions(tmp_path, toy_paths, {"101": "7" * 300})
    cfg = _cfg_file(tmp_path, paths, tmp_path / "out")
    assert main(["parse", "--config", cfg]) == 2
    assert (f"{paths['conllu']}:1: caption_id of 300 bytes is too long for a file name "
            "(at most 248)" in capsys.readouterr().err)


def test_caption_id_of_non_ascii_digits_sorts_as_text(tmp_path, toy_paths):
    # "²" is a digit to str.isdigit, but int() rejects it
    cfg = _cfg_file(tmp_path, _renamed_captions(tmp_path, toy_paths, {"101": "²"}),
                    tmp_path / "out")
    assert main(["parse", "--config", cfg]) == 0
    assert main(["build-graphs", "--config", cfg]) == 0
    assert main(["stats", "--config", cfg]) == 0


def test_caption_ids_of_equal_value_order_by_text(tmp_path, toy_paths, monkeypatch):
    """Ids "1" and "01" are one number; the graphs do not follow the directory listing."""
    paths = _renamed_captions(tmp_path, toy_paths, {"101": "1", "103": "01"})
    cfg = _cfg_file(tmp_path, paths, tmp_path / "out")
    assert main(["parse", "--config", cfg]) == 0
    graphs = tmp_path / "out" / "graphs"
    written = []
    for order in (1, -1):
        with monkeypatch.context() as m:
            listdir = os.listdir
            m.setattr(os, "listdir", lambda path: listdir(path)[::order])
            assert main(["build-graphs", "--config", cfg]) == 0
        written.append({p.name: p.read_bytes() for p in graphs.iterdir()})
    assert written[0] == written[1]
