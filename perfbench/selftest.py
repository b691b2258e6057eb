"""Self-tests of the benchmark's generator and checks.

Run from the repository root:

    python3 perfbench/selftest.py

1. The scene graphs planted by every workload generator are exactly what
   victr's parser extracts from the generated CoNLL-U.
2. On a small pipeline run, every output check passes, and each one
   fails once a single artifact is corrupted. Binary files are rewritten
   with a valid checksum, so the value checks, not the container reader,
   must catch the change.
"""

import csv
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
from run import PROGRAM_SETTINGS, STAGES, run_stage  # noqa: E402

RESULTS = []


def expect(name, ok):
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}")


def test_planted_graphs_parse_back():
    from victr import ingest, sceneparse as sp
    qlex = sp.QuantifierLexicon(dict(corpus.NUMERALS), dict(corpus.PHRASES),
                                many_value=corpus.MANY_VALUE,
                                max_duplication=corpus.MAX_DUPLICATION)
    for name, make in corpus.WORKLOADS.items():
        wl = make(11)
        slex = sp.SuperClassLexicon(wl.supers)
        wrong = 0
        for c in wl.captions:
            toks = tuple(ingest.Token(i, s, lemma, upos, head, rel)
                         for i, (s, lemma, upos, head, rel) in enumerate(c.tokens, start=1))
            sg = sp.parse_caption(ingest.DependencyGraph(c.caption_id, c.image_id, toks),
                                  qlex, slex)
            wrong += (list(sg.objects) != [tuple(o) for o in c.objects]
                      or sorted(sg.attributes) != sorted(c.attributes)
                      or sorted(sg.relations) != sorted(c.relations))
        expect(f"{name}: {len(wl.captions)} planted scene graphs parse back exactly", wrong == 0)


def _pipeline(wl, work, seed):
    from victr import cli
    settings = {**PROGRAM_SETTINGS, **wl.config, "epochs": 20, "seed": seed}
    wl.config = settings
    config = corpus.write_inputs(wl, os.path.join(work, wl.name, "inputs"), seed)
    out = os.path.join(work, wl.name, "out")
    stdout = {}
    for stage, argv in STAGES:
        rc, _, _, _, stdout[stage] = run_stage(cli, argv, config, out)
        if rc:
            raise RuntimeError(f"{stage} exited {rc}")
    return checks.Truth(wl, settings), out, stdout


def _rewrite(path, magic, edit):
    """Apply edit(header, payload) -> (header, payload) and re-checksum."""
    header, payload = checks.read_container(path, magic)
    header, payload = edit(dict(header), bytearray(payload))
    checks.write_container(path, magic, header, bytes(payload))


def _flip_float(offset_floats):
    def edit(header, payload):
        arr = np.frombuffer(payload, dtype="<f4").copy()
        arr[offset_floats] += 0.5
        return header, arr.tobytes()
    return edit


def _drop_edge(header, payload):
    rec = np.frombuffer(payload, dtype=checks.EDGE_DTYPE)
    keep = np.ones(len(rec), bool)
    keep[int(np.flatnonzero((rec["count"] > 0) & (rec["src"] != rec["dst"]))[0])] = False
    header["nnz"] = int(keep.sum())
    return header, rec[keep].tobytes()


def _nudge_weight(header, payload):
    rec = np.frombuffer(payload, dtype=checks.EDGE_DTYPE).copy()
    i = int(np.flatnonzero((rec["count"] > 0) & (rec["src"] != rec["dst"]))[0])
    rec["weight"][i] *= 1.001
    return header, rec.tobytes()


def _raise_last_loss(path):
    with open(path, encoding="utf-8") as f:
        rows = list(csv.reader(f))
    rows[-1][1] = repr(float(rows[1][1]) + 1.0)
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows(rows)


def _rename_object(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    doc["objects"][0]["word"] += "z"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def _shift_coordinate(path):
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    word, kind, x, y = lines[0].rstrip("\n").split("\t")
    lines[0] = f"{word}\t{kind}\t{float(x) + 1.0!r}\t{y}\n"
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)


def test_checks_catch_corruption(work):
    since = time.time() - 0.5
    truth, out, stdout = _pipeline(corpus.fanout(5, n_captions=60), work, 5)
    clean = checks.check_artifacts(truth, out, since)
    expect("fanout: clean run passes every artifact check",
           not any(clean.values()))
    expect("fanout: clean run passes every summary-line check",
           not any(checks.check_stdout(truth, s, stdout[s], out) for s, _ in STAGES))
    first = truth.kept[0].caption_id
    corruptions = [
        ("parse", "rename one object in a scene-graph JSON",
         lambda o: _rename_object(os.path.join(o, "scene_graphs", f"{first}.json"))),
        ("parse", "delete one scene-graph JSON",
         lambda o: os.remove(os.path.join(o, "scene_graphs", f"{first}.json"))),
        ("build-graphs", "drop one edge from basic.victrg",
         lambda o: _rewrite(os.path.join(o, "graphs", "basic.victrg"), b"VICTRG1", _drop_edge)),
        ("build-graphs", "drop one edge from left_of.victrg",
         lambda o: _rewrite(os.path.join(o, "graphs", "left_of.victrg"), b"VICTRG1", _drop_edge)),
        ("build-graphs", "scale one weight by 1.001",
         lambda o: _rewrite(os.path.join(o, "graphs", "basic.victrg"), b"VICTRG1", _nudge_weight)),
        ("train", "make the final loss exceed the first",
         lambda o: _raise_last_loss(os.path.join(o, "loss", "above.csv"))),
        ("compose", "flip one float in an E_vs .victre",
         lambda o: _rewrite(os.path.join(o, "evs", f"{first}.victre"), b"VICTRE1",
                            _flip_float(3))),
        ("fuse", "flip one attention float in a .victrf",
         lambda o: _rewrite(os.path.join(o, "fused", f"{first}.victrf"), b"VICTRF1",
                            _flip_float(0))),
        ("fuse", "flip one word-part float in a .victrf",
         lambda o: _rewrite(os.path.join(o, "fused", f"{first}.victrf"), b"VICTRF1",
                            _flip_float(-300))),
        ("fuse", "flip one sentence float in a .victrf",
         lambda o: _rewrite(os.path.join(o, "fused", f"{first}.victrf"), b"VICTRF1",
                            _flip_float(-1))),
        ("project", "shift one projected coordinate",
         lambda o: _shift_coordinate(os.path.join(o, "projection", "object.tsv"))),
        ("compose", "leave one E_vs file from an earlier round",
         lambda o: os.utime(os.path.join(o, "evs", f"{first}.victre"), (since - 60, since - 60))),
        ("fuse", "leave one fused file emptied before the round",
         lambda o: os.truncate(os.path.join(o, "fused", f"{first}.victrf"), 0)),
    ]
    for stage, what, corrupt in corruptions:
        copy = os.path.join(work, "corrupt")
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out, copy)  # copy2 keeps the file times
        corrupt(copy)
        failures = checks.check_artifacts(truth, copy, since)
        expect(f"{stage} check catches: {what}", bool(failures[stage]))
    for stage in ("parse", "build-graphs", "compose", "fuse", "project", "stats"):
        lines = stdout[stage].splitlines()
        lines[0] = lines[0].replace("1", "2", 1) if "1" in lines[0] else lines[0] + "x"
        expect(f"{stage} summary-line check catches an altered count",
               bool(checks.check_stdout(truth, stage, "\n".join(lines) + "\n", out)))

    since = time.time() - 0.5
    truth, out, _ = _pipeline(corpus.crowded(5, n_images=6), work, 5)
    expect("crowded: clean run passes every artifact check",
           not any(checks.check_artifacts(truth, out, since).values()))
    dropped = next(c for c in truth.wl.captions if c not in truth.kept)
    shutil.copy(os.path.join(out, "scene_graphs", f"{truth.kept[0].caption_id}.json"),
                os.path.join(out, "scene_graphs", f"{dropped.caption_id}.json"))
    expect("parse check catches a caption the richest selection must drop",
           bool(checks.check_artifacts(truth, out, since)["parse"]))


def main() -> int:
    if not os.path.isfile(os.path.join("src", "victr", "cli.py")):
        print("selftest: run from the repository root", file=sys.stderr)
        return 2
    work = os.path.join(HERE, "work", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        test_planted_graphs_parse_back()
        test_checks_catch_corruption(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(RESULTS)}/{len(RESULTS)} passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
