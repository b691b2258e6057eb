"""Checks of the pipeline's outputs against the planted truth.

Artifacts are read with this file's own container reader and every
derived quantity (edge counts, E_vs rows, text features, attention) is
recomputed here from the plan and the upstream files, so a fault in the
program's own readers cannot hide a fault in its writers. Each check
returns a list of failure messages keyed by the stage whose output it
inspects; an empty list means the stage's output is correct.
"""

import csv
import hashlib
import json
import math
import os
import re
import struct
import zlib

import numpy as np

from corpus import GRAPH_NAMES, expected_graphs, expected_vocabulary

EDGE_DTYPE = np.dtype([("src", "<u4"), ("dst", "<u4"), ("count", "<u8"), ("weight", "<f8")])
_TRAIN_LINE = re.compile(
    r"^(\S+): trained (\d+) epochs \(H=(\d+), mu=(\d+)\), final loss (\S+), object accuracy (\S+)$")


def read_container(path, magic: bytes):
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != magic + b"\n":
        raise ValueError(f"{path}: bad magic")
    (hlen,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + hlen])
    payload = blob[12 + hlen:-4]
    if zlib.crc32(payload) != struct.unpack_from("<I", blob, len(blob) - 4)[0]:
        raise ValueError(f"{path}: checksum mismatch")
    return header, payload


def write_container(path, magic: bytes, header: dict, payload: bytes) -> None:
    """Inverse of read_container (used to forge consistent corrupt files in self-tests)."""
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(magic + b"\n" + struct.pack("<I", len(head)) + head + payload
                + struct.pack("<I", zlib.crc32(payload)))


def read_graph(path):
    header, payload = read_container(path, b"VICTRG1")
    nodes = list(zip(header["vocab"]["words"], header["vocab"]["kinds"]))
    return nodes, np.frombuffer(payload, dtype=EDGE_DTYPE)


def read_rows(path) -> np.ndarray:
    header, payload = read_container(path, b"VICTRE1")
    return np.frombuffer(payload, dtype="<f4").reshape(header["n"], header["h"])


def read_fused(path):
    header, payload = read_container(path, b"VICTRF1")
    length, width, n_obj = header["l"], header["d"] + header["v"], header["n_obj"]
    flat = np.frombuffer(payload, dtype="<f4")
    att = flat[:length * n_obj].reshape(length, n_obj)
    words = flat[length * n_obj:length * (n_obj + width)].reshape(length, width)
    return att, words, flat[length * (n_obj + width):]


class Truth:
    """Everything the checks compare against, derived from the plan alone."""

    def __init__(self, wl, settings):
        self.wl = wl
        self.s = settings
        self.kept = wl.kept()
        self.graphs = expected_graphs(wl)
        self.vocab = expected_vocabulary(wl)
        self.objects = sum(len(c.objects) for c in self.kept)
        self.relations = sum(len(c.relations) for c in self.kept)
        self.attributes = sum(len(c.attributes) for c in self.kept)
        self.object_words = sorted({w for w, k in self.vocab if k == "object"})
        b, p = settings["basic_width"], settings["positional_width"]
        self.full_width = b + 6 * p
        self.scene_width = 2 * self.full_width + b

    def summary_lines(self, stage: str, out_dir: str):
        """Expected stdout of a stage, or None where it is checked by pattern."""
        n, v = len(self.kept), len(self.vocab)
        edges = {g: len(self.graphs[g]) for g in GRAPH_NAMES}
        if stage == "parse":
            return [f"parsed {n} captions: {self.objects} objects, "
                    f"{self.relations} relations, {self.attributes} attributes"]
        if stage == "build-graphs":
            return [f"{g}: {v} nodes, {edges[g]} edges, weight sums ok" for g in GRAPH_NAMES]
        if stage == "compose":
            return [f"composed visual semantic matrices for {n} captions "
                    f"(width {self.scene_width})"]
        if stage == "fuse":
            d = self.s["text_width"]
            return [f"fused {n} captions (word width {d + self.scene_width}, "
                    f"visual width {self.scene_width})"]
        if stage == "project":
            path = os.path.join(out_dir, "projection", "object.tsv")
            return [f"projected {len(self.object_words)} object vectors to {path}"]
        if stage == "stats":
            return [f"scene graphs: {n} captions, {self.objects} objects "
                    f"({len(self.object_words)} distinct), {self.relations} relations, "
                    f"{self.attributes} attributes"] + [
                f"{g} graph: {v} nodes, {edges[g]} edges, weight sums ok" for g in GRAPH_NAMES]
        return None


def check_stdout(truth: Truth, stage: str, stdout: str, out_dir: str) -> list[str]:
    """Cheap per-round check of a stage's summary lines."""
    lines = stdout.splitlines()
    want = truth.summary_lines(stage, out_dir)
    if want is not None:
        return [] if lines == want else [f"{stage}: stdout {lines[:3]!r} != {want[:3]!r}"]
    bad = []
    if len(lines) != len(GRAPH_NAMES):
        return [f"train: {len(lines)} summary lines"]
    for name, line in zip(GRAPH_NAMES, lines):
        m = _TRAIN_LINE.match(line)
        if not m or m.group(1) != name or int(m.group(2)) != truth.s["epochs"] \
                or not math.isfinite(float(m.group(5))):
            bad.append(f"train: unexpected summary {line!r}")
    return bad


def check_parse(truth: Truth, out: str) -> list[str]:
    sg_dir = os.path.join(out, "scene_graphs")
    files = {f[:-5] for f in os.listdir(sg_dir) if f.endswith(".json")}
    want = {c.caption_id for c in truth.kept}
    if files != want:
        return [f"richest selection: {len(files - want)} unexpected and "
                f"{len(want - files)} missing scene graphs"]
    bad = []
    for c in truth.kept:
        with open(os.path.join(sg_dir, f"{c.caption_id}.json"), encoding="utf-8") as f:
            doc = json.load(f)
        objects = [(o["id"], o["word"], o["super_class"]) for o in doc["objects"]]
        attrs = sorted((a["object_id"], a["word"]) for a in doc["attributes"])
        rels = sorted((r["subject"], r["predicate"], r["object"]) for r in doc["relations"])
        if (doc["image_id"] != c.image_id or objects != [tuple(o) for o in c.objects]
                or attrs != sorted(c.attributes) or rels != sorted(c.relations)):
            bad.append(f"scene graph {c.caption_id} differs from the planted one")
    return bad


def check_graphs(truth: Truth, out: str) -> list[str]:
    bad = []
    for name in GRAPH_NAMES:
        nodes, rec = read_graph(os.path.join(out, "graphs", f"{name}.victrg"))
        if set(nodes) != truth.vocab or len(nodes) != len(truth.vocab):
            bad.append(f"{name}: vocabulary differs from the planted one")
            continue
        src, dst = rec["src"].astype(np.int64), rec["dst"].astype(np.int64)
        counted = rec["count"] > 0
        got = {(nodes[s], nodes[d]): int(c)
               for s, d, c in zip(src[counted], dst[counted], rec["count"][counted])}
        if got != dict(truth.graphs[name]):
            bad.append(f"{name}: {len(got)} edges, planted {len(truth.graphs[name])}"
                       f" (or counts differ)")
        loop = src == dst
        if set(src[loop].tolist()) != set(range(len(nodes))) or \
                not np.all(rec["weight"][loop] == 1.0):
            bad.append(f"{name}: self-weights are not all 1")
        is_attr = np.array([k == "attribute" for _, k in nodes])[dst]
        w = rec["weight"]
        for label, key, mask in (("successor", src, ~loop & ~is_attr),
                                 ("attribute", dst, ~loop & is_attr)):
            sums = np.bincount(key[mask], weights=w[mask], minlength=len(nodes))
            used = np.bincount(key[mask], minlength=len(nodes)) > 0
            if np.any(np.abs(sums[used] - 1.0) > 1e-9):
                bad.append(f"{name}: a {label} weight family does not sum to 1")
    return bad


def check_train(truth: Truth, out: str) -> list[str]:
    bad = []
    v = len(truth.vocab)
    for name in GRAPH_NAMES:
        with open(os.path.join(out, "loss", f"{name}.csv"), encoding="utf-8") as f:
            losses = [float(row["loss"]) for row in csv.DictReader(f)]
        if len(losses) != truth.s["epochs"] or not all(map(math.isfinite, losses)):
            bad.append(f"{name}: {len(losses)} losses or a non-finite one")
        elif not losses[-1] < losses[0]:
            bad.append(f"{name}: final loss {losses[-1]} not below first {losses[0]}")
        width = truth.s["basic_width" if name == "basic" else "positional_width"]
        if read_rows(os.path.join(out, "embeddings", f"{name}.victre")).shape != (v, width):
            bad.append(f"{name}: embedding table shape")
    return bad


def _composed(out: str):
    """word -> composed vector, per kind, recomputed from the embedding files."""
    nodes, _ = read_graph(os.path.join(out, "graphs", "basic.victrg"))
    tables = [read_rows(os.path.join(out, "embeddings", f"{g}.victre")).astype(np.float64)
              for g in GRAPH_NAMES]
    full = np.concatenate(tables, axis=1)
    vec = {}
    for i, (word, kind) in enumerate(nodes):
        vec[(word, kind)] = tables[0][i] if kind == "attribute" else full[i]
    return vec


def expected_evs(truth: Truth, cap, vec) -> np.ndarray:
    """E_o || mean E_a || mean E_r for each planted object of a caption."""
    fw, bw = truth.full_width, truth.s["basic_width"]
    rows = np.zeros((len(cap.objects), truth.scene_width))
    for i, (oid, word, _) in enumerate(cap.objects):
        rows[i, :fw] = vec[(word, "object")]
        attrs = [vec[(a, "attribute")] for o, a in cap.attributes if o == oid]
        rels = [vec[(p, "relation")] for s, p, o in cap.relations if oid in (s, o)]
        if attrs:
            rows[i, fw:fw + bw] = np.mean(attrs, axis=0)
        if rels:
            rows[i, fw + bw:] = np.mean(rels, axis=0)
    return rows


def check_compose(truth: Truth, out: str) -> list[str]:
    vec = _composed(out)
    bad = []
    for c in truth.kept:
        got = read_rows(os.path.join(out, "evs", f"{c.caption_id}.victre"))
        want = expected_evs(truth, c, vec).astype(np.float32)
        if got.shape != want.shape or not np.allclose(got, want, rtol=1e-5, atol=1e-6):
            bad.append(f"E_vs of caption {c.caption_id} differs from E_o||E_a||E_r")
    return bad


class TextEncoder:
    """Independent copy of the program's built-in encoder: one seeded unit
    vector per distinct token, derived from SHA-256 of seed and token."""

    def __init__(self, seed: int, dim: int):
        self.seed, self.dim, self.cache = seed, dim, {}

    def __call__(self, tokens) -> np.ndarray:
        rows = []
        for tok in tokens:
            v = self.cache.get(tok)
            if v is None:
                digest = hashlib.sha256(f"{self.seed}\x00{tok}".encode()).digest()
                v = np.random.default_rng(int.from_bytes(digest[:8], "little")).standard_normal(self.dim)
                v = self.cache[tok] = v / np.linalg.norm(v)
            rows.append(v)
        return np.array(rows)


def check_fuse(truth: Truth, out: str) -> list[str]:
    d, v, seed = truth.s["text_width"], truth.scene_width, truth.s["seed"]
    lim = np.sqrt(6.0 / (d + v))
    w = np.random.default_rng(seed).uniform(-lim, lim, size=(d, v))
    encode = TextEncoder(seed, d)
    bad = []
    for c in truth.kept:
        att, words, sentence = read_fused(os.path.join(out, "fused", f"{c.caption_id}.victrf"))
        vs = read_rows(os.path.join(out, "evs", f"{c.caption_id}.victre")).astype(np.float64)
        text = encode(c.surfaces())
        scores = text @ w @ vs.T
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        want_att = e / e.sum(axis=1, keepdims=True)
        pooled = want_att @ vs
        close = dict(rtol=1e-4, atol=1e-5)
        if not np.allclose(att.sum(axis=1), 1.0, atol=1e-5):
            bad.append(f"caption {c.caption_id}: attention rows do not sum to 1")
        elif not (att.shape == want_att.shape and np.allclose(att, want_att, **close)
                  and np.allclose(words[:, :d], text, **close)
                  and np.allclose(words[:, d:], pooled, **close)
                  and np.allclose(sentence, np.concatenate([text.mean(axis=0), pooled.sum(axis=0)]),
                                  **close)):
            bad.append(f"caption {c.caption_id}: fused word/visual/sentence parts differ")
    return bad


def check_project(truth: Truth, out: str) -> list[str]:
    with open(os.path.join(out, "projection", "object.tsv"), encoding="utf-8") as f:
        rows = [line.rstrip("\n").split("\t") for line in f]
    if [r[0] for r in rows] != truth.object_words:
        return ["projection: word list differs from the planted object words"]
    xy = np.array([[float(r[2]), float(r[3])] for r in rows])
    scale = max(1.0, float(np.abs(xy).max()))
    bad = []
    if np.any(np.abs(xy.mean(axis=0)) > 1e-9 * scale):
        bad.append(f"projection: coordinates have mean {xy.mean(axis=0)}")
    var = xy.var(axis=0)
    if var[1] > var[0] * (1 + 1e-9):
        bad.append(f"projection: variance increases {var}")
    return bad


_OWNER = {"scene_graphs": "parse", "graphs": "build-graphs", "models": "train",
          "embeddings": "train", "loss": "train", "evs": "compose", "fused": "fuse",
          "projection": "project"}


def check_rewritten(out: str, since: float) -> dict:
    """stage -> files under out it did not write after `since` (a wall-clock
    time): every round rewrites the same output directory, so a file a stage
    failed to write would otherwise still be there from an earlier round."""
    stale = {}
    for sub, stage in _OWNER.items():
        d = os.path.join(out, sub)
        for f in os.listdir(d) if os.path.isdir(d) else ():
            st = os.stat(os.path.join(d, f))
            if st.st_mtime < since or st.st_size == 0:
                stale.setdefault(stage, []).append(f"{stage}: {sub}/{f} was not rewritten")
    return stale


ARTIFACT_CHECKS = {
    "parse": check_parse, "build-graphs": check_graphs, "train": check_train,
    "compose": check_compose, "fuse": check_fuse, "project": check_project,
}


def check_artifacts(truth: Truth, out: str, since: float) -> dict:
    """stage -> failures found in its files (stats is checked through stdout)."""
    failures = {}
    stale = check_rewritten(out, since)
    for stage, check in ARTIFACT_CHECKS.items():
        try:
            failures[stage] = stale.get(stage, [])[:5] + check(truth, out)
        except (OSError, ValueError, KeyError) as e:
            failures[stage] = [f"{stage}: {e}"]
    return failures

