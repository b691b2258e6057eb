"""Golden digest of the toy corpus's parse, build-graphs and stats outputs.

The stages run in-process on ``data/toy/config.txt``. One sha256 covers
every ``scene_graphs/*.json`` and ``graphs/*.victrg`` file (relative name
and bytes, in sorted order); the three stages' stdout is compared as text.
These files hold only counts and single float divisions, no BLAS products,
so the digest is the same on every supported Python. A refactor that is
meant to keep the outputs byte-identical must leave both values unchanged.
"""

import contextlib
import hashlib
import io
import os

from victr.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DIGEST = "afc48d5da71a5335f3e12ed020a5b4405012f0756768e71b123c6668c11eba7f"
STDOUT = {
    "parse": "parsed 20 captions: 60 objects, 42 relations, 8 attributes\n",
    "build-graphs": (
        "basic: 41 nodes, 38 edges, weight sums ok\n"
        "left_of: 41 nodes, 8 edges, weight sums ok\n"
        "right_of: 41 nodes, 2 edges, weight sums ok\n"
        "above: 41 nodes, 7 edges, weight sums ok\n"
        "below: 41 nodes, 6 edges, weight sums ok\n"
        "inside: 41 nodes, 4 edges, weight sums ok\n"
        "surrounding: 41 nodes, 2 edges, weight sums ok\n"
    ),
    "stats": (
        "scene graphs: 20 captions, 60 objects (25 distinct), 42 relations, 8 attributes\n"
        "basic graph: 41 nodes, 38 edges, weight sums ok\n"
        "left_of graph: 41 nodes, 8 edges, weight sums ok\n"
        "right_of graph: 41 nodes, 2 edges, weight sums ok\n"
        "above graph: 41 nodes, 7 edges, weight sums ok\n"
        "below graph: 41 nodes, 6 edges, weight sums ok\n"
        "inside graph: 41 nodes, 4 edges, weight sums ok\n"
        "surrounding graph: 41 nodes, 2 edges, weight sums ok\n"
    ),
}


def _digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for sub, suffix in (("graphs", ".victrg"), ("scene_graphs", ".json")):
        for name in sorted(os.listdir(os.path.join(out_dir, sub))):
            if name.endswith(suffix):
                h.update(f"{sub}/{name}\n".encode())
                with open(os.path.join(out_dir, sub, name), "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def test_toy_outputs_match_golden_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)  # the config's input paths are relative to the repository
    out = str(tmp_path / "out")
    stdout = {}
    for stage in STDOUT:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main([stage, "--config", "data/toy/config.txt", "--out-dir", out]) == 0
        stdout[stage] = buf.getvalue()
    assert stdout == STDOUT
    assert _digest(out) == DIGEST
