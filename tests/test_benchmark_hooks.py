"""The benchmark's tracer wraps victr functions by name; they must exist.

``perfbench/tracing.py`` replaces each (module, function) in ``_SPANS`` and
the container functions of each module in ``_CONTAINER_USERS``. If one of
them is renamed or deleted, ``perfbench/run.py --trace 1`` breaks, so this
test reads those tables (it does not change the benchmark) and looks each
name up in victr. It also runs the seven stages on the toy corpus with the
tracer installed, so the arguments its counter hooks read keep their shape.
"""

import contextlib
import importlib
import importlib.util
import io
import os

import pytest

from victr.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(REPO, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracing):
    assert tracing._SPANS
    missing = [f"{mod}.{fn}" for mod, fn in tracing._SPANS
               if not callable(getattr(importlib.import_module(f"victr.{mod}"), fn, None))]
    assert not missing


def test_container_users_import_container_functions(tracing):
    for mod in tracing._CONTAINER_USERS:
        module = importlib.import_module(f"victr.{mod}")
        assert callable(getattr(module, "write_container", None)), mod
        assert callable(getattr(module, "read_container", None)), mod


def test_traced_toy_run(tracing, monkeypatch, tmp_path):
    modules = {mod: importlib.import_module(f"victr.{mod}")
               for mod in {mod for mod, _ in tracing._SPANS} | set(tracing._CONTAINER_USERS)}
    # set each wrapped function to itself, so that monkeypatch puts it back afterwards
    for mod, fn in tracing._SPANS:
        monkeypatch.setattr(modules[mod], fn, getattr(modules[mod], fn))
    for mod in tracing._CONTAINER_USERS:
        for fn in ("write_container", "read_container"):
            monkeypatch.setattr(modules[mod], fn, getattr(modules[mod], fn))
    tracer = tracing.Tracer()
    tracer.install(modules)
    monkeypatch.chdir(REPO)  # the toy config names its inputs from the repository root
    for stage in ("parse", "build-graphs", "train --graph all", "compose", "fuse",
                  "project", "stats"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(stage.split() + ["--config", os.path.join("data", "toy", "config.txt"),
                                         "--out-dir", str(tmp_path)])
        assert code == 0, stage
    metrics = {name: value for name, (value, _) in tracer.round_metrics({}).items()}
    assert metrics["sceneparse.objects"] == 60
    assert metrics["sceneparse.relations"] == 42
    assert metrics["sceneparse.attributes"] == 8
    assert 0 < metrics["geometry.matched_ratio"] <= 1
    # the counters whose value does not depend on how a stage walks its captions
    assert metrics["embedding.rows"] == 60
    assert metrics["fusion.attention_cells"] == 387
    assert metrics["binio.files_written"] == 55
    assert metrics["binio.files_read"] == 54
