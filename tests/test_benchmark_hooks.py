"""The benchmark's tracer wraps victr functions by name; they must exist.

``perfbench/tracing.py`` replaces each (module, function) in ``_SPANS`` and
the container functions of each module in ``_CONTAINER_USERS``. If one of
them is renamed or deleted, ``perfbench/run.py --trace 1`` breaks, so this
test reads those tables (it does not change the benchmark) and looks each
name up in victr.
"""

import importlib
import importlib.util
import os

import pytest

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
