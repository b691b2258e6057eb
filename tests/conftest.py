import os

import pytest

from helpers import default_quantifiers

from victr.ingest import load_conllu
from victr.sceneparse import load_superclass_lexicon

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOY = os.path.join(REPO, "data", "toy")
LEXICONS = os.path.join(REPO, "data", "lexicons")


@pytest.fixture(scope="session")
def toy_paths():
    return {
        "conllu": os.path.join(TOY, "captions.conllu"),
        "captions": os.path.join(TOY, "captions.json"),
        "instances": os.path.join(TOY, "instances.json"),
        "superclasses": os.path.join(LEXICONS, "superclasses.tsv"),
        "quantifiers": os.path.join(LEXICONS, "quantifiers.tsv"),
        "aliases": os.path.join(LEXICONS, "aliases.tsv"),
    }


@pytest.fixture(scope="session")
def toy_dep_graphs(toy_paths):
    return load_conllu(toy_paths["conllu"])


@pytest.fixture(scope="session")
def toy_dep_by_caption(toy_dep_graphs):
    return {g.caption_id: g for g in toy_dep_graphs}


@pytest.fixture(scope="session")
def qlex():
    return default_quantifiers()


@pytest.fixture(scope="session")
def slex(toy_paths):
    return load_superclass_lexicon(toy_paths["superclasses"])
