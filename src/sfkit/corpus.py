"""Bundled example diagrams and their expected-result records."""

from __future__ import annotations

import json
import os

from .diagram import HeegaardDiagram

CORPUS_ENV = "SFK_CORPUS"
BUNDLED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")


def corpus_dir():
    """``$SFK_CORPUS`` when set, read on every call; else the bundled corpus."""
    return os.environ.get(CORPUS_ENV) or BUNDLED_DIR


def corpus_names():
    root = corpus_dir()
    names = []
    for entry in sorted(os.listdir(root)):
        if entry.endswith(".json"):
            names.append(entry[:-5])
    return names


def corpus_path(name: str) -> str:
    return os.path.join(corpus_dir(), f"{name}.json")


def load_diagram(name: str) -> HeegaardDiagram:
    return HeegaardDiagram.from_json(corpus_path(name))


def load_expected(name: str):
    path = os.path.join(corpus_dir(), "expected", f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)
