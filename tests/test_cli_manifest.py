"""``generate`` and ``analyze`` print and write exactly what the checked-in manifest pins."""

import json

import pytest

from cli_manifest import MANIFEST, corpus, run_request

PINNED = json.loads(MANIFEST.read_text())
CORPUS = corpus()


def test_manifest_covers_the_corpus():
    assert sorted(PINNED) == sorted(CORPUS)


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_request_matches_manifest(key):
    inputs, argv = CORPUS[key]
    assert run_request(inputs, argv) == PINNED[key]
