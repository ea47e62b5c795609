"""Every subcommand prints and writes exactly what the checked-in manifest pins."""

import argparse
import json

import pytest

from cli_manifest import MANIFEST, corpus, oracle_grid, randomized_grid, run_oracle, run_randomized, run_request
from kintegration import cli

PINNED = json.loads(MANIFEST.read_text())
CORPUS = corpus()
GRID = oracle_grid()
RANDOMIZED = randomized_grid()


def test_manifest_covers_the_corpus():
    assert len(GRID) == 285
    assert len(RANDOMIZED) == 209
    assert sorted(PINNED) == sorted(CORPUS.keys() | GRID.keys() | RANDOMIZED.keys())


def test_corpus_covers_every_subcommand_and_format():
    parser = cli.build_parser()
    (subcommands,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    declared = set()
    for name, sub in subcommands.choices.items():
        formats = [action.choices for action in sub._actions if action.dest == "format"]
        declared |= {(name, fmt) for fmt in (formats[0] if formats else [None])}
    requested = set()
    for _, argv, _ in CORPUS.values():
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # a request refused at parsing, such as a repeated --k level, requests no format
            continue
        requested.add((args.command, getattr(args, "format", None)))
    assert declared - requested == set()


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_request_matches_manifest(key):
    assert run_request(*CORPUS[key]) == PINNED[key]


@pytest.mark.parametrize("key", sorted(GRID))
def test_oracle_row_matches_manifest(key):
    assert run_oracle(*GRID[key]) == PINNED[key]


@pytest.mark.parametrize("key", sorted(RANDOMIZED))
def test_randomized_row_matches_manifest(key):
    assert run_randomized(*RANDOMIZED[key]) == PINNED[key]
