import pathlib

import numpy as np
import pytest

from attnsyntax import AttentionDump, ConstituencyTree, load_dump
from attnsyntax.synth import baluster_matrix

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="session")
def toy_dump_path() -> pathlib.Path:
    return DATA / "toy.dump.jsonl"


@pytest.fixture(scope="session")
def toy_gold_path() -> pathlib.Path:
    return DATA / "toy.gold.txt"


@pytest.fixture(scope="session")
def golden_dir() -> pathlib.Path:
    return GOLDEN


@pytest.fixture(scope="session")
def toy_dumps(toy_dump_path):
    return load_dump(toy_dump_path)


@pytest.fixture
def identity_dump() -> AttentionDump:
    return AttentionDump("identity", ("a", "b", "EOS"), np.eye(3)[None, None])


@pytest.fixture
def two_head_fixture() -> tuple[AttentionDump, ConstituencyTree]:
    """Head (1,1) carries balusters for the reference spans (1,2) and (3,4);
    head (1,2) is a pure diagonal contributing nothing."""
    n = 6
    matrices = np.stack([baluster_matrix(n, [(1, 2), (3, 4)]), np.eye(n)])[None]
    dump = AttentionDump("fixture", ("a", "b", "c", "d", "e", "EOS"), matrices)
    # ((a b) (c d) e EOS)
    gold = ConstituencyTree(((1, 2), (3, 4), (1, 6)), ("a", "b", "c", "d", "e", "EOS"))
    return dump, gold
