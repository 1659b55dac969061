import gc
import sys
from pathlib import Path

import numpy as np
import pytest

from odflow import fileio, get_fixture
from oracles import json_text_oracle

# Hand-checkable incidence matrix of the triangle fixture with all four
# links measured in network order (rows l1-2, l1-3, l2-3, l3-1).
TRIANGLE_MATRIX = np.array([
    [1, 1, 0, 0, 0, 0, 1],
    [0, 0, 1, 0, 0, 0, 0],
    [0, 1, 0, 1, 1, 0, 0],
    [0, 0, 0, 1, 0, 1, 1],
], dtype=float)

# Incidence matrix of the four-zone fixture with all ten links measured in
# network order.
FOURZONE_MATRIX = np.array([
    [0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1],
    [0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0],
    [0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1],
], dtype=float)

# Dynamic expansion of the triangle fixture for a single count time t and
# unit travel times, keyed by (path position, departure offset relative
# to t).  The matrix rows follow the network link order.
TRIANGLE_DYNAMIC_COLUMNS = {
    (0, 0): [1, 0, 0, 0],
    (1, 0): [1, 0, 0, 0],
    (2, 0): [0, 1, 0, 0],
    (1, -1): [0, 0, 1, 0],
    (3, 0): [0, 0, 1, 0],
    (3, -1): [0, 0, 0, 1],
    (4, 0): [0, 0, 1, 0],
    (5, 0): [0, 0, 0, 1],
    (6, 0): [0, 0, 0, 1],
    (6, -1): [1, 0, 0, 0],
}


@pytest.fixture(scope="session")
def fig1():
    return get_fixture("fig1")


@pytest.fixture(scope="session")
def fig2():
    return get_fixture("fig2")


@pytest.fixture(scope="session")
def nguyen():
    return get_fixture("nguyen")


@pytest.fixture()
def json_writes(monkeypatch):
    """Every ``fileio.dump_json`` call the test makes, as ``(path, text)``
    with the text ``json``'s own encoder gives its data."""
    writes = []
    dump_json = fileio.dump_json

    def record(data, path):
        writes.append((Path(path), json_text_oracle(data)))
        dump_json(data, path)

    monkeypatch.setattr(fileio, "dump_json", record)
    return writes


@pytest.fixture()
def block_growth():
    """``growth(call)``: how many more memory blocks the interpreter holds
    after 2,000 calls of ``call`` than before them.  A full collection
    empties CPython's free lists first, and 100 calls refill those a call
    leaves at a fixed length, so what grows is what each call leaves."""
    def growth(call, calls=2_000):
        gc.collect()
        for _ in range(100):
            call()
        before = sys.getallocatedblocks()
        for _ in range(calls):
            call()
        return sys.getallocatedblocks() - before
    return growth
