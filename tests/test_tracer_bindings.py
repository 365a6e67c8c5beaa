"""The benchmark tracer's bindings (perfbench/tracing.py): every method and function it patches by
name exists in the package, and an install / uninstall round trip restores each of them.  The
tracer is read from perfbench/ as it is; nothing there is imported into the package."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from superholonomy.group import OspGroup
from superholonomy.supermatrix import SuperMatrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_bound_name_exists(tracing):
    for owner, attr, _, _ in tracing.SPANNED_METHODS:
        # install reads the class's own attribute, not an inherited one
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
    for module, attr, *_ in tracing.SPANNED_FUNCTIONS + tracing.COUNTED_FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_install_counts_a_product_and_uninstall_restores(tracing):
    original = SuperMatrix.__dict__["__matmul__"]
    M = OspGroup(1, 1, 2).sample_member(np.random.default_rng(0))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the supermatrix span reads the factors' rows and their .terms
        product = M @ M
    finally:
        broken = tracer.uninstall()
    assert broken == []
    assert SuperMatrix.__dict__["__matmul__"] is original
    assert tracer.counts["grassmann.term_pairs"] > 0
    counts, _ = tracer.summary()
    assert counts["supermatrix.matmul.calls"] == 1
    assert product == M @ M
