"""Every exported name resolves, and the package re-exports each layer's."""

import importlib

import pytest

import reducts

# The modules whose public names the package re-exports, and ``cli``, whose
# names the per-layer tracing of ``perfbench/spans.py`` looks up as well.
LAYERS = ("model", "discern", "characters", "reducers", "relations", "covering", "errors")
TYPE_ALIASES = {"Value", "AttrSet", "ObjSet"}


@pytest.mark.parametrize("layer", LAYERS + ("cli",))
def test_layer_exports_resolve(layer):
    module = importlib.import_module(f"reducts.{layer}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_exports_every_layer_name():
    layered = set().union(
        *(importlib.import_module(f"reducts.{layer}").__all__ for layer in LAYERS)
    )
    assert len(set(reducts.__all__)) == len(reducts.__all__)
    assert set(reducts.__all__) == layered - TYPE_ALIASES
    assert all(hasattr(reducts, name) for name in reducts.__all__)


# Oracles only the tests use live in ``tests/helpers.py``, not the package.
TEST_ONLY = {"model": "is_consistent", "covering": "neighborhood"}


@pytest.mark.parametrize("layer", sorted(TEST_ONLY))
def test_test_only_oracles_stay_out_of_the_package(layer):
    name = TEST_ONLY[layer]
    assert not hasattr(importlib.import_module(f"reducts.{layer}"), name)
    assert not hasattr(reducts, name)
