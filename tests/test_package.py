"""The package's public names are its modules' ``__all__`` lists, once each."""

import importlib
from pathlib import Path

import poisson_digraph

# in the order the package concatenates them; cli and __main__ are entry points
MODULES = (
    "weights",
    "streams",
    "digraph",
    "sampler",
    "structure",
    "analysis",
    "branching",
    "scaling",
    "verify",
)


def test_package_all_is_the_module_lists_concatenated():
    package = Path(poisson_digraph.__file__).parent
    stems = {path.stem for path in package.glob("*.py")} - {"__init__", "__main__", "cli"}
    assert stems == set(MODULES)
    modules = [importlib.import_module(f"poisson_digraph.{name}") for name in MODULES]
    expected = ["__version__", *(name for module in modules for name in module.__all__)]
    assert poisson_digraph.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(poisson_digraph, name) is getattr(module, name), name
    namespace = {}
    exec("from poisson_digraph import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(expected)


def test_chunk_sizes_are_bound_only_in_digraph():
    # so that one monkeypatch of digraph moves every chunked loop
    package = Path(poisson_digraph.__file__).parent
    sizes = {"_CHUNK_ROWS", "_BLOCK_BYTES", "_MERGE_KEYS"}
    bound = {}
    for path in package.glob("*.py"):
        name = "poisson_digraph" if path.stem == "__init__" else f"poisson_digraph.{path.stem}"
        found = sizes & vars(importlib.import_module(name)).keys()
        if found:
            bound[path.stem] = found
    assert bound == {"digraph": {"_CHUNK_ROWS", "_BLOCK_BYTES"}}
