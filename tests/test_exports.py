import importlib

import pytest

MODULES = ["exgates"] + [
    f"exgates.{m}" for m in ("decouple", "encoding", "linalg", "metrics", "oracle", "products", "symrep", "trotter")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    names = module.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []
