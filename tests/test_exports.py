import importlib
import tokenize
from pathlib import Path

import pytest

import exgates

MODULES = ["exgates"] + [
    f"exgates.{m}"
    for m in ("decouple", "encoding", "gates", "linalg", "metrics", "oracle", "products", "schedule", "symrep", "trotter")
]

# Compiling a module from source peaks at about 420 bytes of Python allocations per
# code token, and the largest module's compile sets the in-process peak RSS.
MAX_CODE_TOKENS = 3500
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    names = module.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES[1:])
def test_all_names_its_own_functions_and_classes(name):
    # a function or class is exported only by the module that defines it; the package is exempt
    module = importlib.import_module(name)
    exported = {n: getattr(module, n) for n in module.__all__}
    assert {n: v.__module__ for n, v in exported.items() if callable(v) and v.__module__ != name} == {}


@pytest.mark.parametrize("path", sorted(Path(exgates.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_module_code_tokens_capped(path):
    with open(path, "rb") as fh:
        tokens = sum(1 for t in tokenize.tokenize(fh.readline) if t.type not in _NOT_CODE)
    assert tokens <= MAX_CODE_TOKENS
