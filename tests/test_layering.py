"""The package's modules import each other at module level only, and its
public namespace holds what ``__all__`` promises.

A relative import inside a function body hides a dependency from the
module header, usually to dodge an import cycle that the layering should
not have in the first place.
"""

import ast
from pathlib import Path

import disacsim

PACKAGE_DIR = Path(disacsim.__file__).resolve().parent


def function_local_relative_imports(source: str) -> list[tuple[str, int]]:
    """(function name, line) of every relative import inside a function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.ImportFrom) and inner.level > 0:
                    found.append((node.name, inner.lineno))
    return found


def test_detector_sees_nested_relative_imports():
    source = (
        "from .scene import PathRecord\n"
        "def f():\n"
        "    if True:\n"
        "        from .waveform import x\n"
        "    import numpy\n"
    )
    assert function_local_relative_imports(source) == [("f", 4)]


def test_no_function_local_relative_imports():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    offenders = [
        f"{path.name}:{line} in {name}()"
        for path in modules
        for name, line in function_local_relative_imports(path.read_text())
    ]
    assert offenders == []


def test_every_public_name_resolves():
    assert [name for name in disacsim.__all__ if not hasattr(disacsim, name)] == []
    assert len(set(disacsim.__all__)) == len(disacsim.__all__)
    namespace = {}
    exec("from disacsim import *", namespace)
    assert set(disacsim.__all__) <= namespace.keys()
