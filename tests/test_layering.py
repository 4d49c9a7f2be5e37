"""The package's modules import each other at module level only, its
public namespace holds what ``__all__`` promises, and it starts processes
through multiprocessing alone.

A relative import inside a function body hides a dependency from the
module header, usually to dodge an import cycle that the layering should
not have in the first place. Forking, piping, pickling and reaping by hand
repeats what multiprocessing already does, with its own failure handling.
"""

import ast
from pathlib import Path

import disacsim

PACKAGE_DIR = Path(disacsim.__file__).resolve().parent

# process calls that multiprocessing makes on the package's behalf
HAND_WRITTEN_OS_CALLS = {"fork", "pipe", "waitpid", "kill"}


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


def hand_written_process_code(source: str) -> list[tuple[str, int]]:
    """(what, line) of every os.fork/pipe/waitpid/kill use and pickle import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in HAND_WRITTEN_OS_CALLS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((f"os.{node.attr}", node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "os":
            found += [(f"os.{a.name}", node.lineno) for a in node.names
                      if a.name in HAND_WRITTEN_OS_CALLS]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "pickle":
            found.append(("pickle", node.lineno))
        elif isinstance(node, ast.Import):
            found += [(a.name, node.lineno) for a in node.names
                      if a.name.split(".")[0] == "pickle"]
    return found


def test_detector_sees_hand_written_process_code():
    source = (
        "import os, pickle\n"
        "from os import waitpid\n"
        "from pickle import dumps\n"
        "def f():\n"
        "    pid = os.fork()\n"
        "    read_fd, write_fd = os.pipe()\n"
        "    os.kill(pid, 9)\n"
        "    os.getpid()\n"
    )
    assert hand_written_process_code(source) == [
        ("pickle", 1), ("os.waitpid", 2), ("pickle", 3),
        ("os.fork", 5), ("os.pipe", 6), ("os.kill", 7),
    ]


def test_processes_start_through_multiprocessing_only():
    offenders = [
        f"{path.name}:{line} {what}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for what, line in hand_written_process_code(path.read_text())
    ]
    assert offenders == []
