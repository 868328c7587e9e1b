"""Every name a `qtilt` module imports is used in that module.

Stdlib only: each source file is parsed with `ast`.  A name counts as
used when it is read anywhere in the module (a bare name, or the root of
an attribute chain) or listed in `__all__`; the package `__init__`
re-exports its imports, so its imports count as used."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "qtilt")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    src = "from x import a, b\nimport os.path\nimport sys as s\nprint(a, os)\n"
    assert _unused_imports(src) == [(1, "b"), (3, "s")]


@pytest.mark.parametrize("filename", [f for f in MODULES
                                      if f != "__init__.py"])
def test_no_unused_imports(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        unused = _unused_imports(fh.read())
    assert not unused, f"{filename}: unused imports (line, name) {unused}"
