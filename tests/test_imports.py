"""Every name a `qtilt` module imports is used in that module, and every
private function or class is used somewhere in the package.

Stdlib only: each source file is parsed with `ast`.  A name counts as
used when it is read anywhere in the module (a bare name, or the root of
an attribute chain) or listed in `__all__`; the package `__init__`
re-exports its imports, so its imports count as used.  A module-level
private definition counts as used when some module of the package names
it other than by defining it: reads it, imports it, or reads it as an
attribute.  The `cli._cmd_*` handlers are exempt: `dispatch` finds them
by name."""

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


def _private_definitions(tree):
    """(line, name) of each module-level private function or class."""
    return [(node.lineno, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _referenced_names(tree):
    """Names a module reads, imports or reads as attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _orphans(sources):
    """(file, line, name) of the private definitions in ``sources`` (file
    name -> text) that no module references."""
    trees = {f: ast.parse(text) for f, text in sources.items()}
    used = set().union(*map(_referenced_names, trees.values()))
    return sorted((f, line, name) for f, tree in trees.items()
                  for line, name in _private_definitions(tree)
                  if name not in used
                  and not (f == "cli.py" and name.startswith("_cmd_")))


def test_the_check_sees_an_orphan():
    sources = {"a.py": "def _kept():\n    pass\n\n\nclass _Gone:\n    pass\n"
                       "\n\ndef _cmd_x():\n    pass\n",
               "b.py": "from a import _kept\n",
               "cli.py": "def _cmd_run():\n    pass\n"}
    assert _orphans(sources) == [("a.py", 5, "_Gone"), ("a.py", 9, "_cmd_x")]


def test_no_orphan_private_definitions():
    sources = {}
    for filename in MODULES:
        with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
            sources[filename] = fh.read()
    orphans = _orphans(sources)
    assert not orphans, f"private definitions nothing uses: {orphans}"
