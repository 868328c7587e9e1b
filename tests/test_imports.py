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


# --- one element format -------------------------------------------------------

# the only readers of the dense view `Matrix.rows`: printing a module file
# and a matrix
DENSE_READERS = {("cli.py", "serialize_module"), ("exactla.py", "Matrix.__repr__")}
# dense element and vector routines replaced by their sparse forms
DELETED = {"multiply", "zero_element", "element_from_path", "radical_basis",
           "_op_items", "kernel_basis", "from_cols",
           # the compose-and-solve route: composites are read at the Hom
           # basis positions instead
           "vectorize", "express_all_in_basis", "_hom_coordinates",
           # the second resolution type: the tensor of two resolutions is a
           # MinimalResolution (`tensor_resolution`)
           "tensor_total_complex", "TotalComplex",
           # the third and fourth action reads: a module's action is read
           # by the rows of x's action or, on a free target, by columns off
           # the products
           "ActionReader",
           # a resolution's kept covers, maps and syzygies: it is its terms
           # and generator images
           "covers", "maps", "syzygy", "_cover_map", "_syzygy_step"}


def _name(node):
    """The name a call or attribute chain ends in, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _assignments(tree):
    """(targets, value) of each assignment in tree, annotated or not."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            yield node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            yield [node.target], node.value


def _makes(value, makers):
    """Whether value calls one of makers, at any depth (a list or dict of
    row owners counts)."""
    return any(isinstance(node, ast.Call) and _name(node.func) in makers
               for node in ast.walk(value))


def _returned_callees(fn):
    """Names of the callees of the calls that fn's return statements
    return."""
    return {_name(node.value.func) for node in ast.walk(fn)
            if isinstance(node, ast.Return)
            and isinstance(node.value, ast.Call)}


def _row_owners(trees):
    """(classes, makers, attributes) whose ``rows`` is not a Matrix's:
    the classes other than Matrix that assign ``self.rows`` (a `Span`'s
    echelon rows, a report's lines); those classes with the functions
    returning one of them; and the attribute names bound to a call of a
    maker."""
    classes = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name != "Matrix"
               and any(isinstance(t, ast.Attribute) and t.attr == "rows"
                       and _name(t.value) == "self"
                       for targets, _ in _assignments(node) for t in targets)}
    makers = classes | {node.name for tree in trees for node in ast.walk(tree)
                        if isinstance(node, ast.FunctionDef)
                        and _returned_callees(node) & classes}
    attributes = {t.attr for tree in trees
                  for targets, value in _assignments(tree)
                  if _makes(value, makers)
                  for t in targets if isinstance(t, ast.Attribute)}
    return classes, makers, attributes


def _dense_uses(sources):
    """(file, line, what) for each use of the dense format in ``sources``
    (file name -> text): ``.rows`` read off a Matrix outside
    `DENSE_READERS`, ``_dense`` named outside exactla, and a definition or
    call of a `DELETED` name.  A ``.rows`` receiver is not a Matrix when it
    is ``self`` in a row-owning class, a name bound in the same function
    to a call that makes a row owner, an attribute bound to one, or an
    item of such a name or attribute."""
    trees = {f: ast.parse(text) for f, text in sources.items()}
    classes, makers, attributes = _row_owners(trees.values())
    found = []

    def visit(f, node, scope, owners):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            if node.name in DELETED:
                kind = "def" if isinstance(node, ast.FunctionDef) else "class"
                found.append((f, node.lineno, f"{kind} {node.name}"))
            if isinstance(node, ast.FunctionDef):
                owners = {t.id for targets, value in _assignments(node)
                          if _makes(value, makers)
                          for t in targets if isinstance(t, ast.Name)}
                if scope and scope[-1] in classes:
                    owners.add("self")
            scope = scope + (node.name,)
        if (isinstance(node, ast.Attribute) and node.attr == "rows"
                and isinstance(node.ctx, ast.Load)
                and (f, ".".join(scope)) not in DENSE_READERS):
            recv = node.value
            while isinstance(recv, ast.Subscript):
                recv = recv.value
            if not ((isinstance(recv, ast.Name) and recv.id in owners)
                    or (isinstance(recv, ast.Attribute)
                        and recv.attr in attributes)):
                found.append((f, node.lineno, ".rows"))
        if f != "exactla.py" and (_name(node) == "_dense" or (
                isinstance(node, ast.ImportFrom)
                and "_dense" in (a.name for a in node.names))):
            found.append((f, node.lineno, "_dense"))
        if isinstance(node, ast.Call) and _name(node.func) in DELETED:
            found.append((f, node.lineno, f"{_name(node.func)}()"))
        for child in ast.iter_child_nodes(node):
            visit(f, child, scope, owners)

    for f, tree in trees.items():
        visit(f, tree, (), set())
    return sorted(found)


def test_the_check_sees_a_dense_use():
    sources = {
        "exactla.py": "class Matrix:\n"
                      "    def __repr__(self):\n"
                      "        return str(self.rows)\n"
                      "\n"
                      "\n"
                      "def _dense(row, n):\n"
                      "    return row\n"
                      "\n"
                      "\n"
                      "class Span:\n"
                      "    def __init__(self):\n"
                      "        self.rows = {}\n"
                      "\n"
                      "    def __len__(self):\n"
                      "        return len(self.rows)\n",
        "a.py": "from .exactla import Span, _dense\n"
                "\n"
                "\n"
                "def reader(m):\n"
                "    return m.rows\n"
                "\n"
                "\n"
                "def spans(m):\n"
                "    s = Span()\n"
                "    return s.rows, _dense(m, 2)\n"
                "\n"
                "\n"
                "def kernel_basis(m):\n"
                "    return m.from_cols([])\n"
                "\n"
                "\n"
                "def coordinates(f):\n"
                "    return f.vectorize()\n"
                "\n"
                "\n"
                "class TotalComplex:\n"
                "    pass\n"}
    assert _dense_uses(sources) == [
        ("a.py", 1, "_dense"), ("a.py", 5, ".rows"), ("a.py", 10, "_dense"),
        ("a.py", 13, "def kernel_basis"), ("a.py", 14, "from_cols()"),
        ("a.py", 18, "vectorize()"), ("a.py", 21, "class TotalComplex")]


def test_one_element_format():
    sources = {}
    for filename in MODULES:
        with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
            sources[filename] = fh.read()
    uses = _dense_uses(sources)
    assert not uses, f"dense element or vector uses (file, line, what): {uses}"


# --- no seed below the command line -------------------------------------------

# the generators of random test data, the only functions that take a seed
SEEDED = {"random_module", "structural_suite"}


def _seeded_functions(sources):
    """(file, line, name) of each function in ``sources`` (file name ->
    text) outside `SEEDED` that takes a parameter named ``seed``."""
    found = []
    for f, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name not in SEEDED:
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                if any(a.arg == "seed" for a in params):
                    found.append((f, node.lineno, node.name))
    return sorted(found)


def test_the_check_sees_a_seed_parameter():
    sources = {"a.py": "def random_module(alg, seed):\n    pass\n"
                       "\n\nclass A:\n"
                       "    def split(self, *, seed=0):\n        pass\n",
               "b.py": "def decompose(m, seed: int = 0):\n    pass\n"}
    assert _seeded_functions(sources) == [("a.py", 6, "split"),
                                          ("b.py", 1, "decompose")]


def test_no_seed_below_the_command_line():
    sources = {}
    for filename in MODULES:
        with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
            sources[filename] = fh.read()
    seeded = _seeded_functions(sources)
    assert not seeded, f"functions taking a seed (file, line, name): {seeded}"


def test_only_props_takes_a_seed_option():
    import argparse
    from qtilt.cli import build_parser
    commands, = (action.choices for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    seeded = [name for name, sub in commands.items()
              if any("--seed" in action.option_strings
                     for action in sub._actions)]
    assert seeded == ["props"]
