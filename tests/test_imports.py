"""Every name a `qtilt` module imports is used in that module, and every
definition in the package, a method or property included, is reached
from a command.

Stdlib only: each source file is parsed with `ast`.  A name counts as
used when it is read anywhere in the module (a bare name, or the root of
an attribute chain) or listed in `__all__`; the package `__init__`
re-exports its imports, so its imports count as used.  A top-level
function or class is reached when a command's code names it as a bare
name, directly or through other reached definitions (an attribute that
shares its name does not count); a method or property of a reached
class when a reached definition names it either way, and a dunder
method with its class.  An attribute the package stores, by assignment
or by ``.append``/``.extend`` as a statement, is reached when a reached
definition reads it by name.  The package `__init__` exports only what
is reached."""

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


def _named(node):
    """The names node reads: bare names as they are, attribute names with
    a leading dot."""
    return {n.id if isinstance(n, ast.Name) else "." + n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _attributes(node):
    """(stores, reads) in node: (line, name) of each attribute it assigns,
    or fills by ``.append`` or ``.extend`` as a statement, and the names
    of the attributes it reads otherwise."""
    filled = {n.value.func.value for n in ast.walk(node)
              if isinstance(n, ast.Expr) and isinstance(n.value, ast.Call)
              and isinstance(n.value.func, ast.Attribute)
              and n.value.func.attr in ("append", "extend")
              and isinstance(n.value.func.value, ast.Attribute)}
    stores = [(n.lineno, n.attr) for n in ast.walk(node)
              if isinstance(n, ast.Attribute)
              and (isinstance(n.ctx, ast.Store) or n in filled)]
    reads = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
             and isinstance(n.ctx, ast.Load) and n not in filled}
    return stores, reads


def _unreached(sources):
    """(file, line, name) of the definitions in ``sources`` (file name ->
    text) that are not reached by name: the top-level functions and
    classes, and the methods and properties of top-level classes, named
    ``Class.method``; and of each store of an attribute no reached code
    reads, named ``.attribute``.  The roots are `cli.main`, the
    `cli._cmd_*` handlers that `dispatch` finds by name, and whatever a
    module-level statement other than an import names outside `__init__`.
    A reached definition reaches every top-level definition it names as a
    bare name, and every method or property it names either way, once
    its class is reached too.  A reached class names
    its bases, decorators and the statements of its body other than
    methods, and reaches its dunder methods.  An attribute is read when
    reached code reads it by name, on any object (`_attributes`)."""
    defs, todo, stores, reads = {}, [], [], set()

    def read(node):
        todo.extend(_named(node))
        reads.update(_attributes(node)[1])

    for f, text in sources.items():
        tree = ast.parse(text)
        stores.extend((f, line, "." + attr)
                      for line, attr in _attributes(tree)[0])
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((f, node, None))
                if f == "cli.py" and (node.name == "main"
                                      or node.name.startswith("_cmd_")):
                    todo.append(node.name)
            elif (f != "__init__.py"
                  and not isinstance(node, (ast.Import, ast.ImportFrom))):
                read(node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not _is_dunder(item.name)):
                        defs.setdefault(item.name, []).append(
                            (f, item, node))
    named, reached = set(), set()

    def reach(node):
        reached.add(node)
        if not isinstance(node, ast.ClassDef):
            read(node)
            return
        for part in node.bases + node.keywords + node.decorator_list:
            read(part)
        for item in node.body:
            if not isinstance(item, ast.FunctionDef) or _is_dunder(item.name):
                read(item)
            elif item.name in named or "." + item.name in named:
                reach(item)

    while todo:
        name = todo.pop()
        if name in named:
            continue
        named.add(name)
        for _, node, owner in defs.get(name.lstrip("."), ()):
            if node not in reached and (owner in reached if owner
                                        else name[0] != "."):
                reach(node)
    return sorted([(f, node.lineno,
                    name if owner is None else f"{owner.name}.{name}")
                   for name, places in defs.items()
                   for f, node, owner in places if node not in reached]
                  + [s for s in stores if s[2][1:] not in reads])


def test_the_check_sees_an_unreached_definition():
    sources = {
        "a.py": "def _kept():\n    pass\n\n\nclass _Gone:\n    pass\n"
                "\n\ndef _cmd_x():\n    pass\n"
                "\n\ndef helper():\n    pass\n"
                "\n\ndef dead():\n    return helper()\n"
                "\n\ndef exported():\n    pass\n"
                "\n\ndef handler():\n    pass\n"
                "\n\nHANDLERS = {'x': handler}\n"
                "\n\ndef shadowed():\n    pass\n",
        "b.py": "from a import _kept\n\n\nclass Used:\n"
                "    def method(self):\n"
                "        return _kept(self.shadowed())\n",
        "cli.py": "def _cmd_run():\n    return Used().method()\n",
        "__init__.py": "from .a import exported\n"}
    assert _unreached(sources) == [
        ("a.py", 5, "_Gone"), ("a.py", 9, "_cmd_x"), ("a.py", 13, "helper"),
        ("a.py", 17, "dead"), ("a.py", 21, "exported"),
        ("a.py", 32, "shadowed")]


def test_the_check_sees_an_unreached_method():
    sources = {
        "a.py": "def _shown(x):\n    return x\n"
                "\n\ndef _cell():\n    pass\n"
                "\n\nclass Report:\n"
                "    __slots__ = (_cell(),)\n"
                "\n"
                "    def __repr__(self):\n"
                "        return _shown(self)\n"
                "\n"
                "    def lines(self):\n"
                "        return [self.size]\n"
                "\n"
                "    def dead(self):\n"
                "        return self.only_dead()\n"
                "\n"
                "    def only_dead(self):\n"
                "        pass\n"
                "\n"
                "    @property\n"
                "    def size(self):\n"
                "        return 1\n"
                "\n"
                "    @property\n"
                "    def unread(self):\n"
                "        return 2\n"
                "\n\nclass Gone:\n"
                "    def lines(self):\n"
                "        pass\n",
        "cli.py": "def _cmd_run():\n    return Report().lines()\n"}
    assert _unreached(sources) == [
        ("a.py", 18, "Report.dead"), ("a.py", 21, "Report.only_dead"),
        ("a.py", 29, "Report.unread"), ("a.py", 33, "Gone"),
        ("a.py", 34, "Gone.lines")]


def test_the_check_sees_an_unread_attribute():
    """A stored attribute no code reads, and a list only ever appended to,
    are reported at each store; a cache read through ``setdefault`` is
    not."""
    sources = {
        "a.py": "class Report:\n"
                "    def __init__(self):\n"
                "        self.unread = 0\n"
                "        self.log = []\n"
                "        self.cache = {}\n"
                "\n"
                "    def lines(self, key):\n"
                "        self.unread += 1\n"
                "        self.log.append(key)\n"
                "        self.log.extend([key])\n"
                "        return self.cache.setdefault(key, [key])\n",
        "cli.py": "def _cmd_run():\n    return Report().lines(0)\n"}
    assert _unreached(sources) == [
        ("a.py", 3, ".unread"), ("a.py", 4, ".log"), ("a.py", 8, ".unread"),
        ("a.py", 9, ".log"), ("a.py", 10, ".log")]


def test_a_read_in_unreached_code_does_not_count():
    sources = {
        "a.py": "class Report:\n"
                "    def __init__(self):\n"
                "        self.size = 0\n"
                "\n\ndef dead(report):\n"
                "    return report.size\n",
        "cli.py": "def _cmd_run():\n    return Report()\n"}
    assert _unreached(sources) == [("a.py", 3, ".size"), ("a.py", 6, "dead")]


def test_every_definition_is_reached():
    sources = {}
    for filename in MODULES:
        with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
            sources[filename] = fh.read()
    unreached = _unreached(sources)
    assert not unreached, \
        f"definitions and attributes no command reaches: {unreached}"


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
           # MinimalResolution (`tensor_resolution` in tests/oracles.py)
           "tensor_total_complex", "TotalComplex",
           # the third and fourth action reads: a module's action is read
           # by the rows of x's action or, on a free target, by columns off
           # the products
           "ActionReader",
           # a resolution's kept covers, maps and syzygies: it is its terms
           # and generator images
           "covers", "maps", "syzygy", "_cover_map", "_syzygy_step",
           # no command reaches them: deleted, or moved to the test oracles
           # (tests/oracles.py); `Cover.map` is deleted too, but the builtin
           # `map` shares its name
           "solve_against_kernel", "_arrow_rows", "_free_lines",
           "minimal_left_approximation", "stack_below", "ext_module",
           "tau_n_ext", "tau_n_minus_ext", "_dualized_differential",
           "kernel_rep", "proj_map_from_images", "hstack", "vstack",
           "regular_structure_algebra", "injective_cogenerator",
           # methods no command reaches, and what only they kept: Ext is its
           # dimension, the Kunneth check its rows, a top its section count,
           # and a random quotient a cokernel (`PathSum.format` is deleted
           # too, but the builtin `format` shares its name)
           "cocycles", "_cocycle_representatives", "ExtResult", "ext",
           "is_surjective", "all_equal", "KunnethReport", "arrow_count",
           "top_and_radical", "TopRadical", "_radical_bases",
           "submodule_generated",
           # the dense input of a structure constant algebra: its table is
           # sparse rows of nonzero cells, its unit a sparse element
           "sparse",
           # a decomposition is its list of (module, multiplicity) pairs
           "Decomposition",
           # a presentation is the presented algebra; the tensor of maps and
           # of resolutions, which no command calls, moved to the oracles
           "AlgebraPresentation", "tensor_resolution", "_by_generator",
           "tensor_maps"}


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
    echelon rows); those classes with the functions
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


def test_no_deleted_name_is_exported():
    import qtilt
    from qtilt import cli, exactla, homengine, quivercore, repcore, tensorcon
    from qtilt import tilting
    modules = (qtilt, cli, exactla, homengine, quivercore, repcore, tensorcon,
               tilting)
    assert not [(m.__name__, name) for m in modules for name in DELETED
                if hasattr(m, name)]


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
