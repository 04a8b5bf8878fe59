"""What ``src/fibercomm`` holds: code that a CLI command runs, standard
library imports only, and no import left unused, in ``src`` or in ``tests``.

The reachability walk is by name.  A definition is a top-level definition
``module.name`` or a method ``module.Class.method``; a class's special
methods (``__init__``, ``__missing__``, ...) run with the class and belong
to it.  The roots are every definition of ``cli.py`` and every module-level
statement that is not a definition or an import.  A reached definition
reaches every top-level definition, in any module, whose name it uses as a
name or as an attribute, and every method whose name it uses as an
attribute (``x.m``): a bare name ``m`` is a local or a parameter, never a
method.  An attribute of a fibercomm module that the using module imports
(``graph.rank(g)`` after ``from . import graph``) reaches only that
module's top-level definition.  What stays unreached must be exactly
``ALLOWED``: a new function or method that no command runs fails the test,
and so does a listed one that has gained a caller.
"""

import ast
import pathlib
import sys

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fibercomm"

ITEM_7 = "ROADMAP item 7: the whitehead_asymmetric verdict"
ITEM_9 = "ROADMAP item 9: the commensurable command and its certificate"

ALLOWED = {
    "whitehead.graph_automorphisms": ITEM_7,
    "whitehead.is_asymmetric": ITEM_7,
    "whitehead.WhiteheadGraph.adjacency": ITEM_7,
    "commensurability.commensurable": ITEM_9,
    "commensurability.CommonCoverCertificate": ITEM_9,
    "commensurability.witness_from_lift": ITEM_9,
    "commensurability.compose_witnesses": ITEM_9,
    "commensurability._equations": ITEM_9,
    "covers.CoveringMap.identification_words": ITEM_9,
    "maps.map_to_json_dict": ITEM_9 + " (prints the common cover as a map)",
    "graph.graph_to_json_dict": ITEM_9 + " (prints the common cover as a map)",
    "words.format_word": ITEM_9 + " (prints the common cover as a map)",
    "__init__.__version__": "package metadata",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules(directory=SRC):
    paths = sorted(directory.glob("*.py"))
    return {path.stem: ast.parse(path.read_text()) for path in paths}


def _module_names(tree, modules):
    """{bound name: module} for each fibercomm module the tree imports."""
    return {
        alias.asname or alias.name: alias.name
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module is None
        for alias in n.names
        if alias.name in modules
    }


def _used_names(node, module_names):
    """(name, how it is used) for each use in the node: "name", "attribute",
    or the module whose attribute it is."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id, "name"
        elif isinstance(n, ast.Attribute):
            receiver = n.value.id if isinstance(n.value, ast.Name) else None
            yield n.attr, module_names.get(receiver, "attribute")


def _is_method(node):
    return isinstance(node, _DEFINITIONS[:2]) and not node.name.startswith("__")


def _unreached(directory=SRC):
    modules = _modules(directory)
    imported = {module: _module_names(tree, modules) for module, tree in modules.items()}
    definitions = {}  # "module.name" or "module.Class.method" -> nodes to walk
    roots = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                shell = node.decorator_list + node.bases + node.keywords
                for item in node.body:
                    if _is_method(item):
                        definitions[f"{module}.{node.name}.{item.name}"] = [item]
                    else:
                        shell.append(item)
                definitions[f"{module}.{node.name}"] = shell
            elif isinstance(node, _DEFINITIONS):
                definitions[f"{module}.{node.name}"] = [node]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    definitions[f"{module}.{name}"] = [node]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            elif not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
                roots.append((module, node))  # a module-level statement, not a docstring
    by_use = {}  # (name, how it is used) -> definitions it reaches
    for key in definitions:
        module, name = key.split(".", 1)[0], key.rsplit(".", 1)[1]
        by_use.setdefault((name, "attribute"), []).append(key)
        if key.count(".") == 1:  # not a method
            by_use.setdefault((name, "name"), []).append(key)
            by_use.setdefault((name, module), []).append(key)

    def walk(key):
        return [(key.split(".", 1)[0], node) for node in definitions[key]]

    reached = {key for key in definitions if key.startswith("cli.")}
    todo = roots + [item for key in reached for item in walk(key)]
    while todo:
        module, node = todo.pop()
        for use in _used_names(node, imported[module]):
            for key in by_use.get(use, ()):
                if key not in reached:
                    reached.add(key)
                    todo.extend(walk(key))
    return set(definitions) - reached


def test_every_definition_serves_a_command_or_a_listed_roadmap_item():
    unreached = _unreached()
    assert sorted(unreached - set(ALLOWED)) == [], "no CLI command reaches these"
    assert sorted(set(ALLOWED) - unreached) == [], "reached now: drop them from ALLOWED"


def test_a_module_attribute_reaches_no_method(tmp_path):
    """``graph.rank(...)`` reaches the module's ``rank``, not ``C.rank``."""
    (tmp_path / "cli.py").write_text(
        "from . import graph\n\n\ndef main(g):\n    return graph.rank(graph.C())\n"
    )
    (tmp_path / "graph.py").write_text(
        "def rank(g):\n    return 0\n\n\nclass C:\n    def rank(self):\n        return 1\n"
    )
    assert _unreached(tmp_path) == {"graph.C.rank"}


def _imports(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def test_src_imports_only_the_standard_library():
    outside = []
    for module, tree in _modules().items():
        for node in _imports(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                continue  # relative: inside fibercomm
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "fibercomm":
                    outside.append(f"{module}: {name}")
    assert outside == []


def _unused_imports(directory):
    unused = []
    for module, tree in _modules(directory).items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in _imports(tree):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{module}: {name}")
    return unused


def test_src_uses_every_name_it_imports():
    assert _unused_imports(SRC) == []


def test_tests_use_every_name_they_import():
    assert _unused_imports(TESTS) == []
