"""What ``src/fibercomm`` holds: code that a CLI command runs, standard
library imports only, and no import left unused, in ``src`` or in ``tests``.

The reachability walk is by name.  Its roots are every top-level definition
of ``cli.py`` and every module-level statement that is not a definition or
an import.  A reached definition reaches every top-level definition, in any
module, whose name it uses as a name or as an attribute.  What stays
unreached must be exactly ``ALLOWED``: a new definition that no command
runs fails the test, and so does a listed one that has gained a caller.
"""

import ast
import pathlib
import sys

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fibercomm"

ITEM_6 = "ROADMAP item 6: train-track representatives fold and subdivide"
ITEM_9 = "ROADMAP item 9: the commensurable command and its certificate"

ALLOWED = {
    **{
        f"folds.{name}": ITEM_6
        for name in (
            "FoldEvent",
            "FoldSequence",
            "SubdivisionEvent",
            "_candidate_paths",
            "_collapses",
            "_common_prefix",
            "_fold_step",
            "_match_lengths",
            "_quotient_letter",
            "_transport",
            "_transport_point",
            "_vertexify",
            "fold_to_identify",
            "normalize_point",
            "stallings_fold",
            "subdivide_map",
        )
    },
    "graph.subdivide": ITEM_6,
    "whitehead.principal_vertices": ITEM_6,
    "errors.PreconditionFailed": ITEM_6 + " (raised by folds.stallings_fold)",
    "commensurability.commensurable": ITEM_9,
    "commensurability.CommonCoverCertificate": ITEM_9,
    "commensurability.witness_from_lift": ITEM_9,
    "commensurability.compose_witnesses": ITEM_9,
    "commensurability._equations": ITEM_9,
    "maps.map_to_json_dict": ITEM_9 + " (prints the common cover as a map)",
    "graph.graph_to_json_dict": ITEM_9 + " (prints the common cover as a map)",
    "words.format_word": ITEM_9 + " (prints the common cover as a map)",
    "words.Word": "documents the word type",
    "__init__.__version__": "package metadata",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules(directory=SRC):
    paths = sorted(directory.glob("*.py"))
    return {path.stem: ast.parse(path.read_text()) for path in paths}


def _used_names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _unreached():
    definitions = {}  # "module.name" -> node
    roots = []
    for module, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, _DEFINITIONS):
                definitions[f"{module}.{node.name}"] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    definitions[f"{module}.{name}"] = node
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            elif not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
                roots.append(node)  # a module-level statement, not a docstring
    by_name = {}
    for key in definitions:
        by_name.setdefault(key.split(".", 1)[1], []).append(key)
    reached = {key for key in definitions if key.startswith("cli.")}
    todo = roots + [definitions[key] for key in reached]
    while todo:
        for name in _used_names(todo.pop()):
            for key in by_name.get(name, ()):
                if key not in reached:
                    reached.add(key)
                    todo.append(definitions[key])
    return set(definitions) - reached


def test_every_definition_serves_a_command_or_a_listed_roadmap_item():
    unreached = _unreached()
    assert sorted(unreached - set(ALLOWED)) == [], "no CLI command reaches these"
    assert sorted(set(ALLOWED) - unreached) == [], "reached now: drop them from ALLOWED"


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
