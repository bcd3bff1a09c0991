"""`src/lde` defines nothing that only its tests use.

A top-level function or class of the library, or a method whose name is
not a dunder, must be named somewhere besides its definition: elsewhere in
`src/lde` (a re-export in `lde/__init__.py` does not count), or in
`ldebench/` or `tools/`, the programs that run the library besides its CLI.
A string constant naming it counts too, since the benchmark's tracer wraps
methods by name.  Names are matched, not resolved, so a name used on any
object keeps every definition of that name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "lde"
USERS = (ROOT / "ldebench", ROOT / "tools")


def definitions(tree: ast.Module, module: str):
    """(qualified name, name) of each top-level function and class of
    `tree`, and of each method not named like `__x__`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{module}.{node.name}.{item.name}", item.name


def names_used(tree: ast.Module, reexports: bool = True) -> set[str]:
    """Every identifier `tree` reads, imports or spells as a string;
    the names of `from ... import` lines only if `reexports`."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias) and reexports:
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                used.add(node.value)
    return used


def unused_definitions(library: dict[str, str], users: list[str]) -> list[str]:
    """The definitions of `library` (module name -> source) that neither
    the library, outside its `__init__` re-exports, nor any `users`
    source names."""
    defined = []
    used = set()
    for module, source in library.items():
        tree = ast.parse(source)
        defined.extend(definitions(tree, module))
        used |= names_used(tree, reexports=module != "__init__")
    for source in users:
        used |= names_used(ast.parse(source))
    return sorted(qualified for qualified, name in defined if name not in used)


def test_unused_definitions_finds_what_only_a_definition_names():
    library = {
        "__init__": "from .a import helper, kept",
        "a": (
            "def helper(): pass\n"
            "def kept(): pass\n"
            "def traced(): pass\n"
            "class Box:\n"
            "    def __len__(self): return 0\n"
            "    def put(self): pass\n"
            "    def get(self): return kept()\n"
        ),
    }
    user = "import a\na.Box().get()\nTARGETS = (('traced', 1),)"
    assert unused_definitions(library, [user]) == ["a.Box.put", "a.helper"]


def test_library_defines_only_what_something_runs():
    library = {path.stem: path.read_text(encoding="utf-8") for path in LIBRARY.glob("*.py")}
    users = [
        path.read_text(encoding="utf-8") for root in USERS for path in sorted(root.rglob("*.py"))
    ]
    assert "engine" in library and users
    unused = unused_definitions(library, users)
    assert not unused, f"only a definition names {', '.join(unused)}"
