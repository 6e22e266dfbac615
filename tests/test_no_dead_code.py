"""No dead code in the library: every module-level function, every
module-level class and every non-dunder method defined in src/dgforge is
referenced by name somewhere in src/ or tests/.  References are read from
the syntax tree (a name or an attribute), so a docstring or comment that
mentions a name does not count."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def library_definitions():
    """(path, name) of each module-level function and class and of each
    non-dunder method."""
    for path in sorted((ROOT / "src" / "dgforge").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield path, node.name
            elif isinstance(node, ast.ClassDef):
                yield path, node.name
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield path, item.name


def reference_counts():
    """Occurrences of each identifier as an `ast.Name` or `ast.Attribute`
    in src/ and tests/."""
    counts = collections.Counter()
    for top in ("src", "tests"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    counts[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    counts[node.attr] += 1
    return counts


def test_every_library_function_has_a_reference():
    counts = reference_counts()
    unreferenced = sorted(
        "%s: %s" % (path.name, name)
        for path, name in library_definitions()
        if not counts[name]
    )
    assert not unreferenced, "no reference to: " + ", ".join(unreferenced)
