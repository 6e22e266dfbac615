"""The storage of a matrix is a decision of `linalg` alone: no other module
in src/dgforge seals rows with `Matrix._trusted`, reads the ring's zero
and one through `_units`, or reads `Matrix.rows`.  Matrices are built with
the `linalg` constructors (`assemble` above all) and read through
`m[i, j]` and `m.nonzero_rows()`.  References are read from the syntax
tree, so a docstring or comment that mentions a name does not count."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

FORBIDDEN_ATTRIBUTES = {"_trusted", "rows"}
FORBIDDEN_NAMES = {"_units"}


def boundary_crossings(path):
    """(line, what) of each forbidden attribute, name or imported name."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_ATTRIBUTES:
            yield node.lineno, "." + node.attr
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            yield node.lineno, node.id
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in FORBIDDEN_NAMES:
                    yield node.lineno, "import " + alias.name


def test_only_linalg_knows_how_a_matrix_is_stored():
    crossings = [
        "%s:%d %s" % (path.name, line, what)
        for path in sorted((ROOT / "src" / "dgforge").glob("*.py"))
        if path.name != "linalg.py"
        for line, what in boundary_crossings(path)
    ]
    assert not crossings, "outside linalg: " + ", ".join(crossings)


def test_the_boundary_check_sees_each_kind_of_crossing(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from .linalg import Matrix, _units\n"
        "def f(m):\n"
        "    return Matrix._trusted('Z', m.rows, _units('Z')[0])\n"
    )
    assert sorted(boundary_crossings(path)) == [
        (1, "import _units"), (3, "._trusted"), (3, ".rows"), (3, "_units")
    ]
