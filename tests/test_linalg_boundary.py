"""The storage of a matrix is a decision of `linalg` alone: no other module
in src/dgforge seals rows with `Matrix._trusted`, reads the ring's zero
and one through `_units`, or reads `Matrix.rows`.  Matrices are built with
the `linalg` constructors (`assemble` above all) and read through
`m[i, j]` and `m.nonzero_rows()`.  Inside `linalg`, rows are stored
sparse: the kernels and both eliminations read the stored rows alone,
and only the dense view `Matrix.rows` builds dense rows, for readers
outside the library, so no function in `linalg` reads `.rows` or builds
a dense working copy (`._lists`).  Over Q an integral entry is an int,
so an int / int would be a float: every true division in src/dgforge has
a `Fraction(...)` call on its left.  References are read from the syntax
tree, so a docstring or comment that mentions a name does not count."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
LINALG = ROOT / "src" / "dgforge" / "linalg.py"

FORBIDDEN_ATTRIBUTES = {"_trusted", "rows"}
FORBIDDEN_NAMES = {"_units"}

# The dense forms of a matrix, which no function of linalg.py may read.
DENSE_FORMS = {"rows", "_lists"}


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


def dense_reads(path):
    """(function, attribute) for each read of `.rows` or `._lists` in path.
    A read belongs to the module-level function or method around it, named
    `f` or `Class.f` (nested functions count as their owner's body), or to
    `<module>` outside every function."""
    found = []

    def visit(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if owner is None and isinstance(child, ast.ClassDef):
                visit(child, None, child.name + ".")
            elif owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix + child.name, prefix)
            else:
                if isinstance(child, ast.Attribute) and child.attr in DENSE_FORMS:
                    found.append((owner or "<module>", child.attr))
                visit(child, owner, prefix)

    visit(ast.parse(path.read_text()), None, "")
    return found


def float_divisions(path):
    """(line, source) of each true division in path that may make a float:
    `a / b` whose left operand is not a `Fraction(...)` call, and every
    `a /= b`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            left = node.left
            if not (isinstance(left, ast.Call) and isinstance(left.func, ast.Name)
                    and left.func.id == "Fraction"):
                yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            yield node.lineno, ast.unparse(node)


def test_only_linalg_knows_how_a_matrix_is_stored():
    crossings = [
        "%s:%d %s" % (path.name, line, what)
        for path in sorted((ROOT / "src" / "dgforge").glob("*.py"))
        if path.name != "linalg.py"
        for line, what in boundary_crossings(path)
    ]
    assert not crossings, "outside linalg: " + ", ".join(crossings)


def test_only_the_view_and_the_eliminations_densify():
    stray = sorted({"%s reads .%s" % (fn, attr) for fn, attr in dense_reads(LINALG)})
    assert not stray, "dense reads in linalg: " + ", ".join(stray)


def test_every_true_division_is_exact():
    floats = [
        "%s:%d %s" % (path.name, line, source)
        for path in sorted((ROOT / "src" / "dgforge").glob("*.py"))
        for line, source in float_divisions(path)
    ]
    assert not floats, "divisions that may make a float: " + ", ".join(floats)


def test_the_division_check_sees_each_kind_of_float(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from fractions import Fraction\n"
        "def f(a, b):\n"
        "    a /= b\n"
        "    return Fraction(1) / a, 1 / a, Fraction / a, a // b, (a / b) / Fraction(2)\n"
    )
    assert sorted(float_divisions(path)) == [
        (3, "a /= b"), (4, "1 / a"), (4, "Fraction / a"), (4, "a / b"),
        (4, "a / b / Fraction(2)"),
    ]


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


def test_the_dense_read_check_names_the_reading_function(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "class Matrix:\n"
        "    def __mul__(self, other):\n"
        "        def row(i):\n"
        "            return other.rows[i]\n"
        "        return [row(i) for i in range(3)], self._lists()\n"
        "def mul_kron(M):\n"
        "    return M.rows\n"
        "WIDTH = len(Matrix().rows)\n"
    )
    assert sorted(dense_reads(path)) == [
        ("<module>", "rows"), ("Matrix.__mul__", "_lists"), ("Matrix.__mul__", "rows"),
        ("mul_kron", "rows"),
    ]
