"""No dead code in the library: every module-level function, every
module-level class and every non-dunder method defined in src/dgforge is
referenced by name somewhere in src/ or tests/, every name a module
imports at module level is used in that module, and every default is both
overridden and relied on by some call.  References are read from
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


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted((ROOT / "src" / "dgforge").glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            "%s: %s" % (path.name, name)
            for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in ((alias.asname or alias.name).split(".")[0] for alias in node.names)
            if name not in used
        ]
    assert not unused, "unused imports: " + ", ".join(unused)


def defaulted_parameters():
    """(path, callable name, parameter name, position) of each parameter with
    a default on a module-level function, a method or a constructor (an
    `__init__`, listed under its class name) in src/dgforge.  The position
    is the one a call passes the parameter at: `self` and `cls` are not
    counted."""
    for path in sorted((ROOT / "src" / "dgforge").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            defs = [(node.name, node, 0)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        bound = not any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
                                        for dec in item.decorator_list)
                        name = node.name if item.name == "__init__" else item.name
                        defs.append((name, item, int(bound)))
            for name, fn, skip in defs:
                args = fn.args.posonlyargs + fn.args.args
                for pos, arg in enumerate(args[len(args) - len(fn.args.defaults):]):
                    yield path, name, arg.arg, len(args) - len(fn.args.defaults) + pos - skip
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        yield path, name, arg.arg, None


def calls_by_name(tops):
    """For each callable name, the calls to it in the directories `tops`
    (such as "src") as (positional argument count, keyword names).  Only the
    positions before a `*` argument count, since its length is not in the
    syntax tree; a `**` argument counts as every keyword, and
    `super().__init__(...)` as a call to each base class named."""
    calls = collections.defaultdict(list)
    for top in tops:
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text())
            bases = {}
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    names = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                             for b in cls.bases]
                    for node in ast.walk(cls):
                        bases[node] = names
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    names = [func.id]
                elif not isinstance(func, ast.Attribute):
                    continue
                elif (func.attr == "__init__" and isinstance(func.value, ast.Call)
                      and getattr(func.value.func, "id", None) == "super"):
                    names = [b for b in bases.get(node, ()) if b]
                else:
                    names = [func.attr]
                npos = next((k for k, a in enumerate(node.args) if isinstance(a, ast.Starred)),
                            len(node.args))
                keywords = {kw.arg for kw in node.keywords}
                for name in names:
                    calls[name].append((npos, keywords))
    return calls


def _calls_setting(tops):
    """Per defaulted parameter, its label "file: callable(parameter)" and
    whether each call in the directories `tops` sets it."""
    calls = calls_by_name(tops)
    for path, name, param, pos in defaulted_parameters():
        yield "%s: %s(%s)" % (path.name, name, param), [
            param in keywords or None in keywords or (pos is not None and npos > pos)
            for npos, keywords in calls[name]]


def unset_parameters(tops):
    """The defaulted parameters that no call in the directories `tops` sets."""
    return sorted(label for label, sets in _calls_setting(tops) if not any(sets))


def overridden_defaults(tops):
    """The defaulted parameters that every call in the directories `tops`
    sets: defaults that no call relies on."""
    return sorted(label for label, sets in _calls_setting(tops) if all(sets))


def test_every_defaulted_parameter_is_set_by_some_call():
    unset = unset_parameters(("src", "tests", "perfbench"))
    assert not unset, "defaulted parameters that no call sets: " + ", ".join(unset)


def test_every_default_is_relied_on_by_some_call():
    dead = overridden_defaults(("src", "tests", "perfbench"))
    assert not dead, "defaults that every call overrides: " + ", ".join(dead)


# The options that only tests set, each a candidate for a library caller or
# for deletion; lower the count when one goes, never raise it.
OPTIONS_ONLY_TESTS_SET = 17


def test_the_options_only_tests_set_do_not_grow():
    unset = unset_parameters(("src", "perfbench"))
    assert len(unset) <= OPTIONS_ONLY_TESTS_SET, (
        "%d options that only tests set: %s" % (len(unset), ", ".join(unset)))
