"""Layout rules for the package source, read with the standard library's ast.

Nothing unreachable: every module-level function or class in src/fgap,
public or underscore-named, is referenced somewhere in src/fgap outside its
own definition, and so is every public non-dunder method or property of a
public class
(an API only the tests reach belongs in the tests, as an oracle; the
method rule matches spellings, so it is weaker, see its test).  No
module imports a name it never uses, so a fold that moves code leaves no
import behind.  No function takes a parameter its body never reads.  And
the exact layer takes one polynomial type, the coefficient sequence: no
isinstance test names IntPoly, the class that only parses and prints.  A
real root is made only by isolation: AlgebraicNumber is called only inside
isolate_real_roots.  Imports sit at module level, the leaf modules kernels
and _intfactor import no other fgap module, and the package's import graph
has no cycle.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fgap"


def _parse_package():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"),
                                 str(path))
            for path in sorted(SRC.glob("*.py"))}


def _loaded_names(node):
    """Identifiers a subtree reads, bare names and attribute names, with
    the number of times each occurs."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _dunder_all(tree):
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in stmt.targets):
            return set(ast.literal_eval(stmt.value))
    return set()


def _unreferenced_definitions(private):
    """Module-level functions and classes, underscore-named or public as
    private says, that no other top-level statement in src/fgap reads."""
    trees = _parse_package()
    # names read by each top-level statement, keyed by (module, index)
    reads = {(mod, i): _loaded_names(stmt)
             for mod, tree in trees.items()
             for i, stmt in enumerate(tree.body)}
    unreferenced = []
    for mod, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if stmt.name.startswith("_") != private:
                continue
            if not any(stmt.name in names for key, names in reads.items()
                       if key != (mod, i)):
                unreferenced.append("%s:%s" % (mod, stmt.name))
    return unreferenced


def test_every_public_definition_is_referenced_in_the_package():
    assert _unreferenced_definitions(private=False) == []


def test_every_private_helper_is_referenced_in_the_package():
    """A helper that only the tests call belongs in tests/oracles.py."""
    assert _unreferenced_definitions(private=True) == []


def test_every_public_method_is_referenced_in_the_package():
    """A method counts as read when any name or attribute in src outside
    its own body has its spelling.  The rule cannot tell which class an
    attribute read belongs to, so a method whose name is shared with
    another identifier (`sign`, `matrix`, `cmp`, ...) is not checked: it
    catches only methods whose name occurs nowhere else."""
    trees = _parse_package()
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(_loaded_names(tree))
    unreferenced = []
    for mod, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for fn in cls.body:
                # properties and static methods are FunctionDefs too
                if not isinstance(fn, ast.FunctionDef) or \
                        fn.name.startswith("_"):
                    continue
                if everywhere[fn.name] == _loaded_names(fn)[fn.name]:
                    unreferenced.append("%s:%s.%s" % (mod, cls.name, fn.name))
    assert unreferenced == []


def test_no_module_has_an_unused_import():
    unused = []
    for mod, tree in _parse_package().items():
        used = {sub.id for sub in ast.walk(tree)
                if isinstance(sub, ast.Name)} | _dunder_all(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append("%s:%s" % (mod, bound))
    assert unused == []


def test_no_function_has_an_unread_parameter():
    """Every parameter of every function, method and lambda in src/fgap is
    read in its body, a nested function's read included; self and cls are
    exempt."""
    unread = []
    for mod, tree in _parse_package().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                continue
            args = fn.args
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg,
                                      args.kwarg) if a is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {sub.id for stmt in body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)}
            unread += ["%s:%s(%s)" % (mod, getattr(fn, "name", "lambda"), p)
                       for p in params
                       if p not in read and p not in ("self", "cls")]
    assert unread == []


def test_no_isinstance_test_names_intpoly():
    named = []
    for mod, tree in _parse_package().items():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) \
                    and call.func.id == "isinstance" and any(
                        "IntPoly" in _loaded_names(arg)
                        for arg in call.args[1:]):
                named.append("%s:%d" % (mod, call.lineno))
    assert named == []


def _calls_by_function(node, name, where=None):
    """The innermost enclosing function name (None at module level) of
    every call of name under node, as a bare name or an attribute."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None)):
            yield where
        inner = child.name if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from _calls_by_function(child, name, inner)


def test_only_isolation_makes_an_algebraic_number():
    """Every AlgebraicNumber holds an interval that isolation's bisection
    ended at, so no constructor check is needed: the one call that builds
    one is in isolate_real_roots."""
    callers = [(mod, where) for mod, tree in _parse_package().items()
               for where in _calls_by_function(tree, "AlgebraicNumber")]
    assert callers == [("algnum.py", "isolate_real_roots")]


def test_no_import_inside_a_function():
    """A module's imports are its top-level statements, so its import
    graph can be read, and a cycle cannot hide in a function body."""
    nested = []
    for mod, tree in _parse_package().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nested += ["%s:%d" % (mod, node.lineno)
                       for node in ast.walk(fn)
                       if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def _import_graph():
    """Each fgap module (file stem) and the fgap modules its import
    statements name, relative (`from . import x`, `from .x import y`) or
    absolute (`import fgap.x`, `from fgap.x import y`)."""
    graph = {}
    for mod, tree in _parse_package().items():
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[1] for alias in node.names
                             if alias.name.startswith("fgap."))
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0 and module.split(".")[0] == "fgap":
                    module = module[len("fgap."):]
                elif node.level == 0:
                    continue
                if module:
                    names.add(module.split(".")[0])
                else:
                    names.update(alias.name for alias in node.names)
        graph[mod[:-len(".py")]] = names
    return graph


def test_leaf_modules_import_no_fgap_module():
    """kernels and _intfactor are the integer layer everything else is
    built on."""
    graph = _import_graph()
    assert {mod: graph[mod] for mod in ("kernels", "_intfactor")} == {
        "kernels": set(), "_intfactor": set()}


def test_import_graph_has_no_cycle():
    graph = _import_graph()
    done, path, cycles = set(), [], []

    def visit(mod):
        if mod in path:
            cycles.append(path[path.index(mod):] + [mod])
            return
        if mod in done:
            return
        path.append(mod)
        for dep in sorted(graph.get(mod, ())):
            visit(dep)
        path.pop()
        done.add(mod)

    for mod in sorted(graph):
        visit(mod)
    assert cycles == []
