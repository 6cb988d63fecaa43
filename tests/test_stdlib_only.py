"""The package depends on the Python standard library only."""

import ast
import importlib
import pathlib
import sys

import convexqe

PACKAGE = pathlib.Path(convexqe.__file__).parent
BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def _is_intra_package(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or node.module.split(".")[0] == "convexqe"
    return (isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "convexqe" for a in node.names))


def test_every_import_is_intra_package_or_stdlib():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    outside = [f"{path.name}:{line}: {root}"
               for path in modules
               for line, root in _imported_roots(ast.parse(path.read_text()))
               if root != "convexqe" and root not in sys.stdlib_module_names]
    assert outside == []


def test_intra_package_imports_are_at_module_level():
    """No function-local import of the package's own modules: none breaks
    an import cycle, and each hides a dependency from the module header."""
    nested = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        nested += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if _is_intra_package(node) and id(node) not in top]
    assert nested == []


def test_only_models_reads_files():
    """``models.read_json`` is the one file reader: no other module calls
    ``open`` or ``json.load``, so each reports an unreadable file alike."""
    calls = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "models.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if name in ("open", "json.load", "load", "io.open"):
                    calls.append(f"{path.name}:{node.lineno}: {name}")
    assert calls == []


# what the oracle may import from the package: plumbing, never the
# semantics of an elimination engine
ORACLE_IMPORTS = {"closures", "errors", "models", "syntax",
                  "normalform.normalize_atoms"}


def _package_names(node: ast.AST):
    """Each package name an import binds, as "module" or "module.name"."""
    if isinstance(node, ast.Import):
        return [a.name.partition(".")[2] for a in node.names]
    base = node.module or ""
    if node.level == 0:
        base = base.partition(".")[2]
    return [f"{base}.{a.name}" if base else a.name for a in node.names]


def test_oracle_shares_no_engine():
    """The coordinate oracle is the differential-testing reference, so it
    imports only plumbing from the package."""
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    names = [(node.lineno, name) for node in ast.walk(tree)
             if _is_intra_package(node) for name in _package_names(node)]
    assert names
    outside = [f"oracle.py:{line}: {name}" for line, name in names
               if name.split(".")[0] not in ORACLE_IMPORTS
               and name not in ORACLE_IMPORTS]
    assert outside == []


def test_benchmark_imports_resolve():
    """Every name the benchmark scripts import from the package exists, so
    a change to the package cannot silently break them."""
    scripts = sorted(BENCHMARKS.glob("*.py"))
    assert scripts
    missing = []
    for path in scripts:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "convexqe":
                mod = importlib.import_module(node.module)
                missing += [f"{path.name}:{node.lineno}: {node.module}.{a.name}"
                            for a in node.names if not hasattr(mod, a.name)]
    assert missing == []


def _unused_imports(tree: ast.Module):
    """Names the module imports but neither reads nor lists in __all__."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_every_import_is_used():
    """Every imported name is used or re-exported through __all__, so a
    refactor leaves no dead import behind; __init__ only re-exports."""
    unused = [f"{path.name}:{line}: {name}"
              for path in sorted(PACKAGE.rglob("*.py"))
              if path.name != "__init__.py"
              for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert unused == []


def _private_definitions(tree: ast.Module):
    """The module-level _names a module defines: functions, classes and
    assignment targets (dunder names aside)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def test_every_private_definition_is_used():
    """Every module-level _name function, class or assignment is read
    somewhere in the package, as a name, an attribute or an import, so a
    refactor leaves no dead helper behind."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    dead = [f"{name}:{line}: {def_}" for name, tree in trees.items()
            for line, def_ in _private_definitions(tree) if def_ not in read]
    assert dead == []


# public definitions that nothing in the package or the benchmark reads,
# kept on purpose: tests use them as references, or each builds one of the
# paper's constructions
KEPT = {
    "classifier.canonical_member": "membership in the paper's symmetric "
                                   "canonical cut, which tests check",
    "classifier.f_valuational": "the paper's F-valuational test, with its "
                                "witness epsilon and falsifier",
    "classifier.stabilizer": "the independent stabilizer that m.cut's is "
                             "checked against",
    "classifier.stabilizer_escape": "the paper's escape pair for an axis "
                                    "that moves the cut",
    "cutqe.check_resistance": "the paper's resistance test, with a member "
                              "that escapes when U is not closed",
    "fuzz.gen_point": "draws the Point assignments the tests evaluate at",
    "normalform.to_dnf": "its tests are the DNF's equivalence check",
    "piecewise.pluslike_from_unary": "the paper's pluslike map H(x + y)",
    "syntax.canonicalize_bound": "makes alpha-equivalent formulas equal "
                                 "for the round-trip checks",
}


def _public_definitions(module: str, tree: ast.Module):
    """(line, "module.name", name, False) for each public module-level
    function and class, and (line, "module.Class.method", method, True) for
    each public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield node.lineno, f"{module}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    yield (sub.lineno, f"{module}.{node.name}.{sub.name}",
                           sub.name, True)


def test_every_public_definition_has_a_caller():
    """Every public function, class and method is read somewhere in the
    package outside __init__ or in the benchmark scripts, as a name or an
    import (a method as an attribute), or is named in KEPT with a reason,
    so no dead API outlives its last caller; a KEPT name is never read."""
    paths = [p for p in sorted(PACKAGE.rglob("*.py"))
             if p.name != "__init__.py"] + sorted(BENCHMARKS.glob("*.py"))
    names, attrs = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    read = {False: names, True: attrs}
    unread = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for line, qual, name, method in _public_definitions(path.stem, tree):
            if name not in read[method]:
                unread[qual] = f"{path.name}:{line}: {qual}"
    assert [where for qual, where in unread.items() if qual not in KEPT] == []
    assert sorted(set(KEPT) - set(unread)) == []
