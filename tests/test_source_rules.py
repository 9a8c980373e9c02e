import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "backfillsim"


def test_library_has_no_bare_assert():
    # invariants are explicit checks: `python -O` strips assert statements
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_imports_no_scipy():
    # importing scipy.special cost about half of a fresh process's set-up, and
    # scipy.optimize a third before it; the library carries ports of what it
    # used. This also finds imports inside functions
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_library_has_no_unused_imports():
    # every name a module imports at its top level is read somewhere in it
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue  # the package's imports are its exports
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [(alias.asname or alias.name.split(".")[0]) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in bound
                      if name not in used]
    assert found == []


def test_perfbench_tracer_finds_every_name_it_patches(monkeypatch):
    # the benchmark's traced passes wrap library names from outside; `install`
    # looks each one up in its owner's `__dict__`, so a rename fails here
    # instead of in every traced benchmark pass
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans
    with spans.Tracer().install():
        pass


def _names_read(path):
    # the names a file reads, attribute names and string constants (a
    # `getattr` or a patch target) included
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_library_has_no_code_that_only_tests_call():
    # every function, method and class the library defines is read somewhere
    # other than tests: in the library, a demo, a script or the benchmark.
    # The package's re-exports and the benchmark's own tests do not count
    library = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    others = [path for folder in ("demos", "scripts", "perfbench")
              for path in sorted((ROOT / folder).glob("*.py"))
              if not path.name.startswith("test_")]
    read = set().union(*map(_names_read, library + others))
    found = [f"{path.name}:{node.lineno} {node.name}"
             for path in library
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and not (node.name.startswith("__") and node.name.endswith("__"))
             and node.name not in read]
    assert found == []
