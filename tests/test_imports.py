import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

# Each submodule is imported first, into an interpreter holding no other mnhd
# module.  A plain `import mnhd.x` would run mnhd/__init__ (and so its fixed
# import order) before x, so the child registers a bare package object with
# the real search path instead; relative imports then resolve submodule by
# submodule, and an import cycle raises ImportError.
CODE = """
import importlib
import importlib.util
import pkgutil
import sys
import types

path = list(importlib.util.find_spec("mnhd").submodule_search_locations)
names = sorted(m.name for m in pkgutil.iter_modules(path))
for name in names:
    for key in [k for k in sys.modules if k == "mnhd" or k.startswith("mnhd.")]:
        del sys.modules[key]
    package = types.ModuleType("mnhd")
    package.__path__ = path
    sys.modules["mnhd"] = package
    importlib.import_module("mnhd." + name)
for key in [k for k in sys.modules if k == "mnhd" or k.startswith("mnhd.")]:
    del sys.modules[key]
import mnhd
print(" ".join(names))
"""


def test_every_submodule_imports_first():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", CODE], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["certify", "cli", "designs", "errors",
                                  "graphs", "heat", "quadratic", "reference",
                                  "spectral"]


def _tracer_targets() -> dict:
    """`TARGETS` of perfbench/tracer.py, read from its source: the file is
    parsed, not imported, so this writes nothing next to it."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    for node in ast.parse(tracer.read_text(encoding="utf-8")).body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
        if isinstance(node, ast.Assign) and names == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_tracer_target_exists_in_the_library():
    # a target that no longer resolves makes the traced benchmark report a
    # null metric for it while the run itself exits 0
    targets = _tracer_targets()
    assert targets
    for name, (module_name, path) in targets.items():
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), (name, module_name, path)


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so an invariant written as one
    # vanishes from the optimized CI run; invariants raise typed errors
    src = Path(__file__).resolve().parents[1] / "src" / "mnhd"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _unused_imports(path: Path) -> list[str]:
    """'file:line name' for each name that `path` imports and never reads;
    an import whose lines carry `# noqa: F401` is kept on purpose."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or any("# noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_library_has_no_unused_imports():
    # no linter runs in CI: a name left imported after its last use goes
    # unnoticed by every other test
    src = Path(__file__).resolve().parents[1] / "src" / "mnhd"
    assert [entry for path in sorted(src.glob("*.py"))
            if path.name != "__init__.py"
            for entry in _unused_imports(path)] == []


def _readme_library_example() -> str:
    """The python block under README.md's `## Library` heading."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_example_runs():
    # the example shows the public API; it runs as written in a fresh
    # interpreter, from the verdict of analyze to the numeric check's
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _readme_library_example()],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "ProvenMNHD"
    assert lines[-1] == "PassesAtTolerance"
