"""Every name a library module imports is used in that module, every
module-level name, private or public, is read somewhere in the package,
and scipy is imported only where it is used.

AST scans in place of a linter: they collect the names bound by import
statements or by top-level definitions and the names the code reads, and
report the difference; code that only the tests read belongs in the
tests.  For imports the package __init__ is skipped; it imports in order
to re-export, so it is checked instead to export exactly the names it
imports.  A scan names the line that imports scipy when a module loads; a
fresh interpreter checks that the curvature, Einstein, validation and
compare paths never load it, indirectly either.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import euclid_config, exact_randers_config, funk_config, klein_config

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finslerlab"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math (line 1)",
        "path (line 2)",
    ]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def top_level_names(source: str):
    """(name, line, decorated) for each top-level function, class and constant."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            decorated = bool(node.decorator_list) and not isinstance(node, ast.ClassDef)
            yield node.name, node.lineno, decorated
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        yield n.id, node.lineno, False


def read_names(sources: dict[str, str]) -> set[str]:
    """Names loaded as a name or accessed as an attribute (``module._name``) anywhere."""
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level functions, classes and constants that no source reads."""
    read = read_names(sources)
    return sorted(
        f"{module}.{name} (line {line})"
        for module, source in sources.items()
        for name, line, _ in top_level_names(source)
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """Public top-level functions, classes and constants that no source reads.

    A decorated function counts as read: the decorator registers it (the
    click commands).  Importing a name is not reading it, so a name that
    only the package __init__ re-exports is reported.
    """
    read = read_names(sources)
    return sorted(
        f"{module}.{name} (line {line})"
        for module, source in sources.items()
        for name, line, decorated in top_level_names(source)
        if not name.startswith("_") and not decorated and name not in read
    )


def test_scan_finds_an_unread_private_name():
    sources = {
        "a": "_USED = 1\n_UNUSED = 2\ndef _helper():\n    return _USED\nclass _Dead:\n    pass\n",
        "b": "from . import a\ndef public():\n    return a._helper()\n",
    }
    assert unread_private_names(sources) == ["a._Dead (line 5)", "a._UNUSED (line 2)"]


def test_every_private_name_is_read():
    assert unread_private_names({p.stem: p.read_text() for p in SOURCES}) == []


def test_scan_finds_an_unread_public_name():
    sources = {
        "a": "USED = 1\nUNUSED = 2\ndef helper():\n    return USED\n@register\ndef command():\n    pass\n",
        "b": "from .a import helper, UNUSED\ndef run():\n    return helper()\n",
    }
    assert unread_public_names(sources) == ["a.UNUSED (line 2)", "b.run (line 2)"]


def test_every_public_name_is_read():
    assert unread_public_names({p.stem: p.read_text() for p in SOURCES}) == []


def test_package_exports_exactly_its_imports():
    import finslerlab

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    assert set(finslerlab.__all__) == imported
    assert len(finslerlab.__all__) == len(imported)


def load_time_imports(source: str, package: str) -> list[int]:
    """Lines of the imports of `package` that run when the module loads: those outside function bodies."""
    lines = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                modules = [child.module]
            else:
                modules = []
            if any(m.split(".")[0] == package for m in modules):
                lines.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return lines


def test_scan_finds_a_load_time_import():
    source = (
        "import numpy\nfrom scipy.integrate import quad\nimport scipy.optimize as opt\n"
        "if True:\n    import scipy\nclass A:\n    from scipy import linalg\n"
        "def f():\n    from scipy.optimize import minimize_scalar\n    return minimize_scalar\n"
        "from .scipy import x\n"
    )
    assert load_time_imports(source, "scipy") == [2, 3, 5, 7]


@pytest.mark.parametrize("module", SOURCES, ids=lambda p: p.stem)
def test_scipy_is_not_imported_at_load_time(module):
    """scipy is imported inside the functions that integrate or run a quadrature."""
    found = [f"{module.name}:{line}" for line in load_time_imports(module.read_text(), "scipy")]
    assert found == []


COLD_START = """
import json, sys
from finslerlab import (einstein_classify, finsler_distance, fundamental_tensor, make_metric,
                        projective_relation, riemann_curvature, validate_structure)
from finslerlab.cli import main

configs, paths = json.loads(sys.argv[1]), json.loads(sys.argv[2])
S = {name: make_metric(cfg) for name, cfg in configs.items()}
for name, s in S.items():
    n = s.dimension
    x, y = [0.1] * n, [1.0] + [0.5] * (n - 1)
    validate_structure(s, samples=5)
    fundamental_tensor(s, x, y)
    riemann_curvature(s, x, y)
    if n >= 2:
        einstein_classify(s, x_samples=2, y_directions=8)
projective_relation(S["klein2"], S["funk2"], samples=5)
k = paths["klein2"]
for argv in (
    ["metric", "validate", "--config", k, "--samples", "5"],
    ["einstein", "check", "--config", k, "--samples", "2"],
    ["curvature", "report", "--config", k, "--x", "0.1,0.2", "--y", "1,0.5"],
    ["projective", "compare", "--config-a", k, "--config-b", paths["funk2"]],
):
    assert main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
finsler_distance(S["klein2"], [0.0, 0.0], [0.3, 0.1])
assert "scipy.integrate" in sys.modules
print("cold start ok")
"""


def test_cold_start_leaves_scipy_unloaded(tmp_path):
    """Building every family and running the curvature, Einstein, validation and
    compare paths, library and CLI, loads no scipy; one distance then does.

    A fresh interpreter, since the rest of the suite has loaded scipy.
    """
    configs = {
        "klein2": klein_config(2),
        "funk2": funk_config(2),
        "klein3": klein_config(3),
        "euclid2": euclid_config(2),
        "randers": exact_randers_config(),
        "interval1": {"family": "interval_funk", "dimension": 1, "k": 1.0},
    }
    paths = {name: str(tmp_path / f"{name}.json") for name in ("klein2", "funk2")}
    for name, path in paths.items():
        Path(path).write_text(json.dumps(configs[name]))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(configs), json.dumps(paths)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.endswith("cold start ok\n")
