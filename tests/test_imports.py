"""Every name a library module imports is used in that module, every
module-level name, private or public, is read somewhere in the package,
and no library module imports scipy.

AST scans in place of a linter: they collect the names bound by import
statements or by top-level definitions and the names the code reads, and
report the difference; code that only the tests read belongs in the
tests.  For imports the package __init__ is skipped; it imports in order
to re-export, so it is checked instead to export exactly the names it
imports.  A scan names every line that imports scipy, in function bodies
too; an interpreter that refuses to import scipy runs the headline
commands and must print what an ordinary one prints.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import curved_riemannian_config, klein_config

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


def imports_of(source: str, package: str) -> list[int]:
    """Lines of every import of `package`: at module level, in class bodies and in function bodies."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m.split(".")[0] == package for m in modules):
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_finds_every_import():
    source = (
        "import numpy\nfrom scipy.integrate import quad\nimport scipy.optimize as opt\n"
        "if True:\n    import scipy\nclass A:\n    from scipy import linalg\n"
        "def f():\n    from scipy.optimize import minimize_scalar\n    return minimize_scalar\n"
        "from .scipy import x\n"
    )
    assert imports_of(source, "scipy") == [2, 3, 5, 7, 9]


@pytest.mark.parametrize("module", SOURCES, ids=lambda p: p.stem)
def test_no_module_imports_scipy(module):
    """scipy is a test dependency only: the tests check the library against it."""
    assert [f"{module.name}:{line}" for line in imports_of(module.read_text(), "scipy")] == []


BLOCKED_RUN = """
import json, sys
from importlib.abc import MetaPathFinder


class RefuseScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")
        return None


if sys.argv[1] == "blocked":
    sys.meta_path.insert(0, RefuseScipy())
from finslerlab.cli import main

for argv in json.loads(sys.argv[2]):
    assert main(argv) == 0, argv
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
"""


def test_headline_commands_run_with_scipy_refused(tmp_path):
    """theorem1 verify, a fan distance on the README metric and a distance on
    the interval print the same bytes in an interpreter that refuses to
    import scipy as in one that does not.

    Fresh interpreters, since the rest of the suite has loaded scipy.
    """
    configs = {
        "klein2": klein_config(2),
        "readme": curved_riemannian_config(),
        "interval1": {"family": "interval_funk", "dimension": 1, "k": 1.0},
    }
    paths = {}
    for name, config in configs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(config))
    commands = [
        ["theorem1", "verify", "--config", paths["klein2"], "--pairs", "20"],
        ["distance", "--config", paths["readme"], "--from", "-0.2,0.3", "--to", "0.4,-0.1"],
        ["distance", "--config", paths["interval1"], "--from", "-0.3", "--to", "0.5"],
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    stdout = {}
    for mode in ("blocked", "open"):
        proc = subprocess.run(
            [sys.executable, "-c", BLOCKED_RUN, mode, json.dumps(commands)],
            env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        stdout[mode] = proc.stdout
    assert b'"path": "fan"' in stdout["open"]
    assert stdout["blocked"] == stdout["open"]
