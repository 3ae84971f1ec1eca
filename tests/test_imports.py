"""Every name a kreinls module imports is used in that module, and no module
imports another kreinls module's private (underscore-prefixed) names.

No linter ships with the project, so this stands in for those two rules with
the standard library's ast. `__init__.py` only re-exports and is skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kreinls"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = "import numpy as np\nfrom .core import herm, range_of\n\nrange_of(np)\n"
    assert _unused_imports(source) == [(2, "herm")]


def _private_imports(source):
    """(line, name) of each underscore-prefixed name imported from a kreinls module."""
    return sorted(
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "kreinls")
        for alias in node.names
        if alias.name.startswith("_")
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_between_modules(path):
    assert _private_imports(path.read_text()) == []


def test_the_check_finds_a_private_import():
    source = (
        "from numpy import _private\nfrom .core import herm\n"
        "from .ils import (\n    _kept,\n)\nfrom kreinls.pinv import _square\n"
    )
    assert _private_imports(source) == [(3, "_kept"), (6, "_square")]
